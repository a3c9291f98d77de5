"""The three workloads: how each builds its inputs, runs one pass and checks it.

Every workload is a closed loop with one client: a pass starts only after the
previous one has returned and been checked.

* ``stock_figures``: ``cli.main`` runs ``one_mode`` and then
  ``measurement_sequence`` at their defaults (the paper's figures).  Mostly
  CSV writing; the only workload that runs ``propagate_schedule``.
* ``wide_custom``: ``cli.main --config`` runs ``custom`` on a random system
  with n_p = n_o = 16 (n = 32), T = 10, dt = 0.05.  Mostly the
  extended-precision spectrum inside ``verify_observer_conditions``.
* ``long_horizon``: the ``run_custom`` pipeline through the public API, no
  file output, on a random system with n_p = n_o = 4 (n = 8), T = 1e4,
  dt = 0.1.  Mostly propagation, averaging and diagnostics; shows drift and
  memory.

Each CLI pass parses its config afresh, as a user's invocation does, so no
``ScenarioConfig`` is ever reused across passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import dcobserver
from dcobserver import cli

from checks import MAP_TOL, CheckError, average_tolerance, check_csv_output, compare, grid
from reference import schedule_references

# The random systems are drawn with this recipe seed, not with --seed: the
# accuracy metrics of different random systems spread over more than a decade,
# far beyond any regression bound, so every run measures the same system.
SYSTEM_SEED = 1
RANDOM_SYSTEMS = {
    "wide_custom": {"n_p": 16, "n_o": 16, "t_end": 10.0, "dt": 0.05},
    "long_horizon": {"n_p": 4, "n_o": 4, "t_end": 1e4, "dt": 0.1},
}
STOCK_DT = 0.01
SAMPLES = 2  # sampled rows per checked series, besides the end time

# The stock dynamics a_a = 2 theta r_a, written out: the position-estimating
# one-mode observer and its conjugate that takes over after the swap.
A_ONE_MODE = [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2], [2, 0, -2, 0]]
A_SWAPPED = [[0, 0, 0, -2], [0, 0, 0, 0], [0, -2, 0, 2], [0, 0, -2, 0]]
STOCK = {
    "one_mode": {
        "beta": [[1.0], [0.0]],
        "c_o": [[1.0, 0.0]],
        "segments": [("one_mode", 100.0)],
        "map_end": 50.0,
        "maps": [("fig03.csv", 0), ("fig04.csv", 1), ("fig05.csv", 2), ("fig06a.csv", 3)],
        "averages": [("fig06.csv", 2), ("fig06b.csv", 3)],
    },
    "measurement_sequence": {
        "segments": [("one_mode", 20.0), (None, 5.0), ("swapped", 75.0)],
        "map_end": 100.0,
        "maps": [("fig07.csv", 0), ("fig08.csv", 1), ("fig09.csv", 2), ("fig11.csv", 3)],
        "averages": [("fig10.csv", 2), ("fig12.csv", 3)],
    },
}


# -- inputs -------------------------------------------------------------------
# The random-system recipe of the test suite: unit beta blocks at random
# angles, r_o spectrum in [0.5, 3], c_o rows resampled until the gain map has
# smallest singular value >= 0.25.


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_system(rng, n_p, n_o) -> dict:
    beta = np.zeros((n_p, n_p // 2))
    for i in range(n_p // 2):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        beta[2 * i : 2 * i + 2, i] = (np.cos(angle), np.sin(angle))
    q = _orthogonal(rng, n_o)
    r_o = q @ np.diag(rng.uniform(0.5, 3.0, size=n_o)) @ q.T
    r_o = 0.5 * (r_o + r_o.T)
    for _ in range(100):
        c_o = rng.normal(size=(n_p // 2, n_o))
        c_o /= np.linalg.norm(c_o, axis=1, keepdims=True)
        if np.linalg.svd(c_o @ np.linalg.inv(r_o), compute_uv=False)[-1] >= 0.25:
            return {"beta": beta.tolist(), "r_o": r_o.tolist(), "c_o": c_o.tolist()}
    raise RuntimeError("could not draw a well-conditioned output matrix")


def _augmented(system):
    plant = dcobserver.make_plant(system["beta"])
    r_o = system.get("r_o", np.eye(2))
    return dcobserver.assemble_augmented(plant, dcobserver.synthesize_observer(plant, r_o, system["c_o"]))


def _independent_dynamics(system) -> np.ndarray:
    """a_a = 2 theta r_a rebuilt from the paper's formulas, without the library."""
    beta, r_o, c_o = (np.asarray(system[k], dtype=float) for k in ("beta", "r_o", "c_o"))
    alpha = -np.linalg.pinv(c_o @ np.linalg.inv(r_o))
    r_c = beta @ alpha.T
    n_p = beta.shape[0]
    r_a = np.block([[np.zeros((n_p, n_p)), r_c], [r_c.T, r_o]])
    n = r_a.shape[0]
    theta = np.kron(np.eye(n // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return 2.0 * theta @ r_a


def _series_plan(rng, segments, dt, map_end, n, maps=None, averages=None) -> dict:
    """Plan of one delivered series: sampled rows, their references, tolerances.

    The sampled grid points are shared by the maps (row k) and the averages
    (row k - 1); the last samples are the end times of each.
    """
    times = grid([d for _, d in segments], dt)
    map_rows = int(np.searchsorted(times, map_end + 1e-12))
    avg_rows = times.size - 1
    picks = sorted(int(k) for k in rng.choice(np.arange(1, map_rows - 1), SAMPLES, replace=False))
    map_pick, avg_pick = picks + [map_rows - 1], picks + [avg_rows]
    wanted = sorted({float(times[k]) for k in map_pick + avg_pick})
    refs = dict(zip(wanted, schedule_references(segments, wanted)))
    a_max = max((a for a, _ in segments if a is not None), key=lambda a: np.linalg.norm(a, 2))
    plan = {"n": n}
    for kind, pick, offset, rows, files, tol in (
        ("maps", map_pick, 0, map_rows, maps, MAP_TOL),
        ("averages", avg_pick, 1, avg_rows, averages, average_tolerance(dt, a_max)),
    ):
        samples = [
            {"row": k - offset, "t": float(times[k]), "ref": refs[float(times[k])][offset].tolist()}
            for k in pick
        ]
        plan[kind] = {"rows": rows, "tol": tol, "samples": samples}
        if files is not None:
            plan[kind]["files"] = [list(f) for f in files]
    return plan


def build_plan(workload: str, seed: int, work_dir: Path) -> dict:
    """Inputs, expected outputs and references of one run (outside any timing)."""
    rng = np.random.default_rng(seed)
    out_dir = work_dir / "out"
    plan = {"workload": workload, "out_dir": str(out_dir)}
    if workload == "stock_figures":
        dynamics = {
            "one_mode": _augmented(STOCK["one_mode"]).a_a,
            "swapped": _augmented({"beta": [[0.0], [1.0]], "c_o": [[0.0, 1.0]]}).a_a,
        }
        for key, written in (("one_mode", A_ONE_MODE), ("swapped", A_SWAPPED)):
            if not np.array_equal(dynamics[key], np.array(written, dtype=float)):
                raise CheckError(f"assembled {key} dynamics differ from the paper's matrix")
        plan["outputs"] = []
        for name, spec in STOCK.items():
            segments = [(None if key is None else dynamics[key], d) for key, d in spec["segments"]]
            series = _series_plan(rng, segments, STOCK_DT, spec["map_end"], 4, spec["maps"], spec["averages"])
            plan["outputs"].append({"dir": name, **series})
        return plan
    shape = RANDOM_SYSTEMS[workload]
    system = random_system(np.random.default_rng(SYSTEM_SEED), shape["n_p"], shape["n_o"])
    a_a = _augmented(system).a_a
    if not np.allclose(a_a, _independent_dynamics(system), rtol=0.0, atol=1e-12 * np.max(np.abs(a_a))):
        raise CheckError("assembled dynamics differ from the independently built a_a")
    segments = [(a_a, shape["t_end"])]
    n = a_a.shape[0]
    if workload == "wide_custom":
        config = {"scenario": "custom", **system, "t_end": shape["t_end"], "dt": shape["dt"], "out_dir": str(out_dir)}
        config_path = work_dir / "wide_custom.json"
        config_path.write_text(json.dumps(config))
        plan["argv"] = ["--config", str(config_path)]
        files = ([("coefficients.csv", None)], [("averages.csv", None)])
        series = _series_plan(rng, segments, shape["dt"], shape["t_end"], n, *files)
        plan["outputs"] = [{"dir": "custom", **series}]
    else:
        plan["system"] = system
        plan["t_end"], plan["dt"] = shape["t_end"], shape["dt"]
        plan["outputs"] = [_series_plan(rng, segments, shape["dt"], shape["t_end"], n)]
    return plan


# -- one pass -----------------------------------------------------------------


def run_pass(plan: dict):
    """The timed work of one pass; returns what the check needs."""
    if plan["workload"] == "stock_figures":
        argv = ["--out-dir", plan["out_dir"]]
        return [cli.main(["--scenario", name, *argv]) for name in STOCK]
    if plan["workload"] == "wide_custom":
        return [cli.main(plan["argv"])]
    system = plan["system"]
    plant = dcobserver.make_plant(system["beta"])
    observer = dcobserver.synthesize_observer(plant, system["r_o"], system["c_o"])
    aug = dcobserver.assemble_augmented(plant, observer)
    report = dcobserver.verify_observer_conditions(aug)
    series = dcobserver.propagate(aug.a_a, dcobserver.uniform_grid(plan["t_end"], plan["dt"]))
    averages = dcobserver.time_average(series)
    invariants = dcobserver.invariant_monitor(series, aug.ccr, aug.r_a)
    convergence = dcobserver.convergence_diagnostics(aug, horizon=plan["t_end"], dt=plan["dt"])
    return report, series, averages, invariants, convergence


def check_pass(plan: dict, result) -> dict:
    """Raise CheckError unless the pass is correct; return its figures.

    The figures are the end-time errors, the library's own CCR and energy
    residuals, the delivered averaging steps and the CSV counts and hashes.
    """
    figures = {"end_error": 0.0, "avg_error": 0.0, "ccr_residual": 0.0, "energy_residual": 0.0,
               "steps_output": 0, "csv_bytes": 0, "csv_values": 0, "sha256": {}}
    if plan["workload"] == "long_horizon":
        report, series, averages, invariants, convergence = result
        if not report.passes():
            raise CheckError("verify_observer_conditions does not pass")
        if not convergence.converged:
            raise CheckError("convergence_diagnostics did not converge")
        output = plan["outputs"][0]
        if series.maps.shape[0] != output["maps"]["rows"] or averages.averages.shape[0] != output["averages"]["rows"]:
            raise CheckError("series length differs from the grid")
        figures["end_error"] = compare("maps", output["maps"], lambda k: (series.times[k], series.maps[k]))
        figures["avg_error"] = compare(
            "averages", output["averages"], lambda k: (averages.times[k], averages.averages[k])
        )
        figures["ccr_residual"] = invariants.max_ccr_residual
        figures["energy_residual"] = invariants.max_energy_residual
        figures["steps_output"] = output["averages"]["rows"]
        return figures
    if any(code != 0 for code in result):
        raise CheckError(f"cli.main exit codes {result}")
    out_dir = Path(plan["out_dir"])
    for output in plan["outputs"]:
        summary = json.loads((out_dir / output["dir"] / "summary.json").read_text())
        if summary["passed"] is not True:
            raise CheckError(f"{output['dir']}: summary.passed is false")
        got = check_csv_output(out_dir, output)
        for key in ("end_error", "avg_error"):
            figures[key] = max(figures[key], got[key])
        for key in ("ccr_residual", "energy_residual"):
            figures[key] = max(figures[key], summary["conservation"][key])
        figures["steps_output"] += output["averages"]["rows"]
        figures["csv_bytes"] += got["csv_bytes"]
        figures["csv_values"] += got["csv_values"]
        figures["sha256"].update(got["sha256"])
    return figures
