"""dcobserver benchmark runner.

    python3 dcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of stock_figures, wide_custom,
long_horizon, or ``all`` for the three in turn.  The runner builds the inputs
and the extended-precision references from the seed, then starts the
workload process (``worker.py``) SETUPS times in a row; each sets up, runs one
discarded warm-up pass and times passes for S / SETUPS seconds, checking every
pass.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced passes with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# OpenBLAS would start one thread per core; one thread keeps the rounding,
# and so the accuracy metrics, identical from run to run.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from calibration import calibrate  # noqa: E402  (numpy after the thread setting)

SETUPS = 3
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "end_error": "ratio",
    "avg_error": "ratio",
    "ccr_residual": "abs",
    "energy_residual": "abs",
}
PER_LAYER = {
    "linalg.eigenvalues_mp_s": "s",
    "linalg.eigenvalues_mp_calls": "count",
    "synthesis.verify_observer_conditions_self_s": "s",
    "linalg.eigenvalues_s": "s",
    "linalg.is_positive_definite_s": "s",
    "linalg.is_positive_definite_calls": "count",
    "synthesis.synthesize_observer_s": "s",
    "synthesis.assemble_augmented_s": "s",
    "ccr.self_s": "s",
    "simulation.propagate_s": "s",
    "simulation.propagate_calls": "count",
    "simulation.time_average_s": "s",
    "simulation.invariant_monitor_s": "s",
    "simulation.convergence_diagnostics_self_s": "s",
    "linalg.expm_s": "s",
    "linalg.expm_calls": "count",
    "closed_form.self_s": "s",
    "closed_form.calls": "count",
    "simulation.steps_propagated": "count",
    "simulation.steps_output": "count",
    "simulation.step_useful_ratio": "ratio",
    "simulation.maps_mb": "MB",
    "simulation.propagate_schedule_s": "s",
    "scenarios.self_s": "s",
    "scenarios.csv_bytes": "bytes",
    "scenarios.csv_values": "count",
    "scenarios.write_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "synthesis.self_s": "s",
    "simulation.self_s": "s",
    "linalg.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
WORKLOAD_NAMES = ("stock_figures", "wide_custom", "long_horizon")
# The accuracy metrics are reported as max(value, floor).  Below 1e-10 a
# change is float64 rounding (the 12 CSV digits, the order of the sums in a
# residual), not a gain or loss of accuracy; README gives the figures.
FLOORS = {"end_error": 1e-10, "avg_error": 1e-10, "ccr_residual": 1e-10, "energy_residual": 1e-10}


def environment(args) -> dict:
    import numpy as np

    import workloads

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "system_seed": workloads.SYSTEM_SEED,
        "reference": "mpmath 40-digit Van Loan block exponential (Taylor, scaling and squaring)",
    }


def run_workers(plan_path: Path, work: Path, seconds: float, trace: bool, deadline: float) -> list[dict]:
    results = []
    for i in range(SETUPS):
        result_path = work / f"result{i}.json"
        log_path = work / f"worker{i}.log"
        speed = calibrate()
        with open(log_path, "wb") as log:
            spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
                 repr(spawn), repr(speed), repr(seconds / SETUPS), "1" if trace else "0"],
                stdout=log, stderr=subprocess.STDOUT, cwd=work,
            )
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            tail = log_path.read_text(errors="replace")[-2000:]
            results.append({"attempted": 1, "failed": 1, "errors": [f"worker exit {proc.returncode}: {tail}"]})
            break
        results.append(json.loads(result_path.read_text()))
    return results


def summarize(results: list[dict], trace: bool) -> tuple[dict, dict]:
    """Metrics of the run and the extra figures printed above them.

    Only processes that finished their passes count; a run with any failure
    is reported incorrect whatever its metrics.
    """
    done = [r for r in results if r.get("pass_s") and "figures" in r and "setup_s" in r]
    passes = [t for r in done for t in r["pass_s"]]
    extra = {"passes": len(passes), "sha256": done[-1]["figures"]["sha256"] if done else {}}
    if not done or (trace and not any(r["layers"] for r in done)):
        return {}, extra
    walls = [t for r in done for t in r["wall_pass_s"]]
    extra["run_s_min"], extra["run_s_max"] = min(passes), max(passes)
    extra["wall_run_s"] = statistics.median(walls)
    extra["wall_setup_s"] = statistics.median(r["wall_setup_s"] for r in done)
    if trace:
        from tracing import median_metrics

        traced = [t for r in done for t in r["traced_pass_s"]]
        layers = median_metrics([p for r in done for p in r["layers"]])
        layers["simulation.step_useful_ratio"] = layers["steps_output"] / max(1, layers["simulation.steps_propagated"])
        layers["simulation.steps_output"] = layers.pop("steps_output")
        layers["scenarios.csv_bytes"] = layers.pop("csv_bytes")
        layers["scenarios.csv_values"] = layers.pop("csv_values")
        self_s = layers["scenarios.self_s"]
        layers["scenarios.write_mb_per_s"] = layers["scenarios.csv_bytes"] / 1e6 / self_s if self_s > 0 else 0.0
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(passes)
        extra["traced_run_s"] = statistics.median(traced)
        extra["untraced_run_s"] = statistics.median(passes)
        extra["traced_passes"] = len(traced)
        return {k: layers[k] for k in PER_LAYER}, extra
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "run_s": statistics.median(passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    for key, floor in FLOORS.items():
        extra[f"raw_{key}"] = max(r["figures"][key] for r in done)
        metrics[key] = max(extra[f"raw_{key}"], floor)
    return metrics, extra


def run_workload(name: str, args) -> bool:
    from checks import CheckError
    import workloads

    started = time.monotonic()
    work = WORK / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            plan = workloads.build_plan(name, args.seed, work)
        except CheckError as exc:
            results = [{"attempted": 1, "failed": 1, "errors": [f"plan: {exc}"]}]
        else:
            plan_path = work / "plan.json"
            plan_path.write_text(json.dumps(plan))
            results = run_workers(plan_path, work, args.seconds, args.trace == 1, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    metrics, extra = summarize(results, args.trace == 1)
    units = PER_LAYER if args.trace == 1 else END_TO_END
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and len(results) == SETUPS and set(metrics) == set(units)
    for r in results:
        for error in r["errors"]:
            print(f"error: {name}: {error}", file=sys.stderr)

    print(f"# env {json.dumps(environment(args), sort_keys=True)}")
    print(f"# {name}: {extra['passes']} timed passes, failed_frac {failed / max(1, attempted):.3g} ({failed}/{attempted})")
    for key, value in extra.items():
        if key not in ("passes", "sha256"):
            print(f"# {name}: {key} {value:.6g}")
    for file, digest in sorted(extra["sha256"].items()):
        print(f"# {name}: sha256 {file} {digest}")
    for key, value in metrics.items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dcobserver" / "__init__.py").is_file():
        print(f"error: no dcobserver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = [run_workload(name, args) for name in names]
    return 0 if all(ok) or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
