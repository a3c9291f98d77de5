"""Self-test of the benchmark.

    python3 dcbench/selftest.py

Checks, for each workload, with two traced runs:
1. the per-layer counts repeat exactly;
2. the module self times sum to the traced pass time within the tracing
   overhead (or 2% of the pass, when the overhead is below the noise): the
   per-pass gap is ``trace.unattributed_s``;
3. the runs leave every file of the checkout, src/ included, unchanged.
It also checks that the printed metric names and units are those of
BENCHMARK.json, and that the blockwise reference agrees with mpmath.expm.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

HERE, ROOT = run.HERE, run.ROOT
SECONDS = 2
COUNTS = (
    "linalg.eigenvalues_mp_calls",
    "linalg.is_positive_definite_calls",
    "linalg.expm_calls",
    "simulation.propagate_calls",
    "closed_form.calls",
    "simulation.steps_propagated",
    "simulation.steps_output",
    "simulation.step_useful_ratio",
    "simulation.maps_mb",
    "scenarios.csv_bytes",
    "scenarios.csv_values",
)


def snapshot() -> dict:
    skip = {".git", "__pycache__"}
    return {
        str(p.relative_to(ROOT)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(ROOT.rglob("*"))
        if p.is_file() and not skip.intersection(p.relative_to(ROOT).parts)
    }


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """Result object and the '# workload: key value' figures of one short traced run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    figures = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if line.startswith(f"# {workload}: ") and len(parts) == 4:
            figures[parts[2]] = parts[3]
    return json.loads(out.stdout.splitlines()[-1]), figures


def check(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        sys.exit(1)


def check_reference() -> None:
    import mpmath

    from reference import DPS, exp_and_integral

    with mpmath.workdps(DPS):
        a = mpmath.matrix([[0.3, -1.2, 0.5], [2.0, 0.1, -0.7], [0.4, 0.9, -0.2]])
        e, g = exp_and_integral(a, mpmath.mpf(7.5))
        e_err = mpmath.mnorm(e - mpmath.expm(a * 7.5), 1) / mpmath.mnorm(e, 1)
        g_err = mpmath.mnorm(a * g - (e - mpmath.eye(3)), 1) / mpmath.mnorm(e, 1)
    check(e_err < 1e-30 and g_err < 1e-30, f"reference: expm error {float(e_err):.1e}, integral error {float(g_err):.1e}")


def check_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == table, f"BENCHMARK.json {key} names and units match run.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), "BENCHMARK.json workloads match run.py")


def main() -> int:
    check_names()
    check_reference()
    before = snapshot()
    for workload in run.WORKLOAD_NAMES:
        (first, figures), (second, _) = (traced_run(workload, seed) for seed in (1, 2))
        check(first["correct"] and second["correct"], f"{workload}: both traced runs correct")
        a, b = first["metrics"], second["metrics"]
        differ = [k for k in COUNTS if a[k]["value"] != b[k]["value"]]
        check(not differ, f"{workload}: per-layer counts repeat exactly {differ or ''}")
        traced = float(figures["traced_run_s"])
        unattributed = a["trace.unattributed_s"]["value"]
        limit = max(abs(a["trace.overhead_s"]["value"]), 0.02 * traced)
        check(abs(unattributed) <= limit,
              f"{workload}: self times sum to the traced run_s {traced:.4g} s within {limit:.3g} s (gap {unattributed:.3g} s)")
    check(snapshot() == before, "the runs left every file of the checkout unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
