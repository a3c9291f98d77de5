"""One workload process: set up, one discarded warm-up pass, then timed passes.

Usage: worker.py PLAN_JSON RESULT_JSON SPAWN_TIME SPAWN_KERNEL_S BUDGET_S TRACE

SPAWN_TIME is the CLOCK_MONOTONIC reading run.py took just before
starting this process, so the set-up time covers interpreter start, the
dcobserver import, input loading and the warm-up pass.  SPAWN_KERNEL_S is the
calibration kernel time run.py took just before that.  Passes are timed
until BUDGET_S seconds have passed since the first one.  The calibration
kernel runs before and after the warm-up and after every pass; each pass, and
each of the two parts of the set-up (start to warm-up, warm-up), is scaled to
reference seconds by the kernel times on either side of it (calibration.py).
The kernel's own time is not part of the set-up.
The output directory is removed before every pass, outside the timing, so
each check reads only what that pass wrote.
With TRACE = 1, untraced and traced passes alternate, so the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from calibration import REFERENCE_S, calibrate
from checks import CheckError


def main(plan_path, result_path, spawn_time, spawn_kernel, budget, trace) -> int:
    plan = json.loads(Path(plan_path).read_text())
    loaded = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"attempted": 0, "failed": 0, "errors": [], "pass_s": [], "traced_pass_s": [], "wall_pass_s": [], "layers": []}
    tracer = tracing.Tracer() if trace else None

    def one_pass(traced: bool):
        shutil.rmtree(plan["out_dir"], ignore_errors=True)
        gc.collect()
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            out = workloads.run_pass(plan)
            duration = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        result["attempted"] += 1
        try:
            figures = workloads.check_pass(plan, out)
        except CheckError as exc:
            result["failed"] += 1
            result["errors"].append(str(exc))
            return duration, None
        finally:
            del out
        return duration, figures

    try:
        kernel = calibrate()
        warm_start = time.clock_gettime(time.CLOCK_MONOTONIC)
        one_pass(False)
        warm_up = time.clock_gettime(time.CLOCK_MONOTONIC) - warm_start
        before = calibrate()
        result["wall_setup_s"] = (loaded - spawn_time) + warm_up
        result["setup_s"] = (loaded - spawn_time) * REFERENCE_S / (0.5 * (spawn_kernel + kernel)) + (
            warm_up * REFERENCE_S / (0.5 * (kernel + before))
        )
        first = time.perf_counter()
        traced = False
        while True:
            duration, figures = one_pass(traced)
            after = calibrate()
            scale = REFERENCE_S / (0.5 * (before + after))
            before = after
            if figures is not None:
                result["figures"] = figures
                if traced:
                    layers = tracer.pass_metrics(duration, scale)
                    for key in ("csv_bytes", "csv_values", "steps_output"):
                        layers[key] = figures[key]
                    result["layers"].append(layers)
            result["traced_pass_s" if traced else "pass_s"].append(duration * scale)
            if not traced:
                result["wall_pass_s"].append(duration)
            done = time.perf_counter() - first >= budget
            if done and (not trace or result["traced_pass_s"]):
                break
            traced = trace and not traced
    except Exception:  # noqa: BLE001  a raising pass is a failed pass, reported to run.py
        result["attempted"] += 1
        result["failed"] += 1
        result["errors"].append(traceback.format_exc())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    plan_path, result_path, spawn_time, spawn_kernel, budget, trace = sys.argv[1:7]
    sys.exit(main(plan_path, result_path, float(spawn_time), float(spawn_kernel), float(budget), trace == "1"))
