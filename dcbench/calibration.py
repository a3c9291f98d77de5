"""Machine-speed calibration for the timings.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes, as other tenants come and go, and a median over a
run does not average that out.  So the benchmark times this fixed kernel
between passes and scales each pass by REFERENCE_S / (the mean of the
kernel times just before and just after it).  The kernel mixes the three
kinds of work the workloads do:
- number formatting, as in the CSV writer;
- plain interpreted Python, as in mpmath and the stepping loops;
- small batched numpy products, as in propagation and the monitors.

Its numbers and arrays take about 4 MB, a small share of any peak RSS.  A change to
dcobserver does not touch this kernel, so every gain or loss in the library
shows in full in the scaled times.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the kernel's time on the machine the baseline was
# measured on (0.06 to 0.1 s across its speed states).  Scaled times are in
# reference seconds: wall seconds on a machine where the kernel takes 0.1 s.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(20140801)
_VALUES = _RNG.normal(size=35000).tolist()
_MAPS = _RNG.normal(size=(2000, 8, 8))
_THETA = _RNG.normal(size=(8, 8))


def calibrate() -> float:
    """Wall time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    ",".join(format(v, ".12g") for v in _VALUES)
    total = 0
    for i in range(350000):
        total += i * i
    for _ in range(14):
        float(np.max(np.abs(_MAPS @ _THETA @ _MAPS.transpose(0, 2, 1))))
    return time.perf_counter() - start
