"""Extended-precision references for Phi(t) and its running average.

Both come from Van Loan's block exponential

    expm([[A, I], [0, 0]] h) = [[e^{A h}, int_0^h e^{A u} du], [0, I]],

evaluated blockwise by Taylor series with scaling and squaring in mpmath at
40 significant digits.  The top-left block is mpmath's own ``expm`` of A h;
the top-right block is the exact integral, which also covers the singular
augmented dynamics.  ``scipy.linalg.expm`` is not used: at T = 1e4 it is off
by about 1e-6, more than the error this benchmark has to resolve.
"""

from __future__ import annotations

import mpmath
import numpy as np

DPS = 40


def exp_and_integral(a, h):
    """(e^{a h}, int_0^h e^{a u} du) for an mpmath matrix ``a`` and h >= 0."""
    n = a.rows
    h = mpmath.mpf(h)
    squarings = 0
    scaled = mpmath.mnorm(a, 1) * h
    while scaled > 0.5:
        scaled /= 2
        squarings += 1
    step = h / 2**squarings
    x = a * step
    term = mpmath.eye(n)
    e = mpmath.eye(n)
    g = mpmath.eye(n) * step
    tiny = mpmath.mpf(10) ** (-DPS - 5)
    k = 0
    while mpmath.mnorm(term, 1) > tiny:
        k += 1
        term = term * x / k
        e += term
        g += term * (step / (k + 1))
    for _ in range(squarings):
        g = g + e * g
        e = e * e
    return e, g


def schedule_references(segments, times):
    """Phi(t) and (1/t) int_0^t Phi as float64 arrays at each t in ``times``.

    ``segments`` is a list of (a, duration), with ``a = None`` for a
    disconnected segment (zero dynamics).  The state walks forward from one
    sample or segment boundary to the next:
    Phi(t + h) = e^{a h} Phi(t) and int_0^{t+h} Phi = int_0^t Phi + G(h) Phi(t).
    Boundaries are summed in float64, as the schedule grid does, so a sample
    at a boundary lands in the segment that ends there.
    """
    n = next(np.asarray(a).shape[0] for a, _ in segments if a is not None)
    pending = sorted(float(t) for t in times)
    out = {}
    with mpmath.workdps(DPS):
        phi = mpmath.eye(n)
        integral = mpmath.zeros(n)
        now = start = 0.0
        for a, duration in segments:
            mat = None if a is None else mpmath.matrix(np.asarray(a, dtype=float).tolist())
            end = start + duration
            while pending:
                target = pending[0] if pending[0] <= end else end
                h = mpmath.mpf(target) - mpmath.mpf(now)
                e, g = (mpmath.eye(n), mpmath.eye(n) * h) if mat is None else exp_and_integral(mat, h)
                integral = integral + g * phi
                phi = e * phi
                now = target
                if target != pending[0]:
                    break
                pending.pop(0)
                out[target] = (
                    np.array(phi.tolist(), dtype=float),
                    np.array((integral / target).tolist(), dtype=float),
                )
            start = end
    if pending:
        raise ValueError(f"sample times {pending} lie beyond the schedule")
    return [out[float(t)] for t in times]
