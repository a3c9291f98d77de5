"""Exponential norm bound of the observer flow expm(2 theta_2 r_o t)."""

from __future__ import annotations

import numpy as np

from .linalg import is_positive_definite


def exp_norm_bound(r_o) -> float:
    """sqrt(lambda_max / lambda_min) of a positive definite r_o.

    Conservation of (1/2) x.T r_o x along x' = 2 theta_2 r_o x makes this an
    upper bound for ||expm(2 theta_2 r_o t)|| at every t.
    """
    report = is_positive_definite(np.asarray(r_o, dtype=float))
    if not report.positive_definite:
        raise ValueError(f"r_o is not positive definite (lambda_min = {report.lambda_min:.3e})")
    return float(np.sqrt(report.lambda_max / report.lambda_min))
