"""Analytic coefficient maps for the augmented plant-observer dynamics.

With b = 2 theta_2 r_o and e(t) = expm(b t), the rows of expm(a_a t) split
into a plant block and an observer block:

    x_o(t) = e(t) x_o(0) + (e(t) - I) inv(r_o) alpha beta.T x_p(0)

    x_p(t) = x_p(0)
             - 2 t p inv(r_o) k x_p(0)
             - p (e(t) - I) inv(r_o) theta_2 inv(r_o) k x_p(0)
             - p (e(t) - I) inv(r_o) theta_2 x_o(0)

with p = theta_1 beta alpha.T and k = alpha beta.T.  The linear-in-t term is
the secular drift; it is annihilated by c_p because beta.T theta_1 beta = 0.
These expressions are exact for any symmetric positive definite r_o (the
middle factor inv(r_o) theta_2 inv(r_o) does not commute into a single
inv(r_o)^2 unless r_o commutes with theta_2) and serve as the oracle for the
numerical propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import expm, is_positive_definite
from .synthesis import GAIN_TOL, AugmentedSystem, gain_residual


@dataclass(frozen=True)
class CoefficientMap:
    """Real matrix mapping the initial variables to the time-t variables."""

    t: float
    matrix: np.ndarray


def _pieces(aug: AugmentedSystem):
    plant, obs = aug.plant, aug.observer
    theta_2 = aug.theta_2
    p = aug.theta_1 @ plant.beta @ obs.alpha.T
    k = obs.alpha @ plant.beta.T
    r_inv = np.linalg.inv(obs.r_o)
    b = 2.0 * (theta_2 @ obs.r_o)
    return plant.n_p, obs.n_o, theta_2, p, k, r_inv, b


def observer_block(t: float, aug: AugmentedSystem) -> np.ndarray:
    """Rows of expm(a_a t) that propagate the observer variables."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n_p, n_o, _, _, k, r_inv, b = _pieces(aug)
    e = expm(b * t)
    return np.hstack([(e - np.eye(n_o)) @ r_inv @ k, e])


def plant_block(t: float, aug: AugmentedSystem) -> np.ndarray:
    """Rows of expm(a_a t) that propagate the plant variables.

    Contains the secular term -2 t p inv(r_o) k acting on x_p(0); that term
    is confined to quadratures outside the estimated output.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n_p, n_o, theta_2, p, k, r_inv, b = _pieces(aug)
    e_minus_i = expm(b * t) - np.eye(n_o)
    on_xp = (
        np.eye(n_p)
        - 2.0 * t * (p @ r_inv @ k)
        - p @ e_minus_i @ r_inv @ theta_2 @ r_inv @ k
    )
    on_xo = -(p @ e_minus_i @ r_inv @ theta_2)
    return np.hstack([on_xp, on_xo])


def plant_secular_matrix(aug: AugmentedSystem) -> np.ndarray:
    """Coefficient of t in the plant rows (on the x_p(0) block)."""
    _, _, _, p, k, r_inv, _ = _pieces(aug)
    return -2.0 * (p @ r_inv @ k)


def coefficient_map(t: float, aug: AugmentedSystem) -> CoefficientMap:
    """Full analytic transition matrix, plant rows stacked over observer rows."""
    matrix = np.vstack([plant_block(t, aug), observer_block(t, aug)])
    return CoefficientMap(t=float(t), matrix=matrix)


def output_maps(t: float, aug: AugmentedSystem) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows of the estimated output z_p and the observer output z_o.

    z_p rows are constant equal to [c_p 0]; z_o rows are c_o applied to the
    observer block and their time average tends to [c_p 0].  Requires the
    gain condition to hold.
    """
    obs = aug.observer
    residual = gain_residual(obs)
    if residual > GAIN_TOL:
        raise ValueError(f"observer gain condition violated: residual {residual:.3e}")
    return aug.plant_output, obs.c_o @ observer_block(t, aug)


def exp_norm_bound(r_o) -> float:
    """sqrt(lambda_max / lambda_min) of a positive definite r_o.

    Conservation of (1/2) x.T r_o x along x' = 2 theta_2 r_o x makes this an
    upper bound for ||expm(2 theta_2 r_o t)|| at every t.
    """
    report = is_positive_definite(np.asarray(r_o, dtype=float))
    if not report.positive_definite:
        raise ValueError(f"r_o is not positive definite (lambda_min = {report.lambda_min:.3e})")
    return float(np.sqrt(report.lambda_max / report.lambda_min))
