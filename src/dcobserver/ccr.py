"""Commutation structure and the realizability algebra of closed linear quantum systems.

Variables are ordered mode by mode as (q_1, p_1, q_2, p_2, ...), so the
commutation matrix is the block diagonal diag(J, ..., J) with
J = [[0, 1], [-1, 0]].  The convention [q, p] = 2i is fixed throughout
(hbar absorbed); that factor of two is where a = 2 theta r comes from.
A dynamics matrix ``a`` preserves the commutation relations iff
a @ theta + theta @ a.T == 0, in which case it derives from a quadratic
Hamiltonian with symmetric matrix r via a = 2 theta r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _as_matrix(value, name: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if shape is not None and m.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {m.shape}")
    return m


@dataclass(frozen=True)
class CommutationStructure:
    """Skew form of the commutation relations for n/2 oscillator modes."""

    n: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be a positive even integer, got {self.n}")

    @property
    def n_modes(self) -> int:
        return self.n // 2

    @property
    def theta(self) -> np.ndarray:
        """The commutation matrix diag(J, ..., J)."""
        return np.kron(np.eye(self.n_modes), J2)


def make_theta(n_modes: int) -> CommutationStructure:
    """Commutation structure for ``n_modes`` modes (two variables per mode)."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes}")
    return CommutationStructure(n=2 * n_modes)


@dataclass(frozen=True)
class QuantumLinearSystem:
    """Linear dynamics x' = a x with its commutation structure.

    ``r`` is the symmetric Hamiltonian matrix when known; if present,
    a = 2 theta r must hold to tolerance.  ``realizable=True`` asserts that
    the dynamics preserve the commutation relations.
    """

    a: np.ndarray
    ccr: CommutationStructure
    r: np.ndarray | None = None
    realizable: bool = False

    def __post_init__(self):
        a = _as_matrix(self.a, "a", (self.ccr.n, self.ccr.n))
        object.__setattr__(self, "a", a)
        if self.r is not None:
            r = _as_matrix(self.r, "r", (self.ccr.n, self.ccr.n))
            if np.max(np.abs(r - r.T), initial=0.0) > DEFAULT_TOL:
                raise ValueError("r must be symmetric")
            if np.max(np.abs(a - 2.0 * self.ccr.theta @ r)) > DEFAULT_TOL:
                raise ValueError("a and r are inconsistent: a != 2 theta r")
            object.__setattr__(self, "r", r)
        if self.realizable:
            res = realizability_residual(a, self.ccr.theta)
            if res > DEFAULT_TOL:
                raise ValueError(
                    f"system marked realizable but residual is {res:.3e}"
                )


@dataclass(frozen=True)
class RealizabilityReport:
    realizable: bool
    residual: float


def realizability_residual(a, theta) -> float:
    """Max-norm of a @ theta + theta @ a.T (zero iff commutation-preserving)."""
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if a.shape != theta.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, theta is {theta.shape}")
    return float(np.max(np.abs(a @ theta + theta @ a.T)))


def check_realizability(sys: QuantumLinearSystem, tol: float = DEFAULT_TOL) -> RealizabilityReport:
    """Test whether the system preserves the commutation relations."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    res = realizability_residual(sys.a, sys.ccr.theta)
    return RealizabilityReport(realizable=res <= tol, residual=res)


def hamiltonian_from_dynamics(a, ccr: CommutationStructure, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetric Hamiltonian matrix r = (1/4)(-theta a + a.T theta).

    The input must preserve the commutation relations; the round trip
    2 theta r == a then holds.
    """
    a = _as_matrix(a, "a", (ccr.n, ccr.n))
    res = realizability_residual(a, ccr.theta)
    if res > tol:
        raise ValueError(f"dynamics are not physically realizable: residual {res:.3e} > {tol:.1e}")
    theta = ccr.theta
    return 0.25 * (-theta @ a + a.T @ theta)


def dynamics_from_hamiltonian(r, ccr: CommutationStructure, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Dynamics matrix a = 2 theta r generated by a symmetric Hamiltonian."""
    r = _as_matrix(r, "r", (ccr.n, ccr.n))
    asym = float(np.max(np.abs(r - r.T), initial=0.0))
    if asym > tol:
        raise ValueError(f"r is not symmetric: max asymmetry {asym:.3e} > {tol:.1e}")
    return 2.0 * (ccr.theta @ r)


@dataclass(frozen=True)
class BetaReport:
    """Outcome of the block-structure check on a quadrature-selection matrix."""

    n_modes: int
    block_norms: np.ndarray
    skew_residual: float


def validate_beta(beta, ccr_plant: CommutationStructure) -> BetaReport:
    """Check the one-quadrature-per-mode structure of ``beta``.

    ``beta`` must be n_p x (n_p/2) with a single 2x1 block per column placed
    on the mode diagonal; all off-block entries must be exactly zero and no
    block may vanish.  Skew symmetry of J then forces
    beta.T @ theta_1 @ beta == 0, whose max-norm is reported.
    """
    n_p = ccr_plant.n
    beta = _as_matrix(beta, "beta", (n_p, n_p // 2))
    norms = np.zeros(n_p // 2)
    for i in range(n_p // 2):
        block = beta[2 * i : 2 * i + 2, i]
        off = beta[:, i].copy()
        off[2 * i : 2 * i + 2] = 0.0
        if np.any(off != 0.0):
            raise ValueError(f"beta column {i} has nonzero entries outside its mode block")
        norms[i] = np.linalg.norm(block)
        if norms[i] == 0.0:
            raise ValueError(f"beta block {i} is zero: that quadrature would be unobservable")
    skew = float(np.max(np.abs(beta.T @ ccr_plant.theta @ beta)))
    return BetaReport(n_modes=n_p // 2, block_norms=norms, skew_residual=skew)


@dataclass(frozen=True)
class PlantSpec:
    """Static quantum plant whose output c_p = beta.T selects one quadrature per mode.

    ``beta`` is the only input: its shape fixes n_p and m_p = n_p / 2, and it
    is validated by :func:`validate_beta` on construction.  The plant
    dynamics are zero, so the type cannot express a moving plant.
    """

    beta: np.ndarray

    def __post_init__(self):
        beta = _as_matrix(self.beta, "beta")
        n_p = beta.shape[0]
        if n_p < 2 or n_p % 2 or beta.shape[1] != n_p // 2:
            raise ValueError(f"beta must be n_p x (n_p/2) with n_p even, got {beta.shape}")
        validate_beta(beta, make_theta(n_p // 2))
        object.__setattr__(self, "beta", beta)

    @property
    def n_p(self) -> int:
        return self.beta.shape[0]

    @property
    def m_p(self) -> int:
        return self.beta.shape[1]

    @property
    def c_p(self) -> np.ndarray:
        return self.beta.T

    @property
    def ccr(self) -> CommutationStructure:
        return make_theta(self.m_p)


def make_plant(beta) -> PlantSpec:
    """Static plant with output c_p = beta.T (see :class:`PlantSpec`)."""
    return PlantSpec(beta)
