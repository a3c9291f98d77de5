"""Commutation structure, the realizability residual and the static plant.

Variables are ordered mode by mode as (q_1, p_1, q_2, p_2, ...), so the
commutation matrix is the block diagonal diag(J, ..., J) with
J = [[0, 1], [-1, 0]].  The convention [q, p] = 2i is fixed throughout
(hbar absorbed); that factor of two is where a = 2 theta r comes from.
A dynamics matrix ``a`` preserves the commutation relations iff
a @ theta + theta @ a.T == 0, in which case it derives from a quadratic
Hamiltonian with symmetric matrix r via a = 2 theta r.  The package forms
that map once, in ``synthesis.assemble_augmented``, and inverts it once, in
``synthesis.AugmentedSystem.r_a``.

Theta is a constant: ``make_theta`` returns one shared structure per size,
whose ``theta`` is built once, on first use, and is read-only, so every
module reads the same array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, marked read-only: an array its owner stores once and shares."""
    matrix.flags.writeable = False
    return matrix


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

    @cached_property
    def theta(self) -> np.ndarray:
        """The commutation matrix diag(J, ..., J), built once and read-only."""
        return _read_only(np.kron(np.eye(self.n_modes), J2))


@cache
def make_theta(n_modes: int) -> CommutationStructure:
    """The one commutation structure for ``n_modes`` modes (two variables per mode)."""
    return CommutationStructure(n=2 * n_modes)


def realizability_residual(a, theta) -> float:
    """Max-norm of a @ theta + theta @ a.T (zero iff commutation-preserving)."""
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if a.shape != theta.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, theta is {theta.shape}")
    # a non-finite ``a`` gives a NaN residual without a warning
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a @ theta + theta @ a.T)))


@dataclass(frozen=True)
class PlantSpec:
    """Static quantum plant whose output c_p = beta.T selects one quadrature per mode.

    ``beta`` is the only input: its shape fixes n_p and m_p = n_p / 2.  It
    must be finite, n_p x (n_p/2) with n_p even, and hold a single non-zero
    2x1 block per column on the mode diagonal, every off-block entry exactly
    zero; this is checked once, on construction, and ``beta`` is stored as a
    read-only copy.  Skew symmetry of J then makes the coupling nilpotent,
    beta.T @ theta_1 @ beta == 0 exactly.  The plant dynamics are zero, so the
    type cannot express a moving plant.
    """

    beta: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable, the stored one is read-only
        beta = _read_only(np.array(self.beta, dtype=float))
        if beta.ndim != 2:
            raise ValueError(f"beta must be a 2-D matrix, got ndim={beta.ndim}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        n_p = beta.shape[0]
        if n_p < 2 or n_p % 2 or beta.shape[1] != n_p // 2:
            raise ValueError(f"beta must be n_p x (n_p/2) with n_p even, got {beta.shape}")
        for i in range(n_p // 2):
            off = beta[:, i].copy()
            off[2 * i : 2 * i + 2] = 0.0
            if np.any(off != 0.0):
                raise ValueError(f"beta column {i} has nonzero entries outside its mode block")
            if not beta[2 * i : 2 * i + 2, i].any():
                raise ValueError(f"beta block {i} is zero: that quadrature would be unobservable")
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


def make_plant(beta) -> PlantSpec:
    """Static plant with output c_p = beta.T (see :class:`PlantSpec`)."""
    return PlantSpec(beta)
