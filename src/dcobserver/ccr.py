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

Theta is a constant: ``make_theta`` returns it as one shared array per size,
built once, on first use, and read-only, so every module reads the same
array.

``_as_float`` is the one intake of the package: every public call that takes
a matrix or a time converts it there, and ``_check_finite`` is the one test
of the inputs that must be finite.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _as_float(value, field: str) -> np.ndarray:
    """``value`` as a float array, converted as np.asarray(value, dtype=float) converts it.

    Real input (bool, integer and float arrays, and entries that are
    numbers.Real) converts unchanged, so a float64 array comes back as it is,
    not copied.  Anything else is a ValueError starting with ``field:``: a
    ragged sequence, a complex, string or None entry (numpy would drop an
    imaginary part with a warning and parse a numeric string) and an integer
    beyond the float range.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged sequence
        raise ValueError(f"{field}: not a rectangular array ({exc})") from None
    kind = array.dtype.kind
    if kind not in "biufO":  # complex or string entries, which numpy would cast
        raise ValueError(f"{field}: expected real numbers, got {array.dtype} entries")
    if kind == "O":  # Python objects: integers past the int64 range, None, mixed types
        for x in array.flat:
            if not isinstance(x, numbers.Real):
                raise ValueError(f"{field}: expected real numbers, got the entry {x!r}")
    try:
        return np.asarray(array, dtype=float)
    except OverflowError:  # a Python integer past the float range
        raise ValueError(f"{field}: got an integer beyond the float range") from None


def _check_finite(field: str, matrix: np.ndarray) -> None:
    """A ValueError naming ``field`` unless every entry of ``matrix`` is finite."""
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{field}: matrix contains non-finite entries")


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, marked read-only: an array its owner stores once and shares."""
    matrix.flags.writeable = False
    return matrix


@cache
def make_theta(n_modes: int) -> np.ndarray:
    """The commutation matrix diag(J, ..., J) of ``n_modes`` modes, one read-only array per size."""
    if not isinstance(n_modes, numbers.Integral) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    return _read_only(np.kron(np.eye(n_modes), J2))


def realizability_residual(a, theta) -> float:
    """Max-norm of a @ theta + theta @ a.T (zero iff commutation-preserving)."""
    a, theta = _as_float(a, "a"), _as_float(theta, "theta")
    if a.shape != theta.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, theta is {theta.shape}")
    # a non-finite ``a`` gives a NaN residual without a warning
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a @ theta + theta @ a.T)))


@dataclass(frozen=True)
class PlantSpec:
    """Static quantum plant whose output c_p = beta.T selects one quadrature per mode.

    ``beta`` is the only input: its shape fixes n_p and m_p = n_p / 2.  It
    must be real and finite, n_p x (n_p/2) with n_p even, and hold a single
    non-zero 2x1 block per column on the mode diagonal, every off-block entry
    exactly zero; this is checked once, on construction, and ``beta`` is
    stored as a read-only copy.  Skew symmetry of J then makes the coupling
    nilpotent, beta.T @ theta_1 @ beta == 0 exactly.  The plant dynamics are
    zero, so the type cannot express a moving plant.

    Raises
    ------
    ValueError
        Whose message starts with ``beta:``: an entry that is no real number
        (see ``_as_float``) or not finite, a shape other than n_p x (n_p/2)
        with n_p even, an entry outside the mode blocks or a zero block.
    """

    beta: np.ndarray

    def __post_init__(self):
        # a copy: the caller's array stays writable, the stored one is read-only
        beta = _read_only(np.array(_as_float(self.beta, "beta")))
        if beta.ndim != 2:
            raise ValueError(f"beta: must be a 2-D matrix, got ndim={beta.ndim}")
        _check_finite("beta", beta)
        n_p = beta.shape[0]
        if n_p < 2 or n_p % 2 or beta.shape[1] != n_p // 2:
            raise ValueError(f"beta: must be n_p x (n_p/2) with n_p even, got {beta.shape}")
        for i in range(n_p // 2):
            off = beta[:, i].copy()
            off[2 * i : 2 * i + 2] = 0.0
            if np.any(off != 0.0):
                raise ValueError(f"beta: column {i} has nonzero entries outside its mode block")
            if not beta[2 * i : 2 * i + 2, i].any():
                raise ValueError(f"beta: block {i} is zero: that quadrature would be unobservable")
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
