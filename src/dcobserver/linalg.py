"""Dense numerical kernels shared by the whole package.

The matrix exponential is computed in-repo by scaling and squaring with
diagonal Pade approximants (orders 3/5/7/9/13 selected on the 1-norm, the
standard Higham scheme).  Spectra, extreme symmetric eigenvalues and singular
values go through LAPACK via numpy; everything is deterministic for a fixed
input on a fixed build.

The spectral distance of the augmented dynamics from the imaginary axis is
not computed here: those dynamics carry a defective zero eigenvalue that QR
iteration in double precision resolves only to about sqrt(machine eps) ~= 1e-8,
so ``synthesis.certified_spectrum`` reads it off their block structure instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Diagonal Pade coefficients and 1-norm switch points for the scaling-and-
# squaring matrix exponential (orders 3, 5, 7, 9, 13).
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}

_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068),
    (13, 5.371920351148152),
)

_DEFINITE_THRESHOLD = 1e-12
_SYMMETRY_TOL = 1e-9


def _square(value) -> np.ndarray:
    # messages name no parameter: callers prefix the field at fault
    m = np.asarray(value, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is not square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def _pade_uv(a: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    b = _PADE_B[order]
    ident = np.eye(a.shape[0])
    a2 = a @ a
    if order == 3:
        u = a @ (b[3] * a2 + b[1] * ident)
        v = b[2] * a2 + b[0] * ident
        return u, v
    a4 = a2 @ a2
    if order == 5:
        u = a @ (b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[4] * a4 + b[2] * a2 + b[0] * ident
        return u, v
    a6 = a4 @ a2
    if order == 7:
        u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
        return u, v
    if order == 9:
        a8 = a6 @ a2
        u = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
        return u, v
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    return u, v


def expm(m) -> np.ndarray:
    """Matrix exponential by Pade approximation with scaling and squaring.

    Parameters
    ----------
    m : array_like
        Square real matrix with finite entries.

    Returns
    -------
    numpy.ndarray
        e^m to near machine precision for the moderate norms used here.
    """
    a = _square(m)
    norm1 = float(np.linalg.norm(a, 1)) if a.size else 0.0
    squarings = 0
    order = 13
    for candidate, bound in _PADE_THETA:
        if norm1 <= bound:
            order = candidate
            break
    else:
        squarings = max(0, int(np.ceil(np.log2(norm1 / _PADE_THETA[-1][1]))))
        a = a / (2.0**squarings)
    u, v = _pade_uv(a, order)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum (with multiplicity) and its distance from the imaginary axis."""

    eigenvalues: np.ndarray
    max_abs_real_part: float


def eigenvalues(m) -> SpectrumReport:
    """Spectrum via QR iteration on the real matrix (LAPACK dgeev)."""
    a = _square(m)
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigenvalue iteration did not converge: {exc}") from exc
    w = np.sort(w)
    return SpectrumReport(eigenvalues=w, max_abs_real_part=float(np.max(np.abs(w.real))))


@dataclass(frozen=True)
class DefinitenessReport:
    positive_definite: bool
    lambda_min: float
    lambda_max: float


def is_positive_definite(s) -> DefinitenessReport:
    """Definiteness test plus extreme eigenvalues of ``s``.

    The input must be symmetric to 1e-9 max(1, max |s_ij|).  The symmetrized
    input counts as positive definite when its smallest eigenvalue exceeds
    1e-12 (never looser than a Cholesky factorization with that pivot
    threshold: every pivot is at least lambda_min); lambda_min/lambda_max
    also feed the exponential norm bound.
    """
    a = _square(s)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    if float(np.max(np.abs(a - a.T), initial=0.0)) > _SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return DefinitenessReport(
        positive_definite=bool(w[0] > _DEFINITE_THRESHOLD),
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
    )


def spectral_norm(m) -> float:
    """Largest singular value."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))
