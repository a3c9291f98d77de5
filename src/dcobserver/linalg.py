"""Dense numerical kernels shared by the whole package.

Extreme symmetric eigenvalues and singular values go through LAPACK via
numpy; everything is deterministic for a fixed input on a fixed build.
There is no general eigensolver and no matrix exponential: the spectrum of
the augmented dynamics and every flow the package propagates are read off
their observer structure (``closed_form.certify``).

Those dynamics carry a defective zero eigenvalue that QR iteration in double
precision resolves only to about sqrt(machine eps) ~= 1e-8, which is why
their spectrum is never computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    threshold: every pivot is at least lambda_min).  lambda_min and
    lambda_max are the extreme eigenvalues of that symmetrized input.
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
