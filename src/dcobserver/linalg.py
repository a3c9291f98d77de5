"""The spectral norm, which the convergence diagnostics take.

There is no general eigensolver and no matrix exponential: the spectrum of
the augmented dynamics and every flow the package propagates are read off
their observer structure (``closed_form.certify``), which also judges
whether R' is positive definite.

Those dynamics carry a defective zero eigenvalue that QR iteration in double
precision resolves only to about sqrt(machine eps) ~= 1e-8, which is why
their spectrum is never computed here.
"""

from __future__ import annotations

import numpy as np


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
