"""The spectral norm, the one the convergence diagnostics take for d(T) and its constant.

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


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (k, rows, cols) stack.

    It is the square root of the top eigenvalue of the Gram matrix.  Two rows
    take the eigenvalue in closed form; one or more than two take a batched
    eigvalsh, whose one-row eigenvalue is the Gram entry itself.
    """
    if stack.shape[1] == 2:
        # top eigenvalue of [[a, b], [b, c]]: both terms are non-negative, so nothing cancels
        first, second = stack[:, 0], stack[:, 1]
        a = np.einsum("kn,kn->k", first, first)
        b = np.einsum("kn,kn->k", first, second)
        c = np.einsum("kn,kn->k", second, second)
        top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    else:
        top = np.linalg.eigvalsh(stack @ stack.transpose(0, 2, 1))[:, -1]
    return np.sqrt(np.maximum(top, 0.0))
