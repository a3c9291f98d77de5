"""The spectral norm, the one the convergence diagnostics take for d(T) and its constant.

``spectral_norms`` returns new arrays; its buffer form ``_spectral_norms``,
with the same bits, is what each diagnosis run takes, on the calling thread
or on simulation._each_run's one helper thread, and allocates no array of its
own but the eigenvalues of more than two rows.  Its two-row closed form goes
through np.einsum, which holds the GIL, so two threads take it no faster
than one.

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
    take the eigenvalue in closed form, one row the Gram entry itself (what
    eigvalsh returns for a 1 x 1 matrix) and more than two a batched
    eigvalsh.
    """
    k, rows = stack.shape[:2]
    return _spectral_norms(stack, np.empty(k), np.empty(k * max(3, rows * rows)))


def _spectral_norms(stack: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """spectral_norms of a stack into ``out``, k contiguous floats, its temporaries in ``scratch``.

    ``scratch`` holds k max(3, rows^2) floats or more: the closed form's
    three Gram entries a matrix for two rows, nothing for one row, whose
    Gram entry one matmul writes into ``out``, and the Gram matrices for
    more than two, whose batched eigvalsh allocates the eigenvalues, the one
    array allocated here.
    """
    k, rows = stack.shape[:2]
    if rows == 2:
        # top eigenvalue of [[a, b], [b, c]]: both terms are non-negative, so nothing cancels
        first, second = stack[:, 0], stack[:, 1]
        a, b, c = scratch[: 3 * k].reshape(3, k)
        np.einsum("kn,kn->k", first, first, out=a)
        np.einsum("kn,kn->k", first, second, out=b)
        np.einsum("kn,kn->k", second, second, out=c)
        np.add(a, c, out=out)
        np.multiply(0.5, out, out=out)
        np.subtract(a, c, out=a)
        np.multiply(0.5, a, out=a)
        np.hypot(a, b, out=a)
        np.add(out, a, out=out)
    elif rows == 1:
        np.matmul(stack, stack.transpose(0, 2, 1), out=out.reshape(k, 1, 1))
    else:
        gram = scratch[: k * rows * rows].reshape(k, rows, rows)
        np.matmul(stack, stack.transpose(0, 2, 1), out=gram)
        out[:] = np.linalg.eigvalsh(gram)[:, -1]
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)
