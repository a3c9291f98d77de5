"""The observer structure of a dynamics matrix, and the flow it gives in closed form.

A dynamics matrix a = [[P, B], [C, D]] split at a plant size n_p has the
observer structure when P = 0, C B = 0 and D = 2 theta_2 R' with R' symmetric
positive definite.  Then C x_p is constant and, exactly,

    exp(a t) = I - L R + t F_1 + L exp(D t) R,

with L = [B inv(D); I], R = [inv(D) C, I] and F_1 zero except for
-B inv(D) C in its plant block.  D is similar to the skew matrix
S = 2 R'^(1/2) theta_2 R'^(1/2) (Williamson), and i S is Hermitian with
eigenvalues +-w_j, so exp(a t) is a fixed real combination of the basis
{1, t, cos w_j t, sin w_j t}: one matrix product evaluates it at every t of
a run, from the basis laid out frequency-major (one contiguous row per basis
function), and the same coefficients on the integrated basis give
int_0^t exp(a u) du.

``certify`` is the one place that judges the structure: it returns the
residuals, the frequencies and, when the structure holds, the flow and R.
The verifier reads the spectrum off it, propagation takes its flow, and the
convergence diagnostics take their constant from its R and lambda_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccr import _as_float, make_theta

# relative bound on the structure residual of a dynamics matrix whose flow is
# taken in closed form: |P|, |R' - R'.T| <= tol max|a| and |C B| <= tol max|a|^2
STRUCTURE_TOL = 1e-12


@dataclass(frozen=True)
class Flow:
    """A flow Phi(t) = sum_k basis_k(t) coef[k] on the basis {1, t, cos w_j t, sin w_j t}.

    ``coef`` stacks one matrix per basis function, in the order 1, t, the
    cosines, the sines; ``omega`` holds the frequencies w_j.  A run of times
    is evaluated frequency-major: one C-contiguous (m, rows) basis, m = 2 + 2p
    for p frequencies, whose cosine and sine rows each ufunc writes as one
    contiguous block, and one product of its transpose (a view, which numpy
    hands to BLAS as a transposed operand) with the (m, n^2) coefficients.
    Every basis value is the same floating-point expression as in a
    time-major (rows, m) basis, and every output entry the same dot product
    over m terms, so the maps have the bits of the time-major product; the
    tests check that under each OpenBLAS kernel they run with.
    """

    omega: np.ndarray
    coef: np.ndarray

    def _scratch_size(self, rows: int) -> int:
        """Floats of a scratch ``_evaluate`` fills for up to ``rows`` times: the basis and the half angles."""
        return (2 + 3 * len(self.omega)) * rows

    def _basis(self, t: np.ndarray, integrated: bool, scratch: np.ndarray) -> np.ndarray:
        """The (m, rows) basis at ``t``, or with ``integrated`` its integral from 0, in ``scratch``.

        Rows 1, t, cos(w t), sin(w t), or t, t^2 / 2, sin(w t) / w and
        (1 - cos(w t)) / w, where 1 - cos(w t) is evaluated as (2 h) h with
        h = sin(w t / 2), which does not cancel.  The basis and h are views of
        ``scratch``, which holds ``_scratch_size(rows)`` floats or more.
        """
        p, rows = len(self.omega), len(t)
        basis = scratch[: (2 + 2 * p) * rows].reshape(2 + 2 * p, rows)
        half = scratch[(2 + 2 * p) * rows : (2 + 3 * p) * rows].reshape(p, rows)
        of_cos, of_sin = basis[2 : 2 + p], basis[2 + p :]
        wt = np.multiply.outer(self.omega, t, out=of_sin)
        if not integrated:
            basis[0], basis[1] = 1.0, t
            np.cos(wt, out=of_cos)
            np.sin(wt, out=of_sin)
            return basis
        basis[0] = t
        np.multiply(0.5, t, out=basis[1])
        basis[1] *= t
        np.multiply(0.5, wt, out=half)
        np.sin(half, out=half)
        np.sin(wt, out=of_cos)
        # (2 h) h, not 2 (h h), which rounds apart where h h is subnormal
        np.multiply(2.0, half, out=of_sin)
        of_sin *= half
        trig = basis[2:].reshape(2, p, rows)
        np.divide(trig, self.omega[:, None], out=trig)
        return basis

    def _evaluate(self, t: np.ndarray, integrated: bool, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The maps, or with ``integrated`` the integrals, at the float64 times ``t``, written into ``out``.

        ``out`` is C-contiguous with one matrix per time, and the basis goes
        into ``scratch`` (see ``_basis``), so a run allocates no array of its
        own.
        """
        basis = self._basis(t, integrated, scratch)
        coef = self.coef.reshape(len(self.coef), -1)
        np.matmul(basis.T, coef, out=out.reshape(len(t), coef.shape[1]))
        return out

    def _new(self, t, integrated: bool) -> np.ndarray:
        """``_evaluate`` at ``t``, taken through the intake (``ccr._as_float``), into new arrays."""
        t = _as_float(t, "t")
        out = np.empty((len(t),) + self.coef.shape[1:])
        return self._evaluate(t, integrated, out, np.empty(self._scratch_size(len(t))))

    def maps(self, t) -> np.ndarray:
        """The flow at every time of ``t``, one new matrix per time."""
        return self._new(t, False)

    def integrals(self, t) -> np.ndarray:
        """int_0^t of the flow at every t >= 0, from the integrated basis, one new matrix per time."""
        return self._new(t, True)


@dataclass(frozen=True)
class Certificate:
    """How far ``a`` split at a plant size misses the observer structure, and its flow.

    ``plant``, ``coupling`` and ``asymmetry`` are max|P|, max|C B| and
    max|R' - R'.T| with R' = -theta_2 D / 2; ``scale`` is max|a|, and
    ``lambda_min`` and ``lambda_max`` are the extreme eigenvalues of R'
    (symmetrized), NaN for a non-finite ``a``.  When lambda_min is positive,
    ``frequencies`` is ``eigh`` of i S, ascending in +- pairs.  ``flow`` is
    exp(a t) in closed form when every residual is within STRUCTURE_TOL;
    otherwise it is None and ``message`` names the first failed block.  A
    flow whose coefficients overflow the float range certifies nothing:
    ``flow`` and ``frequencies`` are None and ``message`` says so.  ``right``
    is the flow's right factor R = [inv(D) C, I], None without a flow.
    """

    plant: float
    coupling: float
    asymmetry: float
    scale: float
    lambda_min: float
    lambda_max: float
    frequencies: np.ndarray | None
    flow: Flow | None
    message: str | None
    right: np.ndarray | None = None

    @property
    def residual(self) -> float:
        """max(|P|, |C B|, |R' - R'.T|): zero for the exact observer structure."""
        return max(self.plant, self.coupling, self.asymmetry)

    @property
    def norm_bound(self) -> float:
        """sqrt(lambda_max / lambda_min), NaN unless R' is positive definite.

        Conservation of (1/2) x.T R' x along x' = D x = 2 theta_2 R' x makes
        this an upper bound for ||exp(D t)|| at every t.
        """
        if not self.lambda_min > 0.0:
            return np.nan
        return float(np.sqrt(self.lambda_max / self.lambda_min))

    def checked_flow(self) -> Flow:
        """``flow``, or a ValueError carrying ``message`` when the certificate fails."""
        if self.flow is None:
            raise ValueError(self.message)
        return self.flow


def certify(a, n_p: int) -> Certificate:
    """The certificate of ``a`` split at ``n_p``, whose observer block has even size.

    ``a`` goes through the intake (``ccr._as_float``), whose ValueError
    starts with ``a:``; the call never raises on a float array.
    A non-finite ``a`` fails before any eigensolver runs.  Otherwise the
    checks run in order: R' positive definite (with its extreme
    eigenvalues), then max|P| and max|R' - R'.T| against STRUCTURE_TOL max|a|
    and max|C B| against STRUCTURE_TOL max|a|^2, each failure with its value
    and bound, then the flow's coefficients, which must be finite.
    """
    a = _as_float(a, "a")
    n = a.shape[0]
    b, c, d = a[:n_p, n_p:], a[n_p:, :n_p], a[n_p:, n_p:]
    n_o = n - n_p
    theta_2 = make_theta(n_o // 2)
    # a non-finite ``a`` gives NaN residuals (inf - inf, 0 * inf) without a warning
    with np.errstate(invalid="ignore"):
        r = -0.5 * (theta_2 @ d)
        residuals = (
            float(np.max(np.abs(a[:n_p, :n_p]), initial=0.0)),
            float(np.max(np.abs(c @ b))),
            float(np.max(np.abs(r - r.T))),
            float(np.max(np.abs(a))),
        )
    if not np.all(np.isfinite(a)):
        return Certificate(*residuals, np.nan, np.nan, None, None, "dynamics contain non-finite entries")
    w, v = np.linalg.eigh(0.5 * (r + r.T))
    lambda_min, lambda_max = float(w[0]), float(w[-1])
    if not lambda_min > 0.0:
        message = f"R' is not positive definite (lambda_min = {lambda_min:.3e})"
        return Certificate(*residuals, lambda_min, lambda_max, None, None, message)
    half = (v * np.sqrt(w)) @ v.T
    x = half @ theta_2 @ half
    frequencies, vectors = np.linalg.eigh(1j * (x - x.T))
    plant, coupling, asymmetry, scale = residuals
    tol = STRUCTURE_TOL * scale
    for name, value, bound in (
        ("max|P|", plant, tol),
        ("max|R' - R'.T|", asymmetry, tol),
        ("max|C B|", coupling, tol * scale),
    ):
        if not value <= bound:
            message = f"{name} = {value:.3e} exceeds {bound:.3e}"
            return Certificate(*residuals, lambda_min, lambda_max, frequencies, None, message)
    eye_o = np.eye(n_o)
    # a coefficient past the float range overflows to inf or NaN: checked below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        left = np.vstack([np.linalg.solve(d.T, b.T).T, eye_o])  # L = [B inv(D); I]
        right = np.hstack([np.linalg.solve(d, c), eye_o])  # R = [inv(D) C, I]
        secular = np.zeros((n, n))
        secular[:n_p, :n_p] = -(left[:n_p] @ c)
        # exp(S t) = sum over w_j > 0 of 2 Re(u_j u_j^* e^{-i w_j t}), u_j of eigh(i S)
        pos = vectors[:, n_o // 2 :]
        p = left @ (np.linalg.inv(half) @ pos)
        q = (pos.conj().T @ half) @ right
        outer = 2.0 * (p.T[:, :, None] * q[:, None, :])
        coef = np.concatenate([[np.eye(n) - left @ right, secular], outer.real, outer.imag])
    if not np.all(np.isfinite(coef)):
        message = f"flow coefficients overflow the float range (max|a| = {scale:.3e})"
        return Certificate(*residuals, lambda_min, lambda_max, None, None, message)
    flow = Flow(omega=frequencies[n_o // 2 :], coef=coef)
    return Certificate(*residuals, lambda_min, lambda_max, frequencies, flow, None, right)


def observer_flow(a) -> Flow:
    """exp(a t) in closed form: the flow of :func:`certify`.

    The plant size n_p is the largest even k with a[:k, :k] == 0 exactly; an
    all-zero ``a`` is the identity flow.  For an assembled a_a, n_p is the
    plant: the leading 2 x 2 block of D is 2 J R'[:2, :2], which is non-zero.
    An odd observer block, or a failed certificate, raises a ValueError
    naming the block at fault, and ``a`` goes through the intake, as in
    :func:`certify`.
    """
    a = _as_float(a, "a")
    n = a.shape[0]
    if not a.any():
        return Flow(omega=np.zeros(0), coef=np.stack([np.eye(n), np.zeros((n, n))]))
    n_p = max(k for k in range(0, n + 1, 2) if not a[:k, :k].any())
    if (n - n_p) % 2:
        raise ValueError(f"observer block a[{n_p}:, {n_p}:] has odd size {n - n_p}")
    return certify(a, n_p).checked_flow()
