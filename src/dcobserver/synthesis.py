"""Construction of direct-coupled observers and the augmented plant-observer system.

Three inputs fix the construction: the plant's quadrature selector beta
(a static plant, c_p = beta.T), a positive definite observer Hamiltonian
block r_o, and either the output matrix c_o or the gain alpha, tied by

    c_o @ inv(r_o) @ alpha == -I.

Everything else is derived from them: the coupling Hamiltonian block
r_c = beta @ alpha.T, the joint dynamics a_a = 2 theta r_a with
r_a = [[0, r_c], [r_c.T, r_o]], and the dimensions.  The plant output rows
then annihilate a_a, so the estimated quadratures stay frozen while the
observer output converges to them in time average.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ccr import (
    PlantSpec,
    _as_float,
    _check_finite,
    _read_only,
    make_theta,
    realizability_residual,
)
from .closed_form import Certificate, certify

GAIN_TOL = 1e-10


def _observer_dimension(r_o: np.ndarray) -> int:
    """n_o of an observer block, which must be square with positive even size."""
    n_o = r_o.shape[0] if r_o.ndim == 2 else 0
    if r_o.shape != (n_o, n_o) or n_o < 2 or n_o % 2:
        raise ValueError(f"r_o: must be square with positive even dimension, got shape {r_o.shape}")
    return n_o


@dataclass(frozen=True)
class ObserverSpec:
    """Observer Hamiltonian block, coupling gain and output matrix.

    n_o and m_p are read from the shapes of r_o and alpha.  The gain condition
    c_o @ inv(r_o) @ alpha == -I is enforced by :func:`synthesize_observer`
    and reported by :func:`verify_observer_conditions`, not checked here, so
    that deliberately broken specs can be constructed in tests; a non-finite
    entry is let through for the verifier to fail.  The three matrices are
    stored as read-only copies; an entry that is no real number is a
    ValueError naming its field (see ``ccr._as_float``).
    """

    r_o: np.ndarray
    alpha: np.ndarray
    c_o: np.ndarray

    def __post_init__(self):
        # copies: the caller's arrays stay writable, the stored ones are read-only
        r_o, alpha, c_o = (
            _read_only(np.array(_as_float(getattr(self, key), key))) for key in ("r_o", "alpha", "c_o")
        )
        n_o = _observer_dimension(r_o)
        if alpha.ndim != 2 or alpha.shape[0] != n_o:
            raise ValueError(f"alpha: must be {n_o} x m_p, got {alpha.shape}")
        if c_o.shape != (alpha.shape[1], n_o):
            raise ValueError(f"c_o: must be {alpha.shape[1]}x{n_o}, got {c_o.shape}")
        object.__setattr__(self, "r_o", r_o)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c_o", c_o)

    @property
    def n_o(self) -> int:
        return self.r_o.shape[0]

    @property
    def m_p(self) -> int:
        return self.alpha.shape[1]


@dataclass(frozen=True)
class AugmentedSystem:
    """Joint plant-observer system with dynamics a_a = 2 theta r_a.

    ``a_a`` is the one stored matrix, a read-only copy, so nothing derived
    from it can go stale; it may hold non-finite entries, which the
    certificate fails, but an entry that is no real number is a ValueError
    naming ``a_a``.  The block Hamiltonian r_a = -theta a_a / 2, the output
    selectors and the certificate of the observer structure, which
    :func:`verify_observer_conditions` reports and whose flow propagation
    takes, are derived from it once per system, on first use; the matrices
    are read-only.
    """

    plant: PlantSpec
    observer: ObserverSpec
    a_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_a", _read_only(np.array(_as_float(self.a_a, "a_a"))))

    @property
    def n(self) -> int:
        return self.plant.n_p + self.observer.n_o

    @property
    def ccr(self) -> np.ndarray:
        """The commutation matrix theta of the joint system: make_theta's shared read-only array."""
        return make_theta(self.n // 2)

    @cached_property
    def r_a(self) -> np.ndarray:
        """Block Hamiltonian of a_a (theta squares to -I, so this inverts a_a = 2 theta r_a)."""
        return _read_only(-0.5 * (self.ccr @ self.a_a))

    @cached_property
    def certificate(self) -> Certificate:
        """closed_form.certify of a_a split at the plant."""
        return certify(self.a_a, self.plant.n_p)

    @cached_property
    def plant_output(self) -> np.ndarray:
        """Row selector [c_p 0] of the estimated plant quadratures."""
        sel = np.zeros((self.plant.m_p, self.n))
        sel[:, : self.plant.n_p] = self.plant.c_p
        return _read_only(sel)

    @cached_property
    def observer_output(self) -> np.ndarray:
        """Row selector [0 c_o] of the observer output variables."""
        sel = np.zeros((self.plant.m_p, self.n))
        sel[:, self.plant.n_p :] = self.observer.c_o
        return _read_only(sel)


def synthesize_observer(plant: PlantSpec, r_o, c_o=None, alpha=None) -> ObserverSpec:
    """The observer of ``plant`` with block ``r_o`` and output ``c_o`` or gain ``alpha``.

    Given ``c_o``, alpha is the minimum-Frobenius-norm solution of
    c_o @ inv(r_o) @ alpha == -I (unique when n_o == m_p, least-norm through
    the pseudoinverse otherwise).  Given ``alpha`` alone, c_o is the
    least-norm solution of the same condition; given both, they are checked
    against each other.  r_o is stored with its symmetric part.

    Raises
    ------
    ValueError
        Whose message starts with the field at fault (``r_o:``, ``c_o:`` or
        ``alpha:``): any of the three has an entry that is no real number
        (a complex, string or None entry, an integer beyond the float range
        or a ragged sequence; see ``ccr._as_float``) or a non-finite entry
        (``<field>: matrix contains non-finite entries``); r_o is not
        square of positive even dimension, is not symmetric to 1e-9 max(1,
        max|r_o|), or its symmetric part has smallest eigenvalue at most
        1e-12 (never looser than a Cholesky factorization with that pivot
        threshold); c_o or alpha has the wrong shape, neither is given, or
        c_o has deficient row rank; or the gain misses the condition beyond
        1e-10.
    """
    r_o = _as_float(r_o, "r_o")
    n_o, m_p = _observer_dimension(r_o), plant.m_p
    _check_finite("r_o", r_o)
    if float(np.max(np.abs(r_o - r_o.T))) > 1e-9 * max(1.0, float(np.max(np.abs(r_o)))):
        raise ValueError("r_o: matrix is not symmetric to tolerance")
    # bitwise-symmetric copy so the block Hamiltonian is exactly symmetric
    r_o = 0.5 * (r_o + r_o.T)
    lambda_min = float(np.linalg.eigvalsh(r_o)[0])
    if not lambda_min > 1e-12:
        raise ValueError(f"r_o: not positive definite (lambda_min = {lambda_min:.3e})")
    if alpha is None:
        if c_o is None:
            raise ValueError("c_o: either c_o or alpha is required")
        c_o = _as_float(c_o, "c_o")
        if c_o.shape != (m_p, n_o):
            raise ValueError(
                f"c_o: must be {m_p}x{n_o} (one output row per estimated quadrature), "
                f"got {c_o.shape}"
            )
        _check_finite("c_o", c_o)
        if np.linalg.matrix_rank(c_o) < m_p:
            raise ValueError("c_o: rank deficient, so the gain condition has no solution")
        alpha = -np.linalg.pinv(c_o @ np.linalg.inv(r_o))
        at_fault = "c_o"
    else:
        alpha = _as_float(alpha, "alpha")
        if alpha.shape != (n_o, m_p):
            raise ValueError(f"alpha: must be n_o x m_p = {(n_o, m_p)}, got {alpha.shape}")
        _check_finite("alpha", alpha)
        if c_o is None:
            c_o = -np.linalg.pinv(np.linalg.solve(r_o, alpha))
        else:
            c_o = _as_float(c_o, "c_o")
            _check_finite("c_o", c_o)
        at_fault = "alpha"
    spec = ObserverSpec(r_o=r_o, alpha=alpha, c_o=c_o)  # checks a given c_o against alpha
    residual = gain_residual(spec)
    if not residual <= GAIN_TOL:
        raise ValueError(
            f"{at_fault}: gain condition residual {residual:.3e} exceeds {GAIN_TOL:.1e}"
        )
    return spec


def gain_residual(obs: ObserverSpec) -> float:
    """max |c_o inv(r_o) alpha + I|: how far ``obs`` misses the gain condition."""
    return float(np.max(np.abs(obs.c_o @ np.linalg.solve(obs.r_o, obs.alpha) + np.eye(obs.m_p))))


def assemble_augmented(plant: PlantSpec, obs: ObserverSpec) -> AugmentedSystem:
    """Stack r_a = [[0, r_c], [r_c.T, r_o]] with r_c = beta @ alpha.T; form a_a = 2 theta r_a.

    A hand-built spec with a non-finite entry assembles without a warning;
    :func:`verify_observer_conditions` then fails it.
    """
    if obs.m_p != plant.m_p:
        raise ValueError(
            f"observer gain is sized for {obs.m_p} outputs, plant has {plant.m_p}"
        )
    r_c = plant.beta @ obs.alpha.T
    n = plant.n_p + obs.n_o
    r_a = np.zeros((n, n))
    r_a[: plant.n_p, plant.n_p :] = r_c
    r_a[plant.n_p :, : plant.n_p] = r_c.T
    r_a[plant.n_p :, plant.n_p :] = obs.r_o
    with np.errstate(invalid="ignore"):  # 0 * inf in a non-finite r_a reads NaN
        a_a = 2.0 * (make_theta(n // 2) @ r_a)
    return AugmentedSystem(plant=plant, observer=obs, a_a=a_a)


@dataclass(frozen=True)
class ObserverConditionsReport:
    """Residuals of every hypothesis behind the time-average convergence result.

    ``spectrum`` is the spectrum of a_a read off its certificate, and
    ``spectrum_max_abs_real`` the residual of the block structure that
    certifies it (the spectrum itself lies on the imaginary axis).  A failed
    certificate, which gives no flow, certifies nothing: the residual is inf
    and the spectrum NaN.  ``r_o_lambda_min`` is the certificate's smallest
    eigenvalue of R', the observer block that a_a propagates: for an
    assembled system, r_o bit for bit.
    """

    r_o_lambda_min: float
    gain_residual: float
    output_annihilation_residual: float
    realizability_residual: float
    spectrum_max_abs_real: float
    spectrum: np.ndarray

    def passes(self, tol: float = 1e-8) -> bool:
        return (
            self.r_o_lambda_min > 0.0
            and self.gain_residual <= tol
            and self.output_annihilation_residual <= tol
            and self.realizability_residual <= tol
            and self.spectrum_max_abs_real <= tol
        )


def verify_observer_conditions(aug: AugmentedSystem) -> ObserverConditionsReport:
    """Diagnostic sweep over all observer hypotheses; never raises.

    The spectrum of a_a is read off ``aug.certificate``, never from QR on
    a_a, whose defective zero eigenvalue double precision locates only to
    about 1e-8.  By the Schur complement, P = 0 and C B = 0 give
    spec(a_a) = {0}^n_p + spec(D) exactly, and D is similar to the skew
    matrix S of the certificate, whose eigenvalues i * eigh(i S) lie on the
    imaginary axis.  The imaginary-axis residual is the structure residual
    max(|P|, |C B|, |R' - R'.T|) of a certificate that gives a flow.  A
    certificate that gives none (a residual past STRUCTURE_TOL, no positive
    definite R', a non-finite a_a, or a flow whose coefficients overflow the
    float range) makes it inf and the spectrum NaN, so the report fails
    every system that a run refuses.  lambda_min is the certificate's too,
    taken from the symmetric part of R'; an asymmetric R' shows in the
    realizability and spectrum residuals, and a non-finite a_a reads NaN.
    The gain residual is read off the observer spec, so a spec edited after
    assembly shows there and not in lambda_min.
    """
    plant, obs = aug.plant, aug.observer
    with np.errstate(invalid="ignore"):  # 0 * inf in a non-finite a_a reads NaN
        annihilation = float(np.max(np.abs(aug.plant_output @ aug.a_a)))
    realizability = realizability_residual(aug.a_a, aug.ccr)
    certificate = aug.certificate
    if certificate.flow is None:
        spectrum, real_part = np.full(aug.n, np.nan, dtype=complex), np.inf
    else:
        # purely imaginary by construction: no -0.0 real parts from 1j * w
        reduced = np.zeros(aug.observer.n_o, dtype=complex)
        reduced.imag = certificate.frequencies
        spectrum = np.sort(np.concatenate([np.zeros(plant.n_p, dtype=complex), reduced]))
        real_part = certificate.residual
    return ObserverConditionsReport(
        r_o_lambda_min=certificate.lambda_min,
        gain_residual=gain_residual(obs),
        output_annihilation_residual=annihilation,
        realizability_residual=realizability,
        spectrum_max_abs_real=real_part,
        spectrum=spectrum,
    )
