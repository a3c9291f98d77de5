"""Construction of direct-coupled observers and the augmented plant-observer system.

For a static plant (a_p = 0) whose output selects one quadrature per mode
(c_p = beta.T), an observer is fixed by a positive definite Hamiltonian block
r_o, an output matrix c_o and a gain alpha satisfying

    c_o @ inv(r_o) @ alpha == -I.

The coupling Hamiltonian block is r_c = beta @ alpha.T, and the joint system
evolves under a_a = 2 theta r_a with r_a = [[0, r_c], [r_c.T, r_o]].  The
plant output rows then annihilate a_a, so the estimated quadratures stay
frozen while the observer output converges to them in time average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccr import (
    CommutationStructure,
    PlantSpec,
    make_theta,
    realizability_residual,
    validate_beta,
)
from .linalg import SpectrumReport, eigenvalues, is_positive_definite

GAIN_TOL = 1e-10


@dataclass(frozen=True)
class ObserverSpec:
    """Observer Hamiltonian block, coupling gain and output matrix.

    ``r_c = beta @ alpha.T`` is stored as built by the synthesis; the gain
    condition c_o @ inv(r_o) @ alpha == -I is checked by
    :func:`verify_observer_conditions`, not here, so that deliberately broken
    specs can be constructed in tests.
    """

    n_o: int
    r_o: np.ndarray
    alpha: np.ndarray
    c_o: np.ndarray
    r_c: np.ndarray

    def __post_init__(self):
        if self.n_o < 2 or self.n_o % 2:
            raise ValueError(f"n_o must be a positive even integer, got {self.n_o}")
        r_o = np.asarray(self.r_o, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        c_o = np.asarray(self.c_o, dtype=float)
        r_c = np.asarray(self.r_c, dtype=float)
        if r_o.shape != (self.n_o, self.n_o):
            raise ValueError(f"r_o must be {self.n_o}x{self.n_o}, got {r_o.shape}")
        m_p = alpha.shape[1] if alpha.ndim == 2 else -1
        if alpha.ndim != 2 or alpha.shape[0] != self.n_o:
            raise ValueError(f"alpha must be {self.n_o} x m_p, got {alpha.shape}")
        if c_o.shape != (m_p, self.n_o):
            raise ValueError(f"c_o must be {m_p}x{self.n_o}, got {c_o.shape}")
        if r_c.shape != (2 * m_p, self.n_o):
            raise ValueError(f"r_c must be {2 * m_p}x{self.n_o}, got {r_c.shape}")
        object.__setattr__(self, "r_o", r_o)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c_o", c_o)
        object.__setattr__(self, "r_c", r_c)

    @property
    def m_p(self) -> int:
        return self.alpha.shape[1]


@dataclass(frozen=True)
class AugmentedSystem:
    """Joint plant-observer system: block Hamiltonian r_a and dynamics a_a = 2 theta r_a."""

    plant: PlantSpec
    observer: ObserverSpec
    r_a: np.ndarray
    a_a: np.ndarray
    ccr: CommutationStructure

    @property
    def n(self) -> int:
        return self.plant.n_p + self.observer.n_o

    @property
    def theta_1(self) -> np.ndarray:
        return self.ccr.theta[: self.plant.n_p, : self.plant.n_p]

    @property
    def theta_2(self) -> np.ndarray:
        return self.ccr.theta[self.plant.n_p :, self.plant.n_p :]

    @property
    def plant_output(self) -> np.ndarray:
        """Row selector [c_p 0] of the estimated plant quadratures."""
        sel = np.zeros((self.plant.m_p, self.n))
        sel[:, : self.plant.n_p] = self.plant.c_p
        return sel

    @property
    def observer_output(self) -> np.ndarray:
        """Row selector [0 c_o] of the observer output variables."""
        sel = np.zeros((self.plant.m_p, self.n))
        sel[:, self.plant.n_p :] = self.observer.c_o
        return sel


def synthesize_observer(plant: PlantSpec, r_o, c_o) -> ObserverSpec:
    """Solve the gain condition for alpha and assemble the coupling block.

    alpha is the minimum-Frobenius-norm solution of
    c_o @ inv(r_o) @ alpha == -I (unique when n_o == n_p, least-norm through
    the pseudoinverse otherwise).

    Raises
    ------
    ValueError
        If the plant has nonzero dynamics, r_o is not symmetric positive
        definite, c_o has the wrong shape or deficient row rank, or the
        solved gain misses the condition beyond 1e-10.
    """
    r_o = np.asarray(r_o, dtype=float)
    c_o = np.asarray(c_o, dtype=float)
    if np.any(plant.a_p != 0.0):
        raise ValueError(
            "plant dynamics matrix must be zero: the direct-coupling construction "
            "assumes a static plant"
        )
    m_p = plant.m_p
    if r_o.ndim != 2 or r_o.shape[0] != r_o.shape[1]:
        raise ValueError(f"r_o must be square, got shape {r_o.shape}")
    n_o = r_o.shape[0]
    if n_o < 2 or n_o % 2:
        raise ValueError(f"observer dimension must be a positive even integer, got {n_o}")
    if c_o.shape != (m_p, n_o):
        raise ValueError(
            f"c_o must be {m_p}x{n_o} (one output row per estimated quadrature), "
            f"got {c_o.shape}"
        )
    definiteness = is_positive_definite(r_o)
    if not definiteness.positive_definite:
        raise ValueError(
            f"r_o is not positive definite (lambda_min = {definiteness.lambda_min:.3e})"
        )
    if np.linalg.matrix_rank(c_o) < m_p:
        raise ValueError("c_o is rank deficient: the gain condition has no solution")
    # bitwise-symmetric copy so the block Hamiltonian is exactly symmetric
    r_o = 0.5 * (r_o + r_o.T)
    gain_map = c_o @ np.linalg.inv(r_o)
    alpha = -np.linalg.pinv(gain_map)
    spec = ObserverSpec(n_o=n_o, r_o=r_o, alpha=alpha, c_o=c_o, r_c=plant.beta @ alpha.T)
    residual = gain_residual(spec)
    if residual > GAIN_TOL:
        raise ValueError(f"gain condition residual {residual:.3e} exceeds {GAIN_TOL:.1e}")
    return spec


def gain_residual(obs: ObserverSpec) -> float:
    """max |c_o inv(r_o) alpha + I|: how far ``obs`` misses the gain condition."""
    return float(np.max(np.abs(obs.c_o @ np.linalg.solve(obs.r_o, obs.alpha) + np.eye(obs.m_p))))


def assemble_augmented(plant: PlantSpec, obs: ObserverSpec) -> AugmentedSystem:
    """Stack r_a = [[0, r_c], [r_c.T, r_o]] and form a_a = 2 theta r_a."""
    if obs.m_p != plant.m_p:
        raise ValueError(
            f"observer gain is sized for {obs.m_p} outputs, plant has {plant.m_p}"
        )
    if obs.r_c.shape != (plant.n_p, obs.n_o):
        raise ValueError(f"r_c must be {plant.n_p}x{obs.n_o}, got {obs.r_c.shape}")
    n = plant.n_p + obs.n_o
    r_a = np.zeros((n, n))
    r_a[: plant.n_p, plant.n_p :] = obs.r_c
    r_a[plant.n_p :, : plant.n_p] = obs.r_c.T
    r_a[plant.n_p :, plant.n_p :] = obs.r_o
    ccr = make_theta(n // 2)
    a_a = 2.0 * (ccr.theta @ r_a)
    return AugmentedSystem(plant=plant, observer=obs, r_a=r_a, a_a=a_a, ccr=ccr)


def certified_spectrum(aug: AugmentedSystem) -> SpectrumReport:
    """Spectrum of a_a certified from its block structure, without QR on a_a.

    Every block is read from ``aug.a_a`` itself: the plant block P, the
    couplings B (plant rows) and C (observer rows) and the observer block D.
    By the Schur complement,

        det(l I - a_a) = det(l I - P) det(l I - D - C (l I - P)^-1 B),

    so P = 0 and C B = 0 give spec(a_a) = {0}^n_p + spec(D) exactly; the
    defective zero never meets an eigenvalue solver.  D = 2 theta_2 R' with
    R' = -theta_2 D / 2, and for positive definite R' the matrix D is similar
    to the skew matrix 2 R'^(1/2) theta_2 R'^(1/2) (Williamson), whose
    eigenvalues i * eigvalsh(i S) lie on the imaginary axis.  Otherwise the
    spectrum of D comes from LAPACK on the n_o block.

    ``max_abs_real_part`` is the largest of the structure residual
    max(|P|, |C B|), the asymmetry of R' and the largest |real part| of the
    spectrum of D, so a broken structure is never certified.
    """
    n_p = aug.plant.n_p
    a = aug.a_a
    b, c, d = a[:n_p, n_p:], a[n_p:, :n_p], a[n_p:, n_p:]
    structure = max(float(np.max(np.abs(a[:n_p, :n_p]))), float(np.max(np.abs(c @ b))))
    r = -0.5 * (aug.theta_2 @ d)
    asymmetry = float(np.max(np.abs(r - r.T)))
    w, v = np.linalg.eigh(0.5 * (r + r.T))
    if w[0] > 0.0:
        half = (v * np.sqrt(w)) @ v.T
        x = half @ aug.theta_2 @ half
        reduced = 1j * np.linalg.eigvalsh(1j * (x - x.T))
        real_part = 0.0
    else:
        report = eigenvalues(d)
        reduced, real_part = report.eigenvalues, report.max_abs_real_part
    return SpectrumReport(
        eigenvalues=np.sort(np.concatenate([np.zeros(n_p, dtype=complex), reduced])),
        max_abs_real_part=max(structure, asymmetry, real_part),
    )


@dataclass(frozen=True)
class ObserverConditionsReport:
    """Residuals of every hypothesis behind the time-average convergence result.

    ``spectrum_max_abs_real`` is the ``max_abs_real_part`` of
    :func:`certified_spectrum`: the distance of spec(a_a) from the imaginary
    axis, or the residual of the block structure that certifies it, whichever
    is larger.  ``spectrum`` is the LAPACK spectrum of a_a.
    """

    r_o_lambda_min: float
    gain_residual: float
    beta_block_valid: bool
    beta_skew_residual: float
    output_annihilation_residual: float
    realizability_residual: float
    spectrum_max_abs_real: float
    spectrum: np.ndarray

    def passes(self, tol: float = 1e-8) -> bool:
        return (
            self.r_o_lambda_min > 0.0
            and self.beta_block_valid
            and self.gain_residual <= tol
            and self.beta_skew_residual <= tol
            and self.output_annihilation_residual <= tol
            and self.realizability_residual <= tol
            and self.spectrum_max_abs_real <= tol
        )


def verify_observer_conditions(aug: AugmentedSystem) -> ObserverConditionsReport:
    """Diagnostic sweep over all observer hypotheses; never raises.

    The imaginary-axis residual of a_a comes from :func:`certified_spectrum`,
    because the assembled dynamics carry a defective zero eigenvalue that
    double-precision QR only locates to about 1e-8.  An asymmetric r_o is
    reported, not raised: lambda_min is taken from its symmetric part, and the
    asymmetry shows in the realizability and spectrum residuals.
    """
    plant, obs = aug.plant, aug.observer
    definiteness = is_positive_definite(0.5 * (obs.r_o + obs.r_o.T))
    try:
        beta_report = validate_beta(plant.beta, plant.ccr)
        beta_valid = True
        beta_skew = beta_report.skew_residual
    except ValueError:
        beta_valid = False
        beta_skew = float(np.max(np.abs(plant.beta.T @ plant.ccr.theta @ plant.beta)))
    annihilation = float(np.max(np.abs(aug.plant_output @ aug.a_a)))
    realizability = realizability_residual(aug.a_a, aug.ccr.theta)
    spectrum = eigenvalues(aug.a_a)
    return ObserverConditionsReport(
        r_o_lambda_min=definiteness.lambda_min,
        gain_residual=gain_residual(obs),
        beta_block_valid=beta_valid,
        beta_skew_residual=beta_skew,
        output_annihilation_residual=annihilation,
        realizability_residual=realizability,
        spectrum_max_abs_real=certified_spectrum(aug).max_abs_real_part,
        spectrum=spectrum.eigenvalues,
    )
