"""Shared random-instance generators and independent oracles for the test suite.

Instances are scale-normalized: unit beta blocks, r_o spectrum inside
[0.5, 3], and output matrices resampled until the gain map is well
conditioned.  Absolute closed-form/propagator comparisons at 1e-8 are only
meaningful on such instances; arbitrarily ill-scaled couplings push the true
propagator entries to 1e3-1e4 where any double-precision matrix exponential
carries ~1e-6 absolute error.
"""

from __future__ import annotations

from dataclasses import replace

import mpmath
import numpy as np
import scipy.linalg
from scipy.linalg import expm

from dcobserver import (
    assemble_augmented,
    make_plant,
    make_theta,
    synthesize_observer,
    uniform_grid,
)
from dcobserver.linalg import spectral_norms
from dcobserver.simulation import _grid, _step_counts, _sweep

# canonical one-mode example: position-estimating observer, its Hamiltonian
# block, and the conjugate (momentum-estimating) observer used after the swap
A_ONE_MODE = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
        [2.0, 0.0, -2.0, 0.0],
    ]
)
R_ONE_MODE = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
A_SWAPPED = np.array(
    [
        [0.0, 0.0, 0.0, -2.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -2.0, 0.0, 2.0],
        [0.0, 0.0, -2.0, 0.0],
    ]
)


def one_mode_augmented():
    plant = make_plant([[1.0], [0.0]])
    observer = synthesize_observer(plant, np.eye(2), [[1.0, 0.0]])
    return assemble_augmented(plant, observer)


def swapped_augmented():
    plant = make_plant([[0.0], [1.0]])
    observer = synthesize_observer(plant, np.eye(2), [[0.0, 1.0]])
    return assemble_augmented(plant, observer)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 3.0) -> np.ndarray:
    q = random_orthogonal(rng, n)
    m = q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T
    return 0.5 * (m + m.T)


def random_beta(rng: np.random.Generator, n_p: int) -> np.ndarray:
    beta = np.zeros((n_p, n_p // 2))
    for i in range(n_p // 2):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        beta[2 * i : 2 * i + 2, i] = (np.cos(angle), np.sin(angle))
    return beta


def random_output_matrix(
    rng: np.random.Generator, m_p: int, n_o: int, r_o: np.ndarray
) -> np.ndarray:
    # resample until the gain map is far from rank deficiency
    for _ in range(100):
        c_o = rng.normal(size=(m_p, n_o))
        c_o /= np.linalg.norm(c_o, axis=1, keepdims=True)
        gain = c_o @ np.linalg.inv(r_o)
        if np.linalg.svd(gain, compute_uv=False)[-1] >= 0.25:
            return c_o
    raise RuntimeError("could not draw a well-conditioned output matrix")


def random_augmented(rng: np.random.Generator, n_p: int, n_o: int):
    plant = make_plant(random_beta(rng, n_p))
    r_o = random_spd(rng, n_o)
    c_o = random_output_matrix(rng, n_p // 2, n_o, r_o)
    observer = synthesize_observer(plant, r_o, c_o)
    return assemble_augmented(plant, observer)


def random_realizable(rng: np.random.Generator, n_modes: int, scale: float = 1.0):
    """Random commutation-preserving dynamics a = 2 theta r with ||a||_2 = scale.

    Indefinite r gives real eigenvalue pairs +-lambda, so the flow grows
    exponentially; normalizing the norm keeps sampled flows bounded enough
    for absolute conservation checks in double precision.
    """
    theta = make_theta(n_modes)
    g = rng.normal(size=theta.shape)
    r = 0.5 * (g + g.T)
    a = 2.0 * (theta @ r)
    factor = scale / max(1e-12, float(np.linalg.norm(a, 2)))
    return a * factor, theta, r * factor


def exact_propagator_average(a, t_end: float) -> np.ndarray:
    """(1/T) int_0^T expm(a t) dt = inv(a) (expm(a T) - I) / T for nonsingular a.

    Closed-form cross-check for single-segment averages; the augmented
    dynamics themselves are singular, but the observer block 2 theta_2 r_o
    is not.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got shape {a.shape}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if np.linalg.cond(a) > 1e12:
        raise ValueError("dynamics matrix is (numerically) singular; no closed-form average")
    return np.linalg.solve(a, expm(a * t_end) - np.eye(a.shape[0])) / t_end


def derived_matrices(aug) -> dict:
    """The matrices an ``AugmentedSystem`` derives, by the formulas it once rebuilt on every
    access: theta from np.kron, r_a = -theta a_a / 2 and the output selectors [c_p 0]
    and [0 c_o]."""
    theta = np.kron(np.eye(aug.n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    n_p = aug.plant.n_p
    plant_output = np.zeros((aug.plant.m_p, aug.n))
    plant_output[:, :n_p] = aug.plant.c_p
    observer_output = np.zeros((aug.plant.m_p, aug.n))
    observer_output[:, n_p:] = aug.observer.c_o
    return {
        "r_a": -0.5 * (theta @ aug.a_a),
        "plant_output": plant_output,
        "observer_output": observer_output,
    }


def hamiltonian_of(a, theta) -> np.ndarray:
    """Symmetric Hamiltonian matrix r = (1/4)(-theta a + a.T theta) of realizable dynamics.

    Oracle for ``AugmentedSystem.r_a``: it inverts a = 2 theta r through the
    symmetric part, where the library uses -theta a / 2 alone.
    """
    a, theta = np.asarray(a, dtype=float), np.asarray(theta, dtype=float)
    return 0.25 * (-theta @ a + a.T @ theta)


# Closed-form oracle.  With b = 2 theta_2 r_o and e(t) = expm(b t), the rows
# of expm(a_a t) split into a plant block and an observer block:
#
#     x_o(t) = e(t) x_o(0) + (e(t) - I) inv(r_o) alpha beta.T x_p(0)
#
#     x_p(t) = x_p(0)
#              - 2 t p inv(r_o) k x_p(0)
#              - p (e(t) - I) inv(r_o) theta_2 inv(r_o) k x_p(0)
#              - p (e(t) - I) inv(r_o) theta_2 x_o(0)
#
# with p = theta_1 beta alpha.T and k = alpha beta.T.  The linear-in-t term is
# the secular drift; it is annihilated by c_p because beta.T theta_1 beta = 0.
# These expressions are exact for any symmetric positive definite r_o (the
# middle factor inv(r_o) theta_2 inv(r_o) does not commute into a single
# inv(r_o)^2 unless r_o commutes with theta_2).


def theta_1(aug) -> np.ndarray:
    """Plant block of the commutation matrix of ``aug``."""
    return aug.ccr[: aug.plant.n_p, : aug.plant.n_p]


def theta_2(aug) -> np.ndarray:
    """Observer block of the commutation matrix of ``aug``, a view of the shared read-only theta."""
    return aug.ccr[aug.plant.n_p :, aug.plant.n_p :]


def closed_form_pieces(aug):
    """(n_p, n_o, theta_2, p, k, inv(r_o), b) of the closed form of ``aug``."""
    plant, obs = aug.plant, aug.observer
    p = theta_1(aug) @ plant.beta @ obs.alpha.T
    k = obs.alpha @ plant.beta.T
    r_inv = np.linalg.inv(obs.r_o)
    b = 2.0 * (theta_2(aug) @ obs.r_o)
    return plant.n_p, obs.n_o, theta_2(aug), p, k, r_inv, b


def observer_block(t: float, aug) -> np.ndarray:
    """Rows of expm(a_a t) that propagate the observer variables."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n_p, n_o, _, _, k, r_inv, b = closed_form_pieces(aug)
    e = expm(b * t)
    return np.hstack([(e - np.eye(n_o)) @ r_inv @ k, e])


def plant_block(t: float, aug) -> np.ndarray:
    """Rows of expm(a_a t) that propagate the plant variables, secular term included."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n_p, n_o, theta_2, p, k, r_inv, b = closed_form_pieces(aug)
    e_minus_i = expm(b * t) - np.eye(n_o)
    on_xp = (
        np.eye(n_p)
        - 2.0 * t * (p @ r_inv @ k)
        - p @ e_minus_i @ r_inv @ theta_2 @ r_inv @ k
    )
    on_xo = -(p @ e_minus_i @ r_inv @ theta_2)
    return np.hstack([on_xp, on_xo])


def closed_form_map(t: float, aug) -> np.ndarray:
    """expm(a_a t) in closed form: plant rows stacked over observer rows."""
    return np.vstack([plant_block(t, aug), observer_block(t, aug)])


def plant_block_quadrature(t: float, aug, nodes: int = 12) -> np.ndarray:
    """Plant rows of expm(a_a t) evaluated from the integral representation.

        x_p(t) = x_p(0) + 4 p [int_0^t e^{b(t-tau)} tau dtau] theta_2 k x_p(0)
                        + 2 p [int_0^t e^{b(t-tau)} dtau] x_o(0)

    with p = theta_1 beta alpha.T, k = alpha beta.T and b = 2 theta_2 r_o.
    Integrals are done by panelled Gauss-Legendre quadrature with panel
    length tied to ||b||; independent of the expanded closed form.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    plant, obs = aug.plant, aug.observer
    p = theta_1(aug) @ plant.beta @ obs.alpha.T
    k = obs.alpha @ plant.beta.T
    b = 2.0 * (theta_2(aug) @ obs.r_o)
    moment_0 = np.zeros((obs.n_o, obs.n_o))
    moment_1 = np.zeros((obs.n_o, obs.n_o))
    if t > 0:
        panels = max(1, int(np.ceil(t * max(1.0, float(np.linalg.norm(b, 2))) / 1.5)))
        x, w = np.polynomial.legendre.leggauss(nodes)
        edges = np.linspace(0.0, t, panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            for xi, wi in zip(x, w):
                tau = mid + half * xi
                kernel = wi * half * expm(b * (t - tau))
                moment_0 += kernel
                moment_1 += tau * kernel
    on_xp = np.eye(plant.n_p) + 4.0 * (p @ moment_1 @ theta_2(aug) @ k)
    on_xo = 2.0 * (p @ moment_0)
    return np.hstack([on_xp, on_xo])


def van_loan_integral(a, t: float) -> np.ndarray:
    """int_0^t expm(a u) du as the top-right block of expm([[a, I], [0, 0]] t) (Van Loan, 1978).

    Exact for singular ``a`` too; scipy's expm keeps it independent of the library.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = np.eye(n)
    return scipy.linalg.expm(block * t)[:n, n:]


def exact_schedule(phases, times, edges, picks):
    """Phi and int_0^t Phi at times[k] for each k >= 1 in ``picks``, composed segment by segment.

    ``phases`` are (duration, aug or None for a disconnected segment) on the
    grid ``times`` with segment i from edges[i] to edges[i + 1].  Each map is
    closed_form_map of the segment's local time times the map at its start,
    each integral Van Loan's block integral times that map plus the integral
    up to the start.  Oracle for ``swept_schedule`` and ``time_average``.
    """
    n = next(aug.n for _, aug in phases if aug is not None)
    phi, integral = np.eye(n), np.zeros((n, n))
    maps, integrals = {}, {}
    for (_, aug), lo, hi in zip(phases, edges[:-1], edges[1:]):
        for k in sorted({k for k in picks if lo < k <= hi} | {hi}):
            tau = times[k] - times[lo]
            if aug is None:
                maps[k], integrals[k] = phi, integral + tau * phi
            else:
                maps[k] = closed_form_map(tau, aug) @ phi
                integrals[k] = integral + van_loan_integral(aug.a_a, tau) @ phi
        phi, integral = maps[hi], integrals[hi]
    return np.array([maps[k] for k in picks]), np.array([integrals[k] for k in picks])


def exp_norm_bound(r_o) -> float:
    """sqrt(lambda_max / lambda_min) of a positive definite r_o, from eigvalsh.

    Conservation of (1/2) x.T r_o x along x' = 2 theta_2 r_o x makes this an
    upper bound for ||exp(2 theta_2 r_o t)|| at every t.
    """
    w = np.linalg.eigvalsh(np.asarray(r_o, dtype=float))
    if not w[0] > 0.0:
        raise ValueError(f"r_o is not positive definite (lambda_min = {w[0]:.3e})")
    return float(np.sqrt(w[-1] / w[0]))


def eigenvalues_mp(m, dps: int = 40) -> np.ndarray:
    """Sorted spectrum computed by QR iteration in ``dps``-digit arithmetic.

    Oracle for the certified spectrum: double-precision QR perturbs a size-2
    Jordan block by about sqrt(eps), extended precision by about 10^(-dps/2).
    """
    a = np.asarray(m, dtype=float)
    with mpmath.workdps(dps):
        vals = mpmath.eig(mpmath.matrix(a.tolist()), left=False, right=False)
        return np.sort(np.array([complex(z) for z in vals]))


# boundaries of stepwise_schedule match grid points within this
BOUNDARY_TOL = 1e-9


def phase_dynamics(phases) -> list[np.ndarray]:
    """The dynamics of each (duration, aug or None) phase: a_a, or zero while disconnected."""
    n = next(aug.n for _, aug in phases if aug is not None)
    return [np.zeros((n, n)) if aug is None else aug.a_a for _, aug in phases]


def stepwise_schedule(phases, grid) -> np.ndarray:
    """Maps of (duration, aug or None) ``phases`` on any ``grid`` holding their boundaries, a step at a time.

    A propagator independent of the closed form, with scipy's expm: the
    active segment is found by walking the boundaries as time advances, a
    step that crosses a boundary raises, and each (segment, step size)
    exponential is computed once.  Its maps drift by rounding, step by step.
    """
    times = np.asarray(grid, dtype=float)
    dynamics = phase_dynamics(phases)
    n = dynamics[0].shape[0]
    boundaries = np.cumsum([duration for duration, _ in phases])
    maps = np.empty((times.size, n, n))
    maps[0] = np.eye(n)
    seg_i = 0
    step_cache = {}
    for k in range(1, times.size):
        t_prev, t_cur = times[k - 1], times[k]
        while seg_i + 1 < len(phases) and t_prev >= boundaries[seg_i] - BOUNDARY_TOL:
            seg_i += 1
        if t_cur > boundaries[seg_i] + BOUNDARY_TOL:
            raise ValueError(
                f"segment boundary t={boundaries[seg_i]} is not a grid point "
                f"(step [{t_prev}, {t_cur}] straddles it)"
            )
        dt = float(t_cur - t_prev)
        key = (seg_i, dt)
        step = step_cache.get(key)
        if step is None:
            step = expm(dynamics[seg_i] * dt)
            step_cache[key] = step
        maps[k] = step @ maps[k - 1]
    return maps


def swept_schedule(phases, dt: float):
    """Grid, edges, maps, running averages and per-segment residuals of a schedule, from a run's pass.

    ``phases`` are (duration, aug or None for a disconnected segment) pairs,
    as a scenario plans them.  ``simulation._grid`` lays the grid and
    ``simulation._sweep`` walks it with the planned systems, averaging every
    row; each run's block and averages are copied into whole arrays.
    ``residuals[i]`` holds segment i's worst CCR residual, energy residual
    and held-row deviation, the last two from its start map.
    """
    durations, systems = zip(*phases)
    times, edges = _grid(durations, dt)
    n = next(aug.n for aug in systems if aug is not None)
    maps = np.empty((times.size, n, n))
    maps[0] = np.eye(n)
    averages = np.empty_like(maps[1:])
    residuals = np.zeros((len(phases), 3))
    for i, rows, _, block, run_averages, worst in _sweep(systems, times, edges, times.size):
        maps[rows] = block
        averages[rows.start - 1 : rows.stop - 1] = run_averages
        residuals[i] = np.maximum(residuals[i], worst)
    return times, edges, maps, averages, residuals


def trapezoid_average(times, maps) -> np.ndarray:
    """Running trapezoid averages at times[1:], one full-size array per stage.

    A second-order check on ``simulation.time_average``, whose averages are exact.
    """
    dt = np.diff(times)
    increments = 0.5 * dt[:, None, None] * (maps[1:] + maps[:-1])
    return np.cumsum(increments, axis=0) / times[1:, None, None]


def concatenated_grid(durations, dt: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """The schedule grid as one piece a segment, joined at the end.

    Oracle for ``simulation._grid``, which writes every segment's times into
    one array: each piece is t0 + (duration / steps) * k, its last point pinned.
    """
    pieces, edges, t0 = [np.array([0.0])], [0], 0.0
    for duration, steps in zip(durations, map(int, _step_counts(durations, dt))):
        local = t0 + (duration / steps) * np.arange(1, steps + 1)
        local[-1] = t0 + duration
        pieces.append(local)
        edges.append(edges[-1] + steps)
        t0 += duration
    return np.concatenate(pieces), tuple(edges)


def time_major_basis(flow, t: np.ndarray, integrated: bool) -> np.ndarray:
    """The (rows, m) basis of ``flow`` at ``t``, one column per basis function.

    Oracle for the frequency-major basis of ``closed_form.Flow``: the same
    values, each from the same floating-point expression, stacked as columns.
    """
    wt = np.multiply.outer(t, flow.omega)
    if not integrated:
        return np.column_stack([np.ones_like(t), t, *np.cos(wt).T, *np.sin(wt).T])
    half = np.sin(0.5 * wt)
    of_cos, of_sin = np.sin(wt) / flow.omega, 2.0 * half * half / flow.omega
    return np.column_stack([t, 0.5 * t * t, *of_cos.T, *of_sin.T])


def time_major_flow(flow, t: np.ndarray, integrated: bool) -> np.ndarray:
    """``flow.maps(t)`` (``flow.integrals(t)`` when ``integrated``) from :func:`time_major_basis`."""
    m, shape = flow.coef.shape[0], flow.coef.shape[1:]
    product = time_major_basis(flow, t, integrated) @ flow.coef.reshape(m, -1)
    return product.reshape((len(t),) + shape)


def whole_series(flows, times, edges) -> tuple[np.ndarray, np.ndarray]:
    """Maps and running averages with one matrix product per segment.

    Oracle for the chunked evaluation in ``simulation``: each flow,
    right-multiplied by the map at its segment's start, is evaluated on all
    the segment's rows at once (a zero flow holds the start map), and all
    integrals are divided by their times at the end.
    """
    n = flows[0].coef.shape[1]
    maps = np.empty((times.size, n, n))
    maps[0] = np.eye(n)
    integrals = np.empty_like(maps[1:])
    for flow, lo, hi in zip(flows, edges[:-1], edges[1:]):
        composed = replace(flow, coef=flow.coef @ maps[lo])
        local = times[lo + 1 : hi + 1] - times[lo]
        maps[lo + 1 : hi + 1] = composed.maps(local) if flow.coef[1:].any() else maps[lo]
        integrals[lo:hi] = composed.integrals(local)
        if lo:
            integrals[lo:hi] += integrals[lo - 1]
    return maps, integrals / times[1:, None, None]


def whole_d_values(aug, horizon: float, dt: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The ladder times, their d values and max t d(t) from one product over the whole grid.

    Oracle for ``simulation.convergence_diagnostics``, which evaluates the
    projected rows a chunk at a time and picks the ladder by searchsorted:
    here every T takes argmin |times - T| over the whole grid.
    """
    times = uniform_grid(horizon, dt)[1:]
    flow = aug.certificate.flow
    rows = replace(flow, coef=(aug.plant_output - aug.observer_output) @ flow.coef).integrals(times)
    rows /= times[:, None, None]
    d_all = spectral_norms(rows)
    indices = [int(np.argmin(np.abs(times - t))) for t in sorted(ladder_times(horizon, dt))]
    return times[indices], d_all[indices], float(np.max(times * d_all))


def spec_bound_constant(aug) -> float:
    """The convergence constant formed from the specs, with SVD norms.

    1/2 (norm_bound + 1) ||inv(r_o) theta_2|| ||c_o|| ||[inv(r_o) alpha beta.T, I]||:
    oracle for ``simulation.convergence_diagnostics``, which reads the same
    factors off the certificate (1 / lambda_min, theta_2 being orthogonal,
    and R = [inv(D) C, I]) and the observer output selector.
    """
    obs = aug.observer
    r_inv = np.linalg.inv(obs.r_o)
    mixing = np.hstack([r_inv @ obs.alpha @ aug.plant.beta.T, np.eye(obs.n_o)])
    norms = [np.linalg.norm(m, 2) for m in (r_inv @ theta_2(aug), obs.c_o, mixing)]
    return float(0.5 * (aug.certificate.norm_bound + 1.0) * norms[0] * norms[1] * norms[2])


def ladder_times(horizon: float, dt: float) -> list[float]:
    """The T values of the convergence ladder: halving from ``horizon`` while at least 20 dt."""
    ladder, value = [], horizon
    while value >= 20.0 * dt:
        ladder.append(value)
        value /= 2.0
    return ladder or [horizon]


def invariant_residuals(maps, theta, r_a) -> tuple[float, float]:
    """CCR and energy residuals of a whole series, in one expression each.

    Oracle for ``simulation.invariant_monitor``, which works slice by slice.
    The transpose is a contiguous copy, as the monitor takes it: a product
    with a transposed view rounds differently from the plain one at some n
    (20 and 32 under OpenBLAS's SkylakeX kernel).
    """
    maps_t = np.ascontiguousarray(maps.transpose(0, 2, 1))
    ccr_res = float(np.max(np.abs(maps @ theta @ maps_t - theta)))
    energy_ref = maps_t[0] @ r_a @ maps[0]
    energy_res = float(np.max(np.abs(maps_t @ r_a @ maps - energy_ref)))
    return ccr_res, energy_res


def csv_text(header, table) -> str:
    """CSV text of ``table`` with each value formatted on its own to 12 digits.

    Oracle for the figure writer in ``scenarios``.
    """
    lines = [",".join(header)]
    lines.extend(",".join(format(float(v), ".12g") for v in row) for row in table)
    return "\n".join(lines) + "\n"
