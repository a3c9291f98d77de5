"""Tests for grid propagation, running averages and diagnostics."""

import os
import platform
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from dcobserver import (
    ObserverSpec,
    PropagatorSeries,
    assemble_augmented,
    convergence_diagnostics,
    invariant_monitor,
    make_plant,
    make_theta,
    propagate,
    synthesize_observer,
    time_average,
    uniform_grid,
)
from dcobserver import simulation
from dcobserver.linalg import spectral_norms
from dcobserver.simulation import _chunk_rows, _grid
from helpers import (
    concatenated_grid,
    exact_propagator_average,
    exact_schedule,
    flow_of,
    invariant_residuals,
    ladder_times,
    one_mode_augmented,
    phase_dynamics,
    plant_block_quadrature,
    random_augmented,
    random_beta,
    random_output_matrix,
    random_realizable,
    random_spd,
    spec_bound_constant,
    stepwise_schedule,
    swapped_augmented,
    swept_schedule,
    theta_2,
    trapezoid_average,
    whole_d_values,
    whole_series,
)


def measurement_phases(t_end=100.0):
    aug1 = one_mode_augmented()
    aug3 = swapped_augmented()
    return [(20.0, aug1), (5.0, None), (t_end - 25.0, aug3)], aug1, aug3


def test_uniform_grid_hits_endpoint():
    grid = uniform_grid(50.0, 0.01)
    assert grid[0] == 0.0 and grid[-1] == 50.0
    assert grid.size == 5001
    with pytest.raises(ValueError):
        uniform_grid(1.0, 2.0)
    with pytest.raises(ValueError):
        uniform_grid(-1.0, 0.1)
    # the grid of a one-segment schedule, and the closed formula it replaced
    for t_end, dt in [(50.0, 0.01), (1e4, 0.1), (3.0, 0.013), (0.7, 0.7), (100.0, 0.03)]:
        grid = uniform_grid(t_end, dt)
        times, edges = _grid([t_end], dt)
        assert np.array_equal(grid, times) and edges == (0, grid.size - 1)
        steps = max(1, int(round(t_end / dt)))
        formula = (t_end / steps) * np.arange(steps + 1)
        formula[-1] = t_end
        assert np.array_equal(grid, formula)


def test_schedule_grid_contains_boundaries():
    times, edges = _grid([20.0, 5.0, 75.0], 0.01)
    assert times[list(edges)].tolist() == [0.0, 20.0, 25.0, 100.0]
    assert np.all(np.diff(times) > 0)


def test_propagate_zero_dynamics_gives_identity():
    series = propagate(np.zeros((3, 3)), uniform_grid(5.0, 0.5))
    assert np.array_equal(series.maps, np.broadcast_to(np.eye(3), series.maps.shape))


def test_propagate_matches_direct_exponential():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(10.0, 0.1))
    for k in range(0, series.times.size, 7):
        direct = expm(aug.a_a * series.times[k])
        assert np.max(np.abs(series.maps[k] - direct)) <= 1e-10


def test_propagate_rejects_maps_past_the_series_bound(monkeypatch):
    # the bound scaled down: 101 points of 4 x 4 maps are 12,928 bytes
    monkeypatch.setattr(simulation, "MAX_SERIES_BYTES", 1e4)
    tracemalloc.start()
    try:
        message = r"^grid: 101 points of 4 x 4 maps \(1.29e-05 GB\) exceed 1e-05 GB$"
        with pytest.raises(ValueError, match=message):
            propagate(np.zeros((4, 4)), uniform_grid(1.0, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_928
    assert propagate(np.zeros((4, 4)), uniform_grid(1.0, 0.02)).maps.nbytes == 51 * 128


def test_propagate_rotation_entries_at_pi():
    aug = one_mode_augmented()
    grid = np.linspace(0.0, np.pi, 315)
    series = propagate(aug.a_a, grid)
    assert series.maps[-1][2, 2] == pytest.approx(1.0, abs=1e-11)  # cos 2 pi
    assert series.maps[-1][2, 3] == pytest.approx(0.0, abs=1e-11)  # sin 2 pi


def test_propagate_rejects_bad_grids():
    a = np.zeros((2, 2))
    with pytest.raises(ValueError):
        propagate(a, np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        propagate(a, np.array([0.5, 1.0]))
    # a NaN step fails no comparison, and a step to inf is positive
    for grid in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [0.0, -np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            propagate(one_mode_augmented().a_a, np.array(grid))


@pytest.mark.parametrize(
    "build, args, field",
    [
        pytest.param(uniform_grid, (10.0, np.nan), "dt", id="uniform_grid-dt-nan"),
        pytest.param(uniform_grid, (10.0, np.inf), "dt", id="uniform_grid-dt-inf"),
        pytest.param(uniform_grid, (np.nan, 0.1), "t_end", id="uniform_grid-t_end-nan"),
        pytest.param(uniform_grid, (np.inf, 0.1), "t_end", id="uniform_grid-t_end-inf"),
        pytest.param(
            convergence_diagnostics, (one_mode_augmented(), 10.0, np.nan), "dt",
            id="convergence_diagnostics-dt-nan",
        ),
        pytest.param(
            convergence_diagnostics, (one_mode_augmented(), np.nan, 0.1), "horizon",
            id="convergence_diagnostics-horizon-nan",
        ),
        # finite times whose step count overflows to inf
        pytest.param(uniform_grid, (1e300, 1e-10), "dt", id="uniform_grid-steps-inf"),
        pytest.param(
            convergence_diagnostics, (one_mode_augmented(), 1e300, 1e-10), "dt",
            id="convergence_diagnostics-steps-inf",
        ),
    ],
)
def test_non_finite_times_name_their_field(build, args, field):
    with pytest.raises(ValueError, match=rf"\b{field} must be positive"):
        build(*args)


def test_single_segment_schedule_equals_plain_propagation():
    # the public one-segment chain and a run's pass give the same bits:
    # within one chunk (K = 161), and across two chunk seams at 4,096 rows
    # (n = 8, K = 9,001) and at 256 rows (n = 80, K = 601)
    rng = np.random.default_rng(21)
    cases = [
        (one_mode_augmented(), 8.0, 0.05, 0),
        (random_augmented(rng, 4, 4), 90.0, 0.01, 2),
        (random_augmented(rng, 32, 48), 6.0, 0.01, 2),
    ]
    for aug, t_end, dt, seams in cases:
        plain = propagate(aug.a_a, uniform_grid(t_end, dt))
        times, _, maps, averages, residuals = swept_schedule([(t_end, aug)], dt)
        assert (times.size - 1) // _chunk_rows(aug.n) == seams
        assert np.array_equal(plain.times, times)
        assert np.array_equal(plain.maps, maps)
        assert np.array_equal(time_average(plain).averages, averages)
        report = invariant_monitor(plain, aug.ccr, aug.r_a)
        assert (report.max_ccr_residual, report.max_energy_residual) == tuple(residuals[0, :2])


def test_schedule_is_exactly_constant_while_disconnected():
    phases, _, _ = measurement_phases()
    grid, _, maps, _, _ = swept_schedule(phases, 0.01)
    i20 = int(np.argmin(np.abs(grid - 20.0)))
    i25 = int(np.argmin(np.abs(grid - 25.0)))
    plateau = maps[i20 : i25 + 1]
    assert np.array_equal(plateau, np.broadcast_to(plateau[0], plateau.shape))


def test_schedule_matches_segment_exponentials_at_boundaries():
    phases, aug1, aug3 = measurement_phases()
    grid, _, maps, _, _ = swept_schedule(phases, 0.02)
    i20 = int(np.argmin(np.abs(grid - 20.0)))
    i25 = int(np.argmin(np.abs(grid - 25.0)))
    phi20 = expm(aug1.a_a * 20.0)
    assert np.max(np.abs(maps[i20] - phi20)) <= 1e-10
    assert np.max(np.abs(maps[i25] - phi20)) <= 1e-10
    phi40 = expm(aug3.a_a * 15.0) @ phi20
    i40 = int(np.argmin(np.abs(grid - 40.0)))
    assert np.max(np.abs(maps[i40] - phi40)) <= 1e-9


def test_first_plant_row_is_frozen_until_the_swap():
    phases, _, _ = measurement_phases()
    times, _, maps, _, _ = swept_schedule(phases, 0.01)
    i25 = int(np.argmin(np.abs(times - 25.0)))
    assert np.max(np.abs(maps[: i25 + 1, 0, :] - np.array([1.0, 0, 0, 0]))) == 0.0
    # the second observer freezes the conjugate row instead
    ref = maps[i25, 1, :]
    assert np.max(np.abs(maps[i25:, 1, :] - ref)) <= 1e-10
    # and disturbs the previously frozen one
    assert np.max(np.abs(maps[i25:, 0, :] - maps[i25, 0, :])) > 0.1


def broken_dynamics(kind, rng, n_p=2, n_o=4):
    """Observer-sized dynamics that fail the certificate, and certified dynamics of the same size."""
    aug = random_augmented(rng, n_p, n_o)
    a = aug.a_a.copy()
    if kind == "coupling":  # C B != 0
        a[n_p:, :n_p] += 0.1 * rng.normal(size=(n_o, n_p))
    elif kind == "indefinite":  # R' = diag(1, -1, ...)
        a[n_p:, n_p:] = 2.0 * make_theta(n_o // 2) @ np.diag([1.0, -1.0] * (n_o // 2))
    elif kind == "asymmetric":  # R' != R'.T
        a[n_p, n_p + 2] += 1e-3
    elif kind == "generic":  # realizable, with a non-zero leading 2 x 2 block
        a = random_realizable(rng, (n_p + n_o) // 2)[0]
    elif kind == "odd":  # a one-dimensional observer block
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), np.zeros((3, 3))
    elif kind == "identity":
        return np.eye(2), 2.0 * make_theta(1)
    elif kind == "non-finite":
        a[n_p, n_p + 1] = np.nan
    return a, aug.a_a


@pytest.mark.parametrize("n_p, n_o, seed", [(2, 4, 0), (4, 2, 1), (2, 6, 2), (6, 4, 3), (4, 4, 4)])
def test_certified_schedule_matches_the_exact_oracles(n_p, n_o, seed):
    # coupled, disconnected, then an observer with r_o = I, whose frequencies
    # are all equal
    rng = np.random.default_rng(seed)
    first = random_augmented(rng, n_p, n_o)
    plant = make_plant(random_beta(rng, n_p))
    c_o = random_output_matrix(rng, n_p // 2, n_o, np.eye(n_o))
    degenerate = assemble_augmented(plant, synthesize_observer(plant, np.eye(n_o), c_o))
    phases = [(1.0, first), (0.5, None), (1.5, degenerate)]
    dt = 0.01
    times, edges, maps, averages, _ = swept_schedule(phases, dt)

    picks = list(range(1, times.size))
    exact_maps, exact_integrals = exact_schedule(phases, times, edges, picks)
    assert np.max(np.abs(maps[1:] - exact_maps)) <= 1e-12
    assert np.max(np.abs(averages - exact_integrals / times[1:, None, None])) <= 1e-12

    # the stepwise oracle drifts, and the trapezoid rule is off by at most
    # (dt^2 / 12) max ||a||^2 max ||Phi||
    stepped = stepwise_schedule(phases, times)
    assert np.max(np.abs(maps - stepped)) <= 1e-10
    a_norm = max(np.linalg.norm(a, 2) for a in phase_dynamics(phases))
    bias = dt**2 / 12.0 * a_norm**2 * max(np.linalg.norm(m, 2) for m in maps)
    assert np.max(np.abs(averages - trapezoid_average(times, maps))) <= bias

    # the disconnected segment holds the map at its start, bit for bit
    lo, hi = edges[1], edges[2]
    held = maps[lo : hi + 1].view(np.uint64)
    assert np.array_equal(held, np.broadcast_to(held[0], held.shape))
    # each observer freezes its plant output rows
    for (_, aug), lo, hi in zip(phases, edges[:-1], edges[1:]):
        if aug is not None:
            rows = aug.plant_output @ maps[lo : hi + 1]
            assert np.max(np.abs(rows - rows[0])) <= 1e-12
    # plant rows against the Gauss-Legendre integral representation, and the
    # observer block of the averages against inv(b) (expm(b T) - I) / T
    b = 2.0 * theta_2(first) @ first.observer.r_o
    for k in (37, 100):
        quadrature = plant_block_quadrature(times[k], first)
        assert np.max(np.abs(maps[k, :n_p] - quadrature)) <= 1e-10
        observer = averages[k - 1, n_p:, n_p:]
        assert np.max(np.abs(observer - exact_propagator_average(b, times[k]))) <= 1e-12


# the block each kind of broken_dynamics fails first
BROKEN_BLOCKS = {
    "coupling": "max|C B| = ",
    "indefinite": "R' is not positive definite",
    "asymmetric": "max|R' - R'.T| = ",
    "generic": "R' is not positive definite",
    "odd": "has odd size 1",
    "identity": "R' is not positive definite",
    "non-finite": "dynamics contain non-finite entries",
}


@pytest.mark.parametrize("kind", list(BROKEN_BLOCKS))
def test_broken_certificate_is_rejected_naming_the_block(kind):
    # dynamics without the observer structure have no closed form, and the
    # library has no other way to propagate them; a scenario run prefixes the
    # same message with its segment (test_scenarios)
    a, certified = broken_dynamics(kind, np.random.default_rng(71))
    propagate(certified, uniform_grid(2.0, 0.01))
    with pytest.raises(ValueError) as excinfo:
        propagate(a, uniform_grid(2.0, 0.01))
    assert BROKEN_BLOCKS[kind] in str(excinfo.value)
    # a bad grid is reported before the dynamics, the same as for certified ones
    for bad in ([0.0, 1.0, 1.0], [0.5, 1.0], [0.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
        messages = []
        for dynamics in (a, certified):
            with pytest.raises(ValueError) as excinfo:
                propagate(dynamics, np.array(bad))
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(4), np.ones((1, 2, 2))], ids=["2x3", "1-D", "3-D"])
def test_propagate_rejects_non_square_dynamics(a):
    with pytest.raises(ValueError, match=rf"^a: must be square, got shape {re.escape(str(a.shape))}$"):
        propagate(a, uniform_grid(1.0, 0.1))


@pytest.mark.parametrize("identity", [False, True])
def test_observer_block_alone_is_taken_in_closed_form(identity):
    # n_p = 0: the dynamics 2 theta_2 r_o of the observer on its own
    rng = np.random.default_rng(61)
    r_o = np.eye(4) if identity else random_spd(rng, 4)
    b = 2.0 * make_theta(2) @ r_o
    series = propagate(b, uniform_grid(10.0, 0.01))
    for k in (0, 1, 457, 1000):
        assert np.max(np.abs(series.maps[k] - expm(b * series.times[k]))) <= 1e-12
    averages = time_average(series)
    assert np.max(np.abs(averages.averages[-1] - exact_propagator_average(b, 10.0))) <= 1e-12


@pytest.mark.parametrize("m_p", [1, 2, 3, 16])
def test_row_norms_equal_the_largest_singular_value(m_p):
    # one row (the Gram entry), two (closed form) and wider stacks (eigvalsh), up
    # to the 16 rows of the right factor R whose norm the n = 32 constant takes
    rng = np.random.default_rng(m_p)
    stack = rng.normal(size=(500, m_p, 8))
    stack[::5, -1] = stack[::5, 0]  # repeated rows: rank deficient
    stack[1::5] *= 1e-3
    stack[2::5, :] = 0.0
    if m_p > 1:
        # orthogonal rows of equal norm: a double top eigenvalue
        stack[3::5, :, :] = 0.0
        stack[3::5, 0, 0] = stack[3::5, 1, 1] = 2.5
        stack[4::5, 0] *= 1e8  # row norms 1e8 apart
    expected = np.linalg.svd(stack, compute_uv=False)[:, 0]
    got = spectral_norms(stack)
    assert np.all(np.abs(got - expected) <= 1e-14 * expected)
    if m_p == 1:
        gram = stack @ stack.transpose(0, 2, 1)
        assert np.array_equal(got, np.sqrt(np.linalg.eigvalsh(gram)[:, -1]))


@pytest.mark.parametrize(
    "call, points, modes, message",
    [
        ("average", 1, 2, "series must contain at least one step beyond t=0"),
        ("monitor", 0, 2, "series must contain at least one map"),
        ("monitor", 3, 1, "series, theta and r_a dimensions disagree"),
    ],
    ids=["average-one-point", "monitor-no-maps", "monitor-dimensions"],
)
def test_series_calls_name_a_series_they_cannot_read(call, points, modes, message):
    # the first points of a 4 x 4 series, its monitor given theta of ``modes`` modes
    series = propagate(one_mode_augmented().a_a, uniform_grid(5.0, 0.5))
    piece = PropagatorSeries(times=series.times[:points], maps=series.maps[:points], flow=series.flow)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        time_average(piece) if call == "average" else invariant_monitor(piece, make_theta(modes), np.eye(4))


def test_time_average_of_identity_series():
    series = propagate(np.zeros((2, 2)), uniform_grid(3.0, 0.1))
    averages = time_average(series)
    assert np.allclose(averages.averages, np.eye(2), atol=1e-14)
    assert averages.times[0] > 0.0


def test_time_average_rejects_a_series_without_flows():
    # a series built by hand, such as a slice of another, has no flows to integrate
    series = propagate(one_mode_augmented().a_a, uniform_grid(5.0, 0.5))
    piece = PropagatorSeries(times=series.times, maps=series.maps)
    with pytest.raises(ValueError, match="^series has no flow to integrate"):
        time_average(piece)


def test_running_averages_match_analytic_integrals():
    # row of the observer output: averages of 1-cos2t, 0, cos2t, sin2t
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(100.0, 0.01))
    averages = time_average(series)
    for T in (10.0, 50.0, 100.0):
        k = int(np.argmin(np.abs(averages.times - T)))
        row = averages.averages[k, 2, :]
        expected = [
            1 - np.sin(2 * T) / (2 * T),
            0.0,
            np.sin(2 * T) / (2 * T),
            (1 - np.cos(2 * T)) / (2 * T),
        ]
        assert np.allclose(row, expected, atol=3e-5)
        assert abs(row[2]) <= 1 / (2 * T) + 1e-5
    k100 = int(np.argmin(np.abs(averages.times - 100.0)))
    assert abs(averages.averages[k100, 2, 0] - 1.0) <= 0.005


def test_running_averages_are_bounded_by_the_flow():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(40.0, 0.02))
    averages = time_average(series)
    sup_flow = max(float(np.linalg.norm(m, 2)) for m in series.maps)
    for avg in averages.averages[:: 50]:
        assert float(np.linalg.norm(avg, 2)) <= sup_flow + 1e-12


def test_trapezoid_averages_converge_at_second_order():
    aug = one_mode_augmented()
    exact = 1 - np.sin(20.0) / 20.0
    errors = []
    for dt in (0.02, 0.01):
        series = propagate(aug.a_a, uniform_grid(10.0, dt))
        averages = trapezoid_average(series.times, series.maps)
        k = int(np.argmin(np.abs(series.times[1:] - 10.0)))
        errors.append(abs(averages[k, 2, 0] - exact))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_exact_average_cross_checks_trapezoid():
    r_o = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = 2.0 * make_theta(1) @ r_o
    averages = time_average(propagate(b, uniform_grid(10.0, 0.005)))
    closed = exact_propagator_average(b, 10.0)
    assert np.max(np.abs(averages.averages[-1] - closed)) <= 1e-5


def test_exact_average_rejects_singular_dynamics():
    aug = one_mode_augmented()
    with pytest.raises(ValueError, match="singular"):
        exact_propagator_average(aug.a_a, 10.0)


def test_invariant_monitor_on_canonical_run():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(100.0, 0.01))
    report = invariant_monitor(series, aug.ccr, aug.r_a)
    assert report.max_ccr_residual <= 1e-8
    assert report.max_energy_residual <= 1e-8


def test_invariant_monitor_flags_non_realizable_flow():
    # Phi = e^t I gives Phi theta Phi.T - theta = (e^{2t} - 1) theta
    times = np.array([0.0, 0.5, 1.0])
    maps = np.exp(times)[:, None, None] * np.eye(2)
    series = PropagatorSeries(times=times, maps=maps)
    report = invariant_monitor(series, make_theta(1), np.zeros((2, 2)))
    assert report.max_ccr_residual == pytest.approx(np.exp(2.0) - 1.0, rel=1e-6)


def test_invariant_monitor_slices_match_whole_series():
    # the last segment of the measurement schedule: longer than one slice, and
    # its first map is not the identity
    phases, _, aug3 = measurement_phases()
    times, edges, maps, _, _ = swept_schedule(phases, 0.01)
    piece = PropagatorSeries(times=times[edges[2] :], maps=maps[edges[2] :])
    assert piece.maps.shape[0] > _chunk_rows(4)
    assert not np.array_equal(piece.maps[0], np.eye(4))
    report = invariant_monitor(piece, aug3.ccr, aug3.r_a)
    expected = invariant_residuals(piece.maps, aug3.ccr, aug3.r_a)
    assert (report.max_ccr_residual, report.max_energy_residual) == expected
    assert min(expected) > 0.0


def test_invariant_monitor_zero_dynamics_is_exact():
    series = propagate(np.zeros((4, 4)), uniform_grid(5.0, 0.5))
    report = invariant_monitor(series, make_theta(2), np.diag([1.0, 2.0, 3.0, 4.0]))
    assert report.max_ccr_residual == 0.0
    assert report.max_energy_residual == 0.0


def residual_blocks(n):
    """A random n-dimensional system and its maps at 3.7 + 0.1 k, for blocks of 1, 2, 3 and one chunk + 1 maps."""
    aug = random_augmented(np.random.default_rng(n), n // 2, n // 2)
    flow = flow_of(aug.a_a)
    start = flow.maps(np.array([3.7]))[0]
    blocks = [flow.maps(3.7 + 0.1 * np.arange(1, rows + 1)) for rows in (1, 2, 3, _chunk_rows(n) + 1)]
    return aug, start, blocks


def view_residual(left, middle, right, ref):
    """max |left middle right - ref| on the operands given, and how far another evaluation may lie from it.

    The allowance is a priori.  Each computed triple product is within
    gamma_2n |left||middle||right| of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.5), so two of them differ by
    at most twice that; subtracting ``ref`` rounds each result once more, by
    at most u times its size.  The product of absolute values is itself
    computed, so it is scaled up by 1 / (1 - gamma_2n).
    """
    u = np.finfo(float).eps / 2
    gamma = 2 * left.shape[-1] * u / (1 - 2 * left.shape[-1] * u)
    residual = float(np.max(np.abs(left @ middle @ right - ref)))
    magnitude = float(np.max(np.abs(left) @ np.abs(middle) @ np.abs(right)))
    return residual, 2 * (1 + u) * gamma * magnitude / (1 - gamma) + 3 * u * residual


@pytest.mark.parametrize("n", [4, 8, 20, 32, 80])
def test_residuals_on_contiguous_operands_match_the_transposed_view_products(n):
    # bit for bit where the kernel rounds both forms alike (n = 4 and 8 under
    # every OpenBLAS kernel tried), else within the triple-product bound
    aug, start, blocks = residual_blocks(n)
    theta, r_a = aug.ccr, aug.r_a
    for maps in blocks:
        maps_t = maps.transpose(0, 2, 1)
        ccr, ccr_allowance = view_residual(maps, theta, maps_t, theta)
        energy, energy_allowance = view_residual(maps_t, r_a, maps, start.T @ r_a @ start)
        scratch = np.empty(simulation._residuals_scratch_size(len(maps), n))
        fast = simulation._residuals(maps, theta, r_a, start, scratch)
        if n <= 8:
            assert fast == (ccr, energy), len(maps)
        else:
            assert abs(fast[0] - ccr) <= ccr_allowance, (len(maps), fast[0], ccr, ccr_allowance)
            assert abs(fast[1] - energy) <= energy_allowance, (len(maps), fast[1], energy, energy_allowance)


@pytest.mark.parametrize("where", [0, -1])
def test_residuals_of_a_block_with_a_nan_map_are_nan(where):
    # the last map lies in the block's last piece, whose worst values must
    # not be dropped when the pieces combine
    aug, start, blocks = residual_blocks(8)
    for maps in blocks:
        maps[where, 0, 0] = np.nan
        # with quarter-block pieces, and with pieces of one map each
        for scratch in (np.empty(simulation._residuals_scratch_size(len(maps), 8)), np.empty(3 * 64)):
            residuals = simulation._residuals(maps, aug.ccr, aug.r_a, start, scratch)
            assert np.isnan(residuals).all(), (len(maps), residuals)


def test_convergence_diagnostics_on_canonical_observer():
    aug = one_mode_augmented()
    report = convergence_diagnostics(aug, horizon=100.0, dt=0.01)
    assert report.converged
    assert report.bound_constant == pytest.approx(np.sqrt(2.0), abs=1e-12)
    k = int(np.argmin(np.abs(report.t_values - 100.0)))
    assert report.d_values[k] <= 0.02
    assert report.max_t_times_d <= report.bound_constant + 1e-6
    assert report.decay_rate < -0.5


def test_convergence_diagnostics_forms_only_the_output_rows():
    # n = 8, K = 10,001: the diagnostic never holds a K x n x n array
    aug = random_augmented(np.random.default_rng(5), 4, 4)
    convergence_diagnostics(aug, horizon=10.0, dt=0.1)  # warm up imports and caches
    tracemalloc.start()
    try:
        report = convergence_diagnostics(aug, horizon=1e3, dt=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < 10_001 * aug.n * aug.n * 8


def test_segment_below_the_float_spacing_names_its_duration():
    # 20 + 1e-20 == 20: the second segment would take a step of zero length
    message = "segments[1].duration: 1e-20 gives grid steps below the float spacing at its start t = 20.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _grid([20.0, 1e-20, 5.0], 0.01)


def test_grid_is_built_in_place_bit_for_bit():
    rng = np.random.default_rng(14)
    schedules = [
        ([20.0, 5.0, 75.0], 0.01),
        ([0.3, 1e-3, 2.7, 40.0], 0.013),
        ([1.0 / 3.0, 7.1, 2.0**-20, 100.0], 0.003),
        ([1e4, 0.05, 1e3], 0.1),
        (list(rng.uniform(0.01, 30.0, size=6)), 0.007),
    ]
    for durations, dt in schedules:
        times, edges = _grid(durations, dt)
        expected, expected_edges = concatenated_grid(durations, dt)
        assert times.tobytes() == expected.tobytes() and edges == expected_edges
    # the grid is the one array held: no step differences, no joined pieces
    _grid([10.0], 0.1)
    tracemalloc.start()
    try:
        times, _ = _grid([1e5], 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.size == 1_000_001 and peak <= 10 * times.size


def test_grid_beyond_the_memory_bound_is_a_dt_error():
    # 1e15 grid points: the bound is checked by arithmetic, before any allocation
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^dt=0\.001 gives 1e\+15 grid points"):
            uniform_grid(1e12, 1e-3)
        with pytest.raises(ValueError, match=r"^dt=0\.001 gives 1e\+15 grid points"):
            _grid([1e12], 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_scaled_average_error_stays_bounded_to_long_horizons():
    aug = one_mode_augmented()
    report = convergence_diagnostics(aug, horizon=1000.0, dt=0.02)
    assert report.max_t_times_d <= report.bound_constant + 1e-6
    assert report.converged
    ladder = report.t_values[report.t_values >= 1.0]
    assert ladder.size >= 8 and ladder[-1] == 1000.0


def test_convergence_diagnostics_names_the_horizon_that_dt_exceeds():
    # uniform_grid would name it t_end, a field convergence_diagnostics does not take
    with pytest.raises(ValueError) as raised:
        convergence_diagnostics(one_mode_augmented(), horizon=1.0, dt=2.0)
    assert str(raised.value) == "dt must be at most horizon, got dt=2.0, horizon=1.0"


def test_convergence_diagnostics_flags_decoupled_observer():
    plant = make_plant([[1.0], [0.0]])
    spec = ObserverSpec(r_o=np.eye(2), alpha=np.zeros((2, 1)), c_o=np.array([[1.0, 0.0]]))
    aug = assemble_augmented(plant, spec)
    report = convergence_diagnostics(aug, horizon=100.0, dt=0.01)
    assert not report.converged
    assert report.d_values[-1] > 0.5


def test_estimated_output_average_stays_at_initial_row():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(50.0, 0.01))
    averages = time_average(series)
    rows = aug.plant_output
    assert np.max(np.abs(rows @ averages.averages - rows)) <= 1e-12


def seam_schedule(n: int, first_rows: int, last_rows: int):
    """Coupled, disconnected and coupled phases at dt = 0.01, the disconnected one 50 rows long.

    Half of n is plant, at most 32 quadratures: 20 random output rows against
    40 observer quadratures are rarely well conditioned.  Returns the phases
    and the last coupled system.
    """
    rng = np.random.default_rng(n)
    n_p = min(n // 2, 32)
    first, last = (random_augmented(rng, n_p, n - n_p) for _ in range(2))
    return [(first_rows / 100, first), (0.5, None), (last_rows / 100, last)], last


@pytest.mark.parametrize(
    "n, first_rows, last_rows",
    [
        (4, 1337, 2 * _chunk_rows(4) + 308),
        (8, 1337, 2 * _chunk_rows(8) + 308),
        (32, 137, 2 * _chunk_rows(32) + 54),
        (80, 137, _chunk_rows(80) + 54),
    ],
)
def test_chunked_series_equal_the_whole_series_bit_for_bit(n, first_rows, last_rows):
    # segment starts off the multiples of the chunk rows (4,096 rows at n = 4
    # and 8, 2,048 at n = 32, 256 at n = 80), a zero segment, and a last
    # segment crossing one seam (n = 80) or two (n = 4, 8, 32) of its own chunks
    phases, last = seam_schedule(n, first_rows, last_rows)
    times, edges, swept, swept_averages, residuals = swept_schedule(phases, 0.01)
    assert edges == (0, first_rows, first_rows + 50, first_rows + 50 + last_rows)
    assert all(edge % _chunk_rows(n) for edge in edges[1:])
    flows = [flow_of(a) for a in phase_dynamics(phases)]
    maps, averages = whole_series(flows, times, edges)
    assert np.array_equal(swept[0], np.eye(n))
    assert np.array_equal(swept, maps)
    del maps
    assert np.array_equal(swept_averages, averages)
    del averages, swept_averages
    report = invariant_monitor(PropagatorSeries(times=times, maps=swept), last.ccr, last.r_a)
    expected = invariant_residuals(swept, last.ccr, last.r_a)
    assert (report.max_ccr_residual, report.max_energy_residual) == expected
    # the pass's own CCR residual is the whole series', run by run
    assert np.max(residuals[:, 0]) == expected[0]
    # and so is each segment's held-row deviation from its start map: every
    # row of the disconnected segment, the plant output rows of a coupled one
    held = [
        np.max(np.abs(swept[lo : hi + 1] - swept[lo])) if aug is None
        else np.max(np.abs(aug.plant_output @ swept[lo : hi + 1] - aug.plant_output @ swept[lo]))
        for (_, aug), lo, hi in zip(phases, edges[:-1], edges[1:])
    ]
    assert residuals[:, 2].tolist() == held


@pytest.mark.parametrize("n", [4, 8, 32])
def test_chunked_d_values_equal_the_whole_grid_bit_for_bit(n):
    # 10,000 rows: two seams
    aug = random_augmented(np.random.default_rng(n), n // 2, n // 2)
    report = convergence_diagnostics(aug, horizon=100.0, dt=0.01)
    t_values, d_values, max_t_times_d = whole_d_values(aug, 100.0, 0.01)
    assert np.array_equal(report.t_values, t_values)
    assert np.array_equal(report.d_values, d_values)
    assert report.max_t_times_d == max_t_times_d


@pytest.mark.parametrize("n", [4, 8, 32])
def test_bound_constant_read_off_the_certificate_equals_the_spec_formula(n):
    # 1 / lambda_min from eigh and ||inv(r_o) theta_2|| from inv each round to
    # about n_o kappa eps relative (kappa = lambda_max / lambda_min); the eight
    # other roundings of the norms and products add a few eps
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        aug = random_augmented(rng, n // 2, n // 2)
        report = convergence_diagnostics(aug, horizon=10.0, dt=0.1)
        expected = spec_bound_constant(aug)
        kappa = aug.certificate.norm_bound**2
        allowance = (8.0 + aug.observer.n_o * kappa) * np.finfo(float).eps * expected
        assert abs(report.bound_constant - expected) <= allowance, (report.bound_constant, expected)


def test_ladder_takes_the_grid_points_argmin_takes():
    # the nearer neighbour of each T, the earlier one on a tie: T = 41 / 2
    # lies halfway between 20 and 21
    aug = one_mode_augmented()
    rng = np.random.default_rng(13)
    cases = [(41.0, 1.0)] + [
        (horizon, horizon / rng.uniform(20.0, 3000.0)) for horizon in rng.uniform(1.0, 500.0, 40)
    ]
    for horizon, dt in cases:
        times = uniform_grid(horizon, dt)[1:]
        indices = [int(np.argmin(np.abs(times - t))) for t in sorted(ladder_times(horizon, dt))]
        report = convergence_diagnostics(aug, horizon=horizon, dt=dt)
        assert np.array_equal(report.t_values, times[indices]), (horizon, dt)
    assert 20.0 in convergence_diagnostics(aug, horizon=41.0, dt=1.0).t_values


def test_api_pipeline_peak_stays_at_the_returned_arrays():
    # n = 8, K = 100,001: beyond the returned maps, averages and their times
    # (104 MB), the peak holds up to two 1.6 MB monitor scratches; whole-grid
    # temporaries of the basis or the output rows would pass 6 MB
    allowance = 6e6
    aug = random_augmented(np.random.default_rng(5), 4, 4)
    convergence_diagnostics(aug, horizon=10.0, dt=0.1)  # warm up imports and caches
    tracemalloc.start()
    try:
        series = propagate(aug.a_a, uniform_grid(1e4, 0.1))
        averages = time_average(series)
        invariant_monitor(series, aug.ccr, aug.r_a)
        report = convergence_diagnostics(aug, horizon=1e4, dt=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and series.maps.shape == (100_001, 8, 8)
    returned = sum(a.nbytes for a in (series.times, series.maps, averages.times, averages.averages))
    assert peak <= returned + allowance, (peak, returned)


@pytest.mark.parametrize("n", [4, 8, 32])
def test_deviation_has_the_bits_of_the_elementwise_max(n):
    # the reference forms every |rows Phi - rows start| and takes their max
    rng = np.random.default_rng(n)
    block, start, rows = rng.standard_normal((300, n, n)), rng.standard_normal((n, n)), rng.standard_normal((2, n))
    assert simulation._deviation(block, start) == float(np.max(np.abs(block - start)))
    assert simulation._deviation(block, start, rows) == float(np.max(np.abs(rows @ block - rows @ start)))
    # a held -0.0 against a +0.0 start reads +0.0, as |x - s| does; a NaN map reads NaN
    zero = np.zeros((n, n))
    assert np.copysign(1.0, simulation._deviation(np.full((3, n, n), -0.0), zero)) == 1.0
    block[7, 1, 0] = np.nan
    assert np.isnan(simulation._deviation(block, start)) and np.isnan(simulation._deviation(block, start, rows))


def sweep_peak(systems, times, edges):
    """tracemalloc's peak over one _sweep pass, after a pass that warms up the certificates and selectors."""

    def one_pass():
        for _ in simulation._sweep(systems, times, edges, times.size):
            pass

    one_pass()
    tracemalloc.start()
    try:
        one_pass()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_pass_peaks_at_its_own_buffers():
    # n = 8 over three full runs and part of a fourth: the pass holds its two
    # run buffers, one basis scratch and one quarter-run monitor scratch
    # (6.0 MB in all).  The allowance covers the held-row deviation's one
    # (rows, m_p, n) product (0.5 MB) and 256 KiB of small arrays; a
    # residual buffer of two blocks a run (4.2 MB) would pass it
    aug = random_augmented(np.random.default_rng(8), 4, 4)
    chunk = _chunk_rows(8)
    times = uniform_grid((3 * chunk + 100) * 0.1, 0.1)
    assert times.size == 3 * chunk + 101
    peak = sweep_peak([aug], times, (0, times.size - 1))
    own = 8 * (2 * chunk * 64 + aug.certificate.flow._scratch_size(chunk) + 3 * (chunk // 4) * 64)
    allowance = 8 * chunk * aug.plant.m_p * 8 + 2**18
    assert peak <= own + allowance, (peak, own)


def test_a_disconnected_segment_adds_nothing_to_a_sweep_pass():
    # a one-row coupled segment, then three runs of zero dynamics at n = 8:
    # the plateau deviation reads each entry's extremes over a run, so past
    # the pass's own buffers only 256 KiB of small arrays are allowed; the
    # two block-sized temporaries of block - start (4.2 MB) would pass it
    aug = random_augmented(np.random.default_rng(8), 4, 4)
    chunk = _chunk_rows(8)
    times, edges = _grid([0.1, 3 * chunk * 0.1], 0.1)
    assert edges == (0, 1, 3 * chunk + 1)
    peak = sweep_peak([aug, None], times, edges)
    own = 8 * (2 * chunk * 64 + aug.certificate.flow._scratch_size(chunk) + 3 * (chunk // 4) * 64)
    assert peak <= own + 2**18, (peak, own)


def whole_series_chain(aug, grid):
    """The three whole-series results of ``aug`` on ``grid``, each call leaving no thread behind."""
    threads = threading.active_count()
    series = propagate(aug.a_a, grid)
    assert threading.active_count() == threads
    averages = time_average(series)
    assert threading.active_count() == threads
    report = invariant_monitor(series, aug.ccr, aug.r_a)
    assert threading.active_count() == threads
    return series.maps, averages.averages, (report.max_ccr_residual, report.max_energy_residual)


def test_whole_series_runs_give_the_same_bits_on_one_cpu_and_on_two(monkeypatch):
    # 12,289 points at n = 8: three 4,096-row runs, and in the monitor, which
    # starts from row 0, a fourth of one row
    aug = random_augmented(np.random.default_rng(3), 4, 4)
    grid = uniform_grid(1228.8, 0.1)
    assert grid.size == 3 * _chunk_rows(8) + 1
    monkeypatch.setattr(simulation, "_blas_threads", lambda: 1)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    serial = whole_series_chain(aug, grid)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    # a short switch interval interleaves the two runs' Python steps often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = whole_series_chain(aug, grid)
    finally:
        sys.setswitchinterval(interval)
    for one, two in zip(serial, threaded):
        assert np.array_equal(one, two)
    assert threaded[2] == invariant_residuals(threaded[0], aug.ccr, aug.r_a)


@pytest.mark.parametrize("cpus, blas_threads", [(1, 1), (2, 1), (2, 2)])
def test_each_run_keeps_run_order_and_raises_the_first_error_unchanged(monkeypatch, cpus, blas_threads):
    # threads only with two CPUs and a one-thread BLAS
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulation, "_blas_threads", lambda: blas_threads)
    threaded = (cpus, blas_threads) == (2, 1)
    edges, error = (0, 5 * _chunk_rows(8)), RuntimeError("third run")
    runs = [rows for _, _, rows in simulation._runs(edges, 8)]
    threads, called_on = threading.active_count(), set()

    def record(lo, rows, scratch):
        called_on.add(threading.get_ident())
        return lo, rows

    assert simulation._each_run(edges, 8, lambda rows: rows, record) == [(0, rows) for rows in runs]
    assert (threading.get_ident() in called_on) != threaded
    assert threading.active_count() == threads

    def fail_third(lo, rows, scratch):
        if rows == runs[2]:
            raise error
        return rows

    with pytest.raises(RuntimeError) as raised:
        simulation._each_run(edges, 8, lambda rows: rows, fail_third)
    assert raised.value is error
    assert threading.active_count() == threads


def test_each_run_gives_every_run_in_flight_its_own_scratch_from_the_caller(monkeypatch):
    # each run writes its index into its scratch, waits until the other
    # thread's run is in flight too, and reads its index back
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_blas_threads", lambda: 1)
    edges = (0, 4 * _chunk_rows(8) - 100)
    runs = [rows for _, _, rows in simulation._runs(edges, 8)]
    threads, barrier, sizes, made, held = threading.active_count(), threading.Barrier(2, timeout=30), [], [], set()
    empty = np.empty

    def counted_empty(*args, **kwargs):
        made.append(threading.get_ident())
        return empty(*args, **kwargs)

    def scratch_size(rows):
        sizes.append(rows)
        return 3 * rows

    def own(lo, rows, scratch):
        index = runs.index(rows)
        scratch[0] = index
        barrier.wait()
        assert scratch[0] == index and scratch.size == 3 * _chunk_rows(8)
        held.add(id(scratch))
        return index

    monkeypatch.setattr(np, "empty", counted_empty)
    assert simulation._each_run(edges, 8, scratch_size, own) == list(range(4))
    monkeypatch.undo()
    assert sizes == [_chunk_rows(8)]
    assert made == [threading.get_ident()] * simulation.WORKERS
    assert len(held) == simulation.WORKERS
    assert threading.active_count() == threads


def test_whole_series_chain_holds_no_more_after_four_passes_than_after_one():
    # the worker threads allocate no buffers, so no malloc arena of theirs
    # grows from pass to pass: ru_maxrss after four passes of the n = 8,
    # T = 1e4 chain (the long_horizon benchmark's) stays within 1 MiB of its
    # value after one.  Each pass's grid is kept until the next, and between
    # passes the caller multiplies a batch of 2,000 maps, as the benchmark's
    # calibration kernel does; with each run allocating its buffers on the
    # worker threads, the peak grew by 2.0 to 4.1 MB over the four passes in
    # each of 16 trials (2 CPUs, glibc 2.36).
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("measures glibc's malloc arenas")
    if simulation._usable_cpus() < 2:
        pytest.skip("runs go in order on one usable CPU")
    child = textwrap.dedent(
        """
        import resource
        import numpy as np
        from dcobserver import (assemble_augmented, invariant_monitor, make_plant, propagate,
                                synthesize_observer, time_average, uniform_grid)

        plant = make_plant([[1, 0], [0, 0], [0, 1], [0, 0]])
        aug = assemble_augmented(plant, synthesize_observer(plant, np.eye(4), [[1, 0, 0, 0], [0, 0, 1, 0]]))
        batch, theta = np.ones((2000, 8, 8)), aug.ccr
        peaks = []
        for _ in range(4):
            grid = uniform_grid(1e4, 0.1)
            series = propagate(aug.a_a, grid)
            averages = time_average(series)
            invariant_monitor(series, aug.ccr, aug.r_a)
            del series, averages
            float(np.max(np.abs(batch @ theta @ batch.transpose(0, 2, 1))))
            peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        print(peaks[0], peaks[-1])
        """
    )
    src = str(Path(simulation.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, last = map(int, done.stdout.split())
    assert last - first < 1024, (first, last)  # KiB


@pytest.mark.parametrize(
    "variables, threads",
    [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "3"}, 3),
    ],
)
def test_blas_threads_are_read_as_openblas_reads_them(monkeypatch, variables, threads):
    # unset or non-positive, a variable gives way to the next; none gives every usable CPU
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 7)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in variables.items():
        monkeypatch.setenv(name, value)
    assert simulation._blas_threads() == (7 if threads is None else threads)
