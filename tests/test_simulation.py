"""Tests for grid propagation, running averages and diagnostics."""

import numpy as np
import pytest

from dcobserver import (
    ObserverSpec,
    PropagatorSeries,
    Segment,
    assemble_augmented,
    convergence_diagnostics,
    expm,
    invariant_monitor,
    make_plant,
    make_theta,
    propagate,
    propagate_schedule,
    time_average,
    uniform_grid,
)
from dcobserver.simulation import MONITOR_SLICE, average_convergence
from helpers import (
    exact_propagator_average,
    invariant_residuals,
    one_mode_augmented,
    random_augmented,
    stepwise_propagate_schedule,
    swapped_augmented,
    trapezoid_average,
)


def measurement_segments(t_end=100.0):
    aug1 = one_mode_augmented()
    aug3 = swapped_augmented()
    return [
        Segment(aug1.a_a, 20.0),
        Segment(np.zeros((4, 4)), 5.0),
        Segment(aug3.a_a, t_end - 25.0),
    ], aug1, aug3


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
        schedule = propagate_schedule([Segment(np.zeros((1, 1)), t_end)], dt)
        assert np.array_equal(grid, schedule.times) and schedule.edges == (0, grid.size - 1)
        steps = max(1, int(round(t_end / dt)))
        formula = (t_end / steps) * np.arange(steps + 1)
        formula[-1] = t_end
        assert np.array_equal(grid, formula)


def test_schedule_grid_contains_boundaries():
    segments, _, _ = measurement_segments()
    series = propagate_schedule(segments, 0.01)
    assert series.times[list(series.edges)].tolist() == [0.0, 20.0, 25.0, 100.0]
    assert np.all(np.diff(series.times) > 0)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        Segment(np.eye(2), 0.0)


def test_propagate_zero_dynamics_gives_identity():
    series = propagate(np.zeros((3, 3)), uniform_grid(5.0, 0.5))
    assert np.array_equal(series.maps, np.broadcast_to(np.eye(3), series.maps.shape))


def test_propagate_matches_direct_exponential():
    aug = one_mode_augmented()
    series = propagate(aug.a_a, uniform_grid(10.0, 0.1))
    for k in range(0, series.times.size, 7):
        direct = expm(aug.a_a * series.times[k])
        assert np.max(np.abs(series.maps[k] - direct)) <= 1e-10


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


def test_single_segment_schedule_equals_plain_propagation():
    aug = one_mode_augmented()
    plain = propagate(aug.a_a, uniform_grid(8.0, 0.05))
    piecewise = propagate_schedule([Segment(aug.a_a, 8.0)], 0.05)
    assert np.array_equal(plain.times, piecewise.times)
    assert np.array_equal(plain.maps, piecewise.maps)


def test_schedule_is_exactly_constant_while_disconnected():
    segments, _, _ = measurement_segments()
    series = propagate_schedule(segments, 0.01)
    grid = series.times
    i20 = int(np.argmin(np.abs(grid - 20.0)))
    i25 = int(np.argmin(np.abs(grid - 25.0)))
    plateau = series.maps[i20 : i25 + 1]
    assert np.array_equal(plateau, np.broadcast_to(plateau[0], plateau.shape))


def test_schedule_matches_segment_exponentials_at_boundaries():
    segments, aug1, aug3 = measurement_segments()
    series = propagate_schedule(segments, 0.02)
    grid = series.times
    i20 = int(np.argmin(np.abs(grid - 20.0)))
    i25 = int(np.argmin(np.abs(grid - 25.0)))
    phi20 = expm(aug1.a_a * 20.0)
    assert np.max(np.abs(series.maps[i20] - phi20)) <= 1e-10
    assert np.max(np.abs(series.maps[i25] - phi20)) <= 1e-10
    phi40 = expm(aug3.a_a * 15.0) @ phi20
    i40 = int(np.argmin(np.abs(grid - 40.0)))
    assert np.max(np.abs(series.maps[i40] - phi40)) <= 1e-9


def test_first_plant_row_is_frozen_until_the_swap():
    segments, _, _ = measurement_segments()
    series = propagate_schedule(segments, 0.01)
    i25 = int(np.argmin(np.abs(series.times - 25.0)))
    assert np.max(np.abs(series.maps[: i25 + 1, 0, :] - np.array([1.0, 0, 0, 0]))) == 0.0
    # the second observer freezes the conjugate row instead
    ref = series.maps[i25, 1, :]
    assert np.max(np.abs(series.maps[i25:, 1, :] - ref)) <= 1e-10
    # and disturbs the previously frozen one
    assert np.max(np.abs(series.maps[i25:, 0, :] - series.maps[i25, 0, :])) > 0.1


def test_schedule_rejects_empty_and_misspanned():
    with pytest.raises(ValueError, match="empty"):
        propagate_schedule([], 0.1)


def random_schedule(seed, n_p, n_o):
    """Coupled, disconnected, coupled: two random observers of one plant size."""
    rng = np.random.default_rng(seed)
    first, second = random_augmented(rng, n_p, n_o), random_augmented(rng, n_p, n_o)
    n = n_p + n_o
    return [Segment(first.a_a, 1.0), Segment(np.zeros((n, n)), 0.5), Segment(second.a_a, 1.5)]


@pytest.mark.parametrize("n_p, n_o, seed", [(2, 4, 0), (4, 2, 1), (2, 6, 2), (6, 4, 3)])
def test_schedule_and_averages_equal_the_stepwise_oracles(n_p, n_o, seed):
    # at dt = 0.013 the steps of the three segments differ in their last bits;
    # at dt = 0.7 the 0.5 disconnected segment takes a single step
    segments = random_schedule(seed, n_p, n_o)
    for dt in (0.01, 0.013, 0.7):
        series = propagate_schedule(segments, dt)
        grid = series.times
        assert np.array_equal(series.maps, stepwise_propagate_schedule(segments, grid)), dt
        averages = time_average(series)
        assert np.array_equal(averages.times, grid[1:]), dt
        assert np.array_equal(averages.averages, trapezoid_average(grid, series.maps)), dt
    # any grid for one segment: linspace steps differ in their last bits, so
    # the step cache holds many keys; summed 0.1 steps miss 3.0 by rounding
    grids = {
        "linspace": np.linspace(0.0, 3.0, 301),
        "summed": np.concatenate([[0.0], np.cumsum(np.full(30, 0.1))]),
    }
    a = segments[0].a
    for name, grid in grids.items():
        single = propagate(a, grid)
        oracle = stepwise_propagate_schedule([Segment(a, float(grid[-1]))], grid)
        assert np.array_equal(single.maps, oracle), name
        assert np.array_equal(time_average(single).averages, trapezoid_average(grid, oracle)), name


def test_time_average_of_identity_series():
    series = propagate(np.zeros((2, 2)), uniform_grid(3.0, 0.1))
    averages = time_average(series)
    assert np.allclose(averages.averages, np.eye(2), atol=1e-14)
    assert averages.times[0] > 0.0


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
        averages = time_average(propagate(aug.a_a, uniform_grid(10.0, dt)))
        k = int(np.argmin(np.abs(averages.times - 10.0)))
        errors.append(abs(averages.averages[k, 2, 0] - exact))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_exact_average_cross_checks_trapezoid():
    r_o = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = 2.0 * make_theta(1).theta @ r_o
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
    ccr = make_theta(1)
    series = propagate(np.eye(2), np.array([0.0, 0.5, 1.0]))
    report = invariant_monitor(series, ccr, np.zeros((2, 2)))
    assert report.max_ccr_residual == pytest.approx(np.exp(2.0) - 1.0, rel=1e-6)


def test_invariant_monitor_slices_match_whole_series():
    # the last segment of the measurement schedule: longer than one slice, and
    # its first map is not the identity
    segments, _, aug3 = measurement_segments()
    series = propagate_schedule(segments, 0.01)
    lo, hi = series.edges[2:]
    piece = PropagatorSeries(times=series.times[lo:], maps=series.maps[lo:], edges=(0, hi - lo))
    assert piece.maps.shape[0] > MONITOR_SLICE
    assert not np.array_equal(piece.maps[0], np.eye(4))
    report = invariant_monitor(piece, aug3.ccr, aug3.r_a)
    expected = invariant_residuals(piece.maps, aug3.ccr.theta, aug3.r_a)
    assert (report.max_ccr_residual, report.max_energy_residual) == expected
    assert min(expected) > 0.0


def test_invariant_monitor_zero_dynamics_is_exact():
    ccr = make_theta(2)
    series = propagate(np.zeros((4, 4)), uniform_grid(5.0, 0.5))
    report = invariant_monitor(series, ccr, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert report.max_ccr_residual == 0.0
    assert report.max_energy_residual == 0.0


def test_convergence_diagnostics_on_canonical_observer():
    aug = one_mode_augmented()
    report = convergence_diagnostics(aug, horizon=100.0, dt=0.01)
    assert report.converged
    assert report.bound_constant == pytest.approx(np.sqrt(2.0), abs=1e-12)
    k = int(np.argmin(np.abs(report.t_values - 100.0)))
    assert report.d_values[k] <= 0.02
    assert report.max_t_times_d <= report.bound_constant + 1e-6
    assert report.decay_rate < -0.5


def test_convergence_on_held_averages_matches_convergence_diagnostics():
    # averages of a longer run, truncated at the horizon, give the same report
    aug = one_mode_augmented()
    averages = time_average(propagate(aug.a_a, uniform_grid(100.0, 0.01)))
    held = average_convergence(aug, averages, horizon=50.0, dt=0.01)
    fresh = convergence_diagnostics(aug, horizon=50.0, dt=0.01)
    assert held.t_values[-1] == 50.0
    for name in ("t_values", "d_values", "bound_constant", "max_t_times_d", "decay_rate", "converged"):
        assert np.array_equal(getattr(held, name), getattr(fresh, name)), name


def test_scaled_average_error_stays_bounded_to_long_horizons():
    aug = one_mode_augmented()
    report = convergence_diagnostics(aug, horizon=1000.0, dt=0.02)
    assert report.max_t_times_d <= report.bound_constant + 1e-6
    assert report.converged
    ladder = report.t_values[report.t_values >= 1.0]
    assert ladder.size >= 8 and ladder[-1] == 1000.0


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
