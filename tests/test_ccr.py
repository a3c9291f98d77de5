"""Tests for the commutation structure, the realizability residual and the plant."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from dcobserver import (
    AugmentedSystem,
    ObserverSpec,
    PlantSpec,
    convergence_diagnostics,
    invariant_monitor,
    make_plant,
    make_theta,
    propagate,
    realizability_residual,
    synthesize_observer,
    uniform_grid,
)
from dcobserver.ccr import _as_float
from helpers import (
    A_ONE_MODE,
    R_ONE_MODE,
    hamiltonian_of,
    one_mode_augmented,
    random_augmented,
    random_realizable,
    swapped_augmented,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# seeds of the random-instance tests, one fixed draw
SEEDS = np.random.default_rng(20140601).integers(0, 10_000, size=40).tolist()


def test_make_theta_single_mode():
    theta = make_theta(1)
    assert theta.shape == (2, 2)
    assert np.array_equal(theta, J)


def test_make_theta_two_modes_block_diagonal():
    expected = np.zeros((4, 4))
    expected[:2, :2] = J
    expected[2:, 2:] = J
    assert np.array_equal(make_theta(2), expected)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_make_theta_is_one_shared_read_only_structure(n_modes):
    theta = make_theta(n_modes)
    assert type(theta) is np.ndarray and theta.dtype == float
    assert make_theta(n_modes) is theta
    with pytest.raises(ValueError, match="read-only"):
        theta[0, 1] = 2.0
    assert np.array_equal(theta, np.kron(np.eye(n_modes), J))


def test_augmented_system_reads_the_shared_theta():
    aug = one_mode_augmented()
    assert aug.ccr is make_theta(2)


@pytest.mark.parametrize("n_modes", range(1, 13))
def test_theta_skew_and_squares_to_minus_identity(n_modes):
    theta = make_theta(n_modes)
    assert np.array_equal(theta + theta.T, np.zeros((2 * n_modes, 2 * n_modes)))
    assert np.array_equal(theta @ theta, -np.eye(2 * n_modes))


@pytest.mark.parametrize("bad", [0, -3, 1.5])
def test_make_theta_rejects_nonpositive(bad):
    with pytest.raises(ValueError, match="^n_modes must be a positive integer"):
        make_theta(bad)


def test_realizability_of_one_mode_dynamics_is_exact():
    assert realizability_residual(A_ONE_MODE, make_theta(2)) == 0.0


def test_identity_dynamics_not_realizable():
    assert realizability_residual(np.eye(4), make_theta(2)) == pytest.approx(2.0)


def test_zero_dynamics_realizable():
    assert realizability_residual(np.zeros((2, 2)), make_theta(1)) == 0.0


def test_realizability_dimension_mismatch():
    with pytest.raises(ValueError):
        realizability_residual(np.eye(3), make_theta(2))


def test_hamiltonian_from_zero_dynamics():
    assert np.array_equal(hamiltonian_of(np.zeros((2, 2)), J), np.zeros((2, 2)))


def test_hamiltonian_from_rotation_dynamics():
    # a = 2J generates the harmonic oscillator with unit Hamiltonian block
    assert np.allclose(hamiltonian_of(2.0 * J, J), np.eye(2), atol=1e-15)


def test_hamiltonian_of_one_mode_system():
    aug = one_mode_augmented()
    assert np.array_equal(aug.r_a, R_ONE_MODE)
    assert np.array_equal(hamiltonian_of(A_ONE_MODE, aug.ccr), R_ONE_MODE)


def test_dynamics_from_hamiltonian_examples():
    # assemble_augmented forms a_a = 2 theta r_a from the one-mode Hamiltonian
    assert np.array_equal(one_mode_augmented().a_a, A_ONE_MODE)
    assert np.array_equal(2.0 * make_theta(2) @ R_ONE_MODE, A_ONE_MODE)


@pytest.mark.parametrize("seed", SEEDS[:8])
@pytest.mark.parametrize("n_modes", range(1, 9))
def test_generated_dynamics_always_realizable(seed, n_modes):
    rng = np.random.default_rng(seed)
    theta = make_theta(n_modes)
    g = rng.normal(size=theta.shape)
    r = 0.5 * (g + g.T)
    assert realizability_residual(2.0 * (theta @ r), theta) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS[:12])
@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 2), (4, 6), (6, 6)])
def test_hamiltonian_round_trip_is_tight(seed, shape):
    # r_a = -theta a_a / 2 inverts a_a = 2 theta r_a, and is the symmetric oracle
    aug = random_augmented(np.random.default_rng(seed), *shape)
    theta, r_a = aug.ccr, aug.r_a
    assert np.max(np.abs(2.0 * (theta @ r_a) - aug.a_a)) <= 1e-12
    assert np.max(np.abs(r_a - r_a.T)) <= 1e-12
    assert np.max(np.abs(r_a - hamiltonian_of(aug.a_a, theta))) <= 1e-12


def coupling(plant) -> float:
    """max|beta.T theta_1 beta|: zero for one quadrature per mode."""
    return float(np.max(np.abs(plant.beta.T @ make_theta(plant.m_p) @ plant.beta)))


def test_make_plant_single_quadrature():
    assert coupling(make_plant([[1.0], [0.0]])) == 0.0


def test_make_plant_other_quadrature():
    assert coupling(make_plant([[0.0], [1.0]])) == 0.0


def test_make_plant_two_modes():
    beta = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    assert coupling(make_plant(beta)) == 0.0


def test_make_plant_rejects_off_block_entries():
    # blocks moved off the mode diagonal
    beta = [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="outside its mode block"):
        make_plant(beta)


def test_make_plant_rejects_zero_block():
    beta = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="zero"):
        make_plant(beta)


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e200])
def test_make_plant_tests_each_block_exactly(scale):
    # a block's norm underflows to 0 below about 1e-162 and overflows past
    # about 1e154 (a RuntimeWarning): neither may decide whether it is zero
    plant = make_plant([[scale, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, -scale]])
    assert plant.beta[0, 0] == scale and plant.beta[3, 1] == -scale


def test_make_plant_rejects_wrong_shape():
    with pytest.raises(ValueError):
        make_plant(np.ones((4, 1)))


@pytest.mark.parametrize(
    "beta, message",
    [
        ([[1.0, 0.0], [0.0, 0.0], [0.5, 1.0], [0.0, 0.0]], "outside its mode block"),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "zero"),
        ([[1.0], [0.0], [0.0]], "n_p x \\(n_p/2\\)"),
        ([1.0, 0.0], "2-D"),
        ([[np.inf], [0.0]], "matrix contains non-finite entries$"),
    ],
)
def test_plant_spec_validates_beta_on_construction(beta, message):
    # every message starts with the field, as the other specs' messages do
    with pytest.raises(ValueError, match=f"^beta: .*{message}"):
        PlantSpec(np.array(beta))


def test_plant_spec_derives_everything_from_beta():
    beta = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.6], [0.0, 0.8]])
    plant = PlantSpec(beta)
    assert (plant.n_p, plant.m_p) == (4, 2)
    assert np.array_equal(plant.c_p, beta.T)


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_preserves_commutation_matrix(seed):
    rng = np.random.default_rng(seed)
    a, theta, _ = random_realizable(rng, int(rng.integers(1, 5)), scale=0.7)
    for t in rng.uniform(0.0, 4.0, size=5):
        phi = expm(a * t)
        assert np.max(np.abs(phi @ theta @ phi.T - theta)) <= 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_preserves_hamiltonian(seed):
    rng = np.random.default_rng(seed)
    a, _, r = random_realizable(rng, int(rng.integers(1, 5)), scale=0.7)
    for t in rng.uniform(0.0, 4.0, size=5):
        phi = expm(a * t)
        assert np.max(np.abs(phi.T @ r @ phi - r)) <= 1e-9


def test_no_realizable_system_is_asymptotically_stable():
    # spectrum of a realizable system is symmetric about the imaginary axis,
    # so the rightmost real part can never be negative
    rng = np.random.default_rng(3)
    for _ in range(120):
        a, _, _ = random_realizable(rng, int(rng.integers(1, 6)))
        assert float(np.max(np.linalg.eigvals(a).real)) >= -1e-9


# -- the intake: every public call converts its matrices and times through ccr._as_float --

_HUGE = 10**400  # an integer float() cannot hold
_GRID = [0.0, 0.5, 1.0]


def _entry_replaced(good, x):
    """``good`` as nested lists with its first entry ``x``; a scalar becomes ``x`` itself."""
    value = np.asarray(good, dtype=float).tolist()
    if not isinstance(value, list):
        return x
    row = value
    while isinstance(row[0], list):
        row = row[0]
    row[0] = x
    return value


def _calls():
    """(argument name, a valid value, the call on a value) for every public call that converts input."""
    aug = one_mode_augmented()
    plant, alpha, c_o = aug.plant, [[-1.0], [0.0]], [[1.0, 0.0]]
    series = propagate(A_ONE_MODE, _GRID)
    return {
        "make_plant-beta": ("beta", [[1.0], [0.0]], make_plant),
        "PlantSpec-beta": ("beta", [[1.0], [0.0]], PlantSpec),
        "ObserverSpec-r_o": ("r_o", np.eye(2), lambda v: ObserverSpec(r_o=v, alpha=alpha, c_o=c_o)),
        "ObserverSpec-alpha": ("alpha", alpha, lambda v: ObserverSpec(r_o=np.eye(2), alpha=v, c_o=c_o)),
        "ObserverSpec-c_o": ("c_o", c_o, lambda v: ObserverSpec(r_o=np.eye(2), alpha=alpha, c_o=v)),
        "synthesize_observer-r_o": ("r_o", np.eye(2), lambda v: synthesize_observer(plant, v, c_o)),
        "synthesize_observer-c_o": ("c_o", c_o, lambda v: synthesize_observer(plant, np.eye(2), v)),
        "synthesize_observer-alpha": ("alpha", alpha, lambda v: synthesize_observer(plant, np.eye(2), alpha=v)),
        "synthesize_observer-c_o-with-alpha": (
            "c_o", c_o, lambda v: synthesize_observer(plant, np.eye(2), c_o=v, alpha=alpha)
        ),
        "AugmentedSystem-a_a": ("a_a", A_ONE_MODE, lambda v: AugmentedSystem(plant, aug.observer, v)),
        "realizability_residual-a": ("a", A_ONE_MODE, lambda v: realizability_residual(v, aug.ccr)),
        "realizability_residual-theta": ("theta", aug.ccr, lambda v: realizability_residual(A_ONE_MODE, v)),
        "propagate-a": ("a", A_ONE_MODE, lambda v: propagate(v, _GRID)),
        "propagate-grid": ("grid", _GRID, lambda v: propagate(A_ONE_MODE, v)),
        "invariant_monitor-theta": ("theta", aug.ccr, lambda v: invariant_monitor(series, v, R_ONE_MODE)),
        "invariant_monitor-r_a": ("r_a", R_ONE_MODE, lambda v: invariant_monitor(series, aug.ccr, v)),
        "uniform_grid-t_end": ("t_end", 1.0, lambda v: uniform_grid(v, 0.5)),
        "uniform_grid-dt": ("dt", 0.5, lambda v: uniform_grid(1.0, v)),
        "convergence_diagnostics-horizon": ("horizon", 10.0, lambda v: convergence_diagnostics(aug, v, 0.5)),
        "convergence_diagnostics-dt": ("dt", 0.5, lambda v: convergence_diagnostics(aug, 10.0, v)),
    }


_BAD_INPUTS = {
    "integer-beyond-float": lambda good: _entry_replaced(good, _HUGE),
    "complex-entry": lambda good: _entry_replaced(good, 1 + 1j),
    "complex128-array": lambda good: np.asarray(good, dtype=np.complex128),
    "string-entry": lambda good: _entry_replaced(good, "1"),
}


@pytest.mark.parametrize("bad", _BAD_INPUTS)
@pytest.mark.parametrize("call", _calls())
def test_every_call_refuses_what_is_no_real_number_naming_its_argument(call, bad):
    # not OverflowError, TypeError or a ComplexWarning, and no string parsed as a number
    name, good, fn = _calls()[call]
    fn(good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            fn(_BAD_INPUTS[bad](good))
    assert type(err.value) is ValueError
    assert str(err.value).startswith(f"{name}: "), str(err.value)


@pytest.mark.parametrize(
    "value, message",
    [
        ([[1.0, None]], "x: expected real numbers, got the entry None"),
        ([[1.0, 2.0], [3.0]], "x: not a rectangular array ("),
        (np.empty((0, 2), dtype=complex), "x: expected real numbers, got complex128 entries"),
        ([[_HUGE]], "x: got an integer beyond the float range"),
    ],
)
def test_intake_messages(value, message):
    with pytest.raises(ValueError) as err:
        _as_float(value, "x")
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "form",
    [
        pytest.param(lambda m: np.asarray(m, dtype=float).tolist(), id="lists"),
        pytest.param(lambda m: np.asarray(m, dtype=float), id="float64"),
        pytest.param(lambda m: np.asfortranarray(m, dtype=float), id="fortran"),
        pytest.param(lambda m: np.asarray(m, dtype=np.float32), id="float32"),
        pytest.param(lambda m: np.round(np.asarray(m) * 1e6).astype(np.int64), id="int64"),
        pytest.param(lambda m: np.asarray(m, dtype=np.longdouble), id="longdouble"),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_intake_converts_real_input_as_asarray_does(form, seed):
    # the stored matrices have the bits of np.array(value, dtype=float), as before the intake
    rng = np.random.default_rng(seed)
    stock = [one_mode_augmented(), swapped_augmented()]
    for aug in stock + [random_augmented(rng, 4, 6), random_augmented(rng, 6, 4)]:
        beta, r_o, alpha, c_o, a_a = (
            form(m) for m in (aug.plant.beta, aug.observer.r_o, aug.observer.alpha, aug.observer.c_o, aug.a_a)
        )
        plant = make_plant(beta)
        obs = ObserverSpec(r_o=r_o, alpha=alpha, c_o=c_o)
        stored = [plant.beta, obs.r_o, obs.alpha, obs.c_o, AugmentedSystem(plant, obs, a_a).a_a]
        for got, given in zip(stored, (beta, r_o, alpha, c_o, a_a)):
            assert got.tobytes() == np.array(given, dtype=float).tobytes()
    # a float64 array is taken as it is, not copied
    grid = uniform_grid(10.0, 0.5)
    assert _as_float(grid, "grid") is grid
    assert propagate(A_ONE_MODE, grid).times is grid

