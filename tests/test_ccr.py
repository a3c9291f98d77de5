"""Tests for the commutation structure, the realizability residual and the plant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dcobserver import PlantSpec, make_plant, make_theta, realizability_residual
from helpers import (
    A_ONE_MODE,
    R_ONE_MODE,
    hamiltonian_of,
    one_mode_augmented,
    random_augmented,
    random_realizable,
)

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_make_theta_single_mode():
    ccr = make_theta(1)
    assert ccr.n == 2
    assert np.array_equal(ccr.theta, J)


def test_make_theta_two_modes_block_diagonal():
    ccr = make_theta(2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = J
    expected[2:, 2:] = J
    assert np.array_equal(ccr.theta, expected)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_make_theta_is_one_shared_read_only_structure(n_modes):
    ccr = make_theta(n_modes)
    assert make_theta(n_modes) is ccr
    assert ccr.theta is ccr.theta
    with pytest.raises(ValueError, match="read-only"):
        ccr.theta[0, 1] = 2.0
    assert np.array_equal(ccr.theta, np.kron(np.eye(n_modes), J))


def test_augmented_system_reads_the_shared_theta():
    aug = one_mode_augmented()
    assert aug.ccr is make_theta(2)
    assert np.shares_memory(aug.theta_2, make_theta(2).theta)


@given(n_modes=st.integers(min_value=1, max_value=12))
def test_theta_skew_and_squares_to_minus_identity(n_modes):
    ccr = make_theta(n_modes)
    assert np.array_equal(ccr.theta + ccr.theta.T, np.zeros((ccr.n, ccr.n)))
    assert np.array_equal(ccr.theta @ ccr.theta, -np.eye(ccr.n))


@pytest.mark.parametrize("bad", [0, -3])
def test_make_theta_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        make_theta(bad)


def test_realizability_of_one_mode_dynamics_is_exact():
    assert realizability_residual(A_ONE_MODE, make_theta(2).theta) == 0.0


def test_identity_dynamics_not_realizable():
    assert realizability_residual(np.eye(4), make_theta(2).theta) == pytest.approx(2.0)


def test_zero_dynamics_realizable():
    assert realizability_residual(np.zeros((2, 2)), make_theta(1).theta) == 0.0


def test_realizability_dimension_mismatch():
    with pytest.raises(ValueError):
        realizability_residual(np.eye(3), make_theta(2).theta)


def test_hamiltonian_from_zero_dynamics():
    assert np.array_equal(hamiltonian_of(np.zeros((2, 2)), J), np.zeros((2, 2)))


def test_hamiltonian_from_rotation_dynamics():
    # a = 2J generates the harmonic oscillator with unit Hamiltonian block
    assert np.allclose(hamiltonian_of(2.0 * J, J), np.eye(2), atol=1e-15)


def test_hamiltonian_of_one_mode_system():
    aug = one_mode_augmented()
    assert np.array_equal(aug.r_a, R_ONE_MODE)
    assert np.array_equal(hamiltonian_of(A_ONE_MODE, aug.ccr.theta), R_ONE_MODE)


def test_dynamics_from_hamiltonian_examples():
    # assemble_augmented forms a_a = 2 theta r_a from the one-mode Hamiltonian
    assert np.array_equal(one_mode_augmented().a_a, A_ONE_MODE)
    assert np.array_equal(2.0 * make_theta(2).theta @ R_ONE_MODE, A_ONE_MODE)


@given(seed=st.integers(0, 10_000), n_modes=st.integers(1, 8))
@settings(max_examples=60)
def test_generated_dynamics_always_realizable(seed, n_modes):
    rng = np.random.default_rng(seed)
    ccr = make_theta(n_modes)
    g = rng.normal(size=(ccr.n, ccr.n))
    r = 0.5 * (g + g.T)
    assert realizability_residual(2.0 * (ccr.theta @ r), ccr.theta) <= 1e-12


@given(seed=st.integers(0, 10_000), shape=st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 6), (6, 6)]))
@settings(max_examples=60, deadline=None)
def test_hamiltonian_round_trip_is_tight(seed, shape):
    # r_a = -theta a_a / 2 inverts a_a = 2 theta r_a, and is the symmetric oracle
    aug = random_augmented(np.random.default_rng(seed), *shape)
    theta, r_a = aug.ccr.theta, aug.r_a
    assert np.max(np.abs(2.0 * (theta @ r_a) - aug.a_a)) <= 1e-12
    assert np.max(np.abs(r_a - r_a.T)) <= 1e-12
    assert np.max(np.abs(r_a - hamiltonian_of(aug.a_a, theta))) <= 1e-12


def coupling(plant) -> float:
    """max|beta.T theta_1 beta|: zero for one quadrature per mode."""
    return float(np.max(np.abs(plant.beta.T @ make_theta(plant.m_p).theta @ plant.beta)))


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
    ],
)
def test_plant_spec_validates_beta_on_construction(beta, message):
    with pytest.raises(ValueError, match=message):
        PlantSpec(np.array(beta))


def test_plant_spec_derives_everything_from_beta():
    beta = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.6], [0.0, 0.8]])
    plant = PlantSpec(beta)
    assert (plant.n_p, plant.m_p) == (4, 2)
    assert np.array_equal(plant.c_p, beta.T)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_flow_preserves_commutation_matrix(seed):
    rng = np.random.default_rng(seed)
    a, ccr, _ = random_realizable(rng, int(rng.integers(1, 5)), scale=0.7)
    for t in rng.uniform(0.0, 4.0, size=5):
        phi = expm(a * t)
        assert np.max(np.abs(phi @ ccr.theta @ phi.T - ccr.theta)) <= 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_flow_preserves_hamiltonian(seed):
    rng = np.random.default_rng(seed)
    a, ccr, r = random_realizable(rng, int(rng.integers(1, 5)), scale=0.7)
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
