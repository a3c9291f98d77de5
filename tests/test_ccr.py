"""Tests for the commutation structure and the realizability algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcobserver import (
    PlantSpec,
    QuantumLinearSystem,
    check_realizability,
    dynamics_from_hamiltonian,
    expm,
    hamiltonian_from_dynamics,
    make_theta,
    realizability_residual,
    validate_beta,
)
from helpers import A_ONE_MODE, R_ONE_MODE, random_realizable, random_spd

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
    ccr = make_theta(2)
    assert realizability_residual(A_ONE_MODE, ccr.theta) == 0.0
    report = check_realizability(QuantumLinearSystem(a=A_ONE_MODE, ccr=ccr))
    assert report.realizable and report.residual == 0.0


def test_identity_dynamics_not_realizable():
    ccr = make_theta(2)
    report = check_realizability(QuantumLinearSystem(a=np.eye(4), ccr=ccr))
    assert not report.realizable
    assert report.residual == pytest.approx(2.0)


def test_zero_dynamics_realizable():
    ccr = make_theta(1)
    report = check_realizability(QuantumLinearSystem(a=np.zeros((2, 2)), ccr=ccr))
    assert report.realizable and report.residual == 0.0


def test_realizability_dimension_mismatch():
    with pytest.raises(ValueError):
        realizability_residual(np.eye(3), make_theta(2).theta)


def test_hamiltonian_from_zero_dynamics():
    assert np.array_equal(hamiltonian_from_dynamics(np.zeros((2, 2)), make_theta(1)), np.zeros((2, 2)))


def test_hamiltonian_from_rotation_dynamics():
    # a = 2J generates the harmonic oscillator with unit Hamiltonian block
    r = hamiltonian_from_dynamics(2.0 * J, make_theta(1))
    assert np.allclose(r, np.eye(2), atol=1e-15)


def test_hamiltonian_of_one_mode_system():
    r = hamiltonian_from_dynamics(A_ONE_MODE, make_theta(2))
    assert np.array_equal(r, R_ONE_MODE)


def test_hamiltonian_rejects_non_realizable():
    with pytest.raises(ValueError, match="residual"):
        hamiltonian_from_dynamics(np.eye(4), make_theta(2))


def test_dynamics_from_hamiltonian_examples():
    assert np.array_equal(dynamics_from_hamiltonian(np.zeros((2, 2)), make_theta(1)), np.zeros((2, 2)))
    assert np.array_equal(dynamics_from_hamiltonian(np.eye(2), make_theta(1)), 2.0 * J)
    assert np.array_equal(dynamics_from_hamiltonian(R_ONE_MODE, make_theta(2)), A_ONE_MODE)


def test_dynamics_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        dynamics_from_hamiltonian(bad, make_theta(1))


@given(seed=st.integers(0, 10_000), n_modes=st.integers(1, 8))
@settings(max_examples=60)
def test_generated_dynamics_always_realizable(seed, n_modes):
    rng = np.random.default_rng(seed)
    ccr = make_theta(n_modes)
    g = rng.normal(size=(ccr.n, ccr.n))
    r = 0.5 * (g + g.T)
    a = dynamics_from_hamiltonian(r, ccr)
    assert realizability_residual(a, ccr.theta) <= 1e-12


@given(seed=st.integers(0, 10_000), n_modes=st.integers(1, 8))
@settings(max_examples=60)
def test_hamiltonian_round_trip_is_tight(seed, n_modes):
    rng = np.random.default_rng(seed)
    ccr = make_theta(n_modes)
    g = rng.normal(size=(ccr.n, ccr.n))
    r = 0.5 * (g + g.T)
    a = dynamics_from_hamiltonian(r, ccr)
    assert np.max(np.abs(hamiltonian_from_dynamics(a, ccr) - r)) <= 1e-12
    # and the other direction, starting from the realizable dynamics matrix
    a_back = dynamics_from_hamiltonian(hamiltonian_from_dynamics(a, ccr), ccr)
    assert np.max(np.abs(a_back - a)) <= 1e-12


def test_validate_beta_single_quadrature():
    report = validate_beta([[1.0], [0.0]], make_theta(1))
    assert report.skew_residual == 0.0
    assert report.block_norms[0] == 1.0


def test_validate_beta_other_quadrature():
    report = validate_beta([[0.0], [1.0]], make_theta(1))
    assert report.skew_residual == 0.0


def test_validate_beta_two_modes():
    beta = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    report = validate_beta(beta, make_theta(2))
    assert report.n_modes == 2
    assert report.skew_residual == 0.0


def test_validate_beta_rejects_off_block_entries():
    # blocks moved off the mode diagonal
    beta = [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="outside its mode block"):
        validate_beta(beta, make_theta(2))


def test_validate_beta_rejects_zero_block():
    beta = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="zero"):
        validate_beta(beta, make_theta(2))


def test_validate_beta_rejects_wrong_shape():
    with pytest.raises(ValueError):
        validate_beta(np.ones((4, 1)), make_theta(2))


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
    assert (plant.n_p, plant.m_p, plant.ccr.n) == (4, 2, 4)
    assert np.array_equal(plant.c_p, beta.T)


def test_quantum_linear_system_consistency_checks():
    ccr = make_theta(1)
    with pytest.raises(ValueError, match="inconsistent"):
        QuantumLinearSystem(a=2.0 * J, ccr=ccr, r=2.0 * np.eye(2))
    with pytest.raises(ValueError, match="realizable"):
        QuantumLinearSystem(a=np.eye(2), ccr=ccr, realizable=True)
    sys = QuantumLinearSystem(a=2.0 * J, ccr=ccr, r=np.eye(2), realizable=True)
    assert sys.r is not None


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
    from dcobserver import eigenvalues

    rng = np.random.default_rng(3)
    for _ in range(120):
        a, _, _ = random_realizable(rng, int(rng.integers(1, 6)))
        report = eigenvalues(a)
        assert float(np.max(report.eigenvalues.real)) >= -1e-9
