"""Tests for the closed-form oracle of expm(a_a t), the library's closed form and the certificate's norm bound."""

import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dcobserver import assemble_augmented, make_plant, make_theta, propagate
from dcobserver import synthesize_observer
from dcobserver.closed_form import certify, observer_flow
from helpers import (
    closed_form_map,
    closed_form_pieces,
    exp_norm_bound,
    observer_block,
    one_mode_augmented,
    plant_block,
    plant_block_quadrature,
    random_augmented,
    random_beta,
    random_output_matrix,
    random_spd,
    time_major_basis,
    time_major_flow,
    van_loan_integral,
)


def test_observer_block_at_zero_time():
    aug = one_mode_augmented()
    assert np.array_equal(observer_block(0.0, aug), np.hstack([np.zeros((2, 2)), np.eye(2)]))


@pytest.mark.parametrize("t", [0.3, 1.234, 4.0, 9.7])
def test_observer_rows_match_hand_solution(t):
    aug = one_mode_augmented()
    block = observer_block(t, aug)
    q_row = [1 - np.cos(2 * t), 0.0, np.cos(2 * t), np.sin(2 * t)]
    p_row = [np.sin(2 * t), 0.0, -np.sin(2 * t), np.cos(2 * t)]
    assert np.allclose(block[0], q_row, atol=1e-12)
    assert np.allclose(block[1], p_row, atol=1e-12)


def test_plant_block_at_zero_time():
    aug = one_mode_augmented()
    assert np.array_equal(plant_block(0.0, aug), np.hstack([np.eye(2), np.zeros((2, 2))]))


@pytest.mark.parametrize("t", [0.5, 2.0, 7.3, 20.0])
def test_plant_rows_match_hand_solution(t):
    aug = one_mode_augmented()
    block = plant_block(t, aug)
    assert np.allclose(block[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    p_row = [2 * t - np.sin(2 * t), 1.0, np.sin(2 * t), 1 - np.cos(2 * t)]
    assert np.allclose(block[1], p_row, atol=1e-12)


def test_blocks_reject_negative_time():
    aug = one_mode_augmented()
    with pytest.raises(ValueError):
        plant_block(-1.0, aug)
    with pytest.raises(ValueError):
        observer_block(-0.5, aug)


def test_coefficient_map_against_ode_oracle():
    # independent ground truth: integrate Phi' = a_a Phi with a high-order solver
    aug = one_mode_augmented()
    a = aug.a_a
    t_end = 3.0

    def rhs(_, y):
        return (a @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(rhs, (0.0, t_end), np.eye(4).ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
    phi_ode = sol.y[:, -1].reshape(4, 4)
    assert np.max(np.abs(closed_form_map(t_end, aug) - phi_ode)) <= 1e-9


def test_closed_form_equals_matrix_exponential_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(12):
        aug = random_augmented(rng, int(rng.choice([2, 4])), int(rng.choice([2, 4])))
        for t in rng.uniform(0.0, 20.0, size=25):
            err = np.max(np.abs(closed_form_map(t, aug) - expm(aug.a_a * t)))
            assert err <= 1e-8


def test_expanded_form_equals_quadrature_form():
    rng = np.random.default_rng(29)
    for _ in range(4):
        aug = random_augmented(rng, int(rng.choice([2, 4])), int(rng.choice([2, 4])))
        for t in (0.0, 0.7, 3.9, 11.0):
            err = np.max(np.abs(plant_block_quadrature(t, aug) - plant_block(t, aug)))
            assert err <= 1e-9


def test_coefficient_map_is_symplectic():
    rng = np.random.default_rng(43)
    aug = random_augmented(rng, 2, 4)
    theta = aug.ccr
    for t in rng.uniform(0.0, 15.0, size=10):
        m = closed_form_map(t, aug)
        assert np.max(np.abs(m @ theta @ m.T - theta)) <= 1e-9


def test_estimated_rows_of_closed_form_are_time_invariant():
    rng = np.random.default_rng(47)
    aug = random_augmented(rng, 4, 4)
    rows0 = aug.plant_output @ closed_form_map(0.0, aug)
    for t in rng.uniform(0.0, 25.0, size=12):
        rows = aug.plant_output @ closed_form_map(t, aug)
        assert np.max(np.abs(rows - rows0)) <= 1e-10


def test_secular_term_is_invisible_to_the_estimated_output():
    rng = np.random.default_rng(53)
    for _ in range(8):
        aug = random_augmented(rng, int(rng.choice([2, 4])), int(rng.choice([2, 4])))
        _, _, _, p, k, r_inv, _ = closed_form_pieces(aug)
        secular = -2.0 * (p @ r_inv @ k)
        assert np.max(np.abs(aug.plant.c_p @ secular)) <= 1e-12
        # but the drift itself is generically present
        assert np.max(np.abs(secular)) > 1e-6


def test_output_maps_examples():
    # z_p rows are [c_p 0]; z_o rows are c_o applied to the observer block
    aug = one_mode_augmented()
    assert np.array_equal(aug.plant_output, [[1.0, 0.0, 0.0, 0.0]])
    z_o = aug.observer.c_o @ observer_block(0.0, aug)
    assert np.allclose(z_o, [[0.0, 0.0, 1.0, 0.0]], atol=1e-14)
    z_o = aug.observer.c_o @ observer_block(np.pi / 2, aug)
    assert np.allclose(z_o, [[2.0, 0.0, -1.0, 0.0]], atol=1e-12)
    assert np.allclose(aug.observer_output @ closed_form_map(np.pi / 2, aug), z_o, atol=1e-12)


def observer_certificate(r_o):
    """The certificate of the observer block 2 theta_2 r_o alone (n_p = 0)."""
    r_o = np.asarray(r_o, dtype=float)
    return certify(2.0 * make_theta(r_o.shape[0] // 2) @ r_o, 0)


def test_exp_norm_bound_examples():
    assert observer_certificate(np.eye(2)).norm_bound == pytest.approx(1.0)
    assert observer_certificate(np.diag([4.0, 1.0])).norm_bound == pytest.approx(2.0)
    indefinite = observer_certificate(np.diag([1.0, -1.0]))
    assert indefinite.flow is None
    assert indefinite.message.startswith("R' is not positive definite")
    assert np.isnan(indefinite.norm_bound)


def test_exp_norm_bound_is_sharp_for_diagonal_block():
    r_o = np.diag([2.0, 1.0])
    theta_2 = make_theta(1)
    b = 2.0 * theta_2 @ r_o
    sampled = max(
        float(np.linalg.norm(expm(b * t), 2)) for t in np.linspace(0.0, 50.0, 5001)
    )
    bound = observer_certificate(r_o).norm_bound
    assert sampled <= bound + 1e-8
    assert sampled >= bound - 1e-3


@pytest.mark.parametrize("n_o", [2, 4, 8, 16])
def test_norm_bound_equals_the_definiteness_oracle(n_o):
    # the eigenvalues of R' = r_o come from the certificate's own eigh
    rng = np.random.default_rng(100 + n_o)
    for _ in range(10):
        r_o = random_spd(rng, n_o, 0.2, 5.0)
        bound = observer_certificate(r_o).norm_bound
        assert bound == pytest.approx(exp_norm_bound(r_o), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_p, n_o", [(2, 2), (2, 6), (4, 2), (4, 6), (8, 4)])
def test_observer_flow_equals_the_closed_form_oracle(n_p, n_o):
    rng = np.random.default_rng(n_p * 10 + n_o)
    plant = make_plant(random_beta(rng, n_p))
    # r_o = I: every frequency equal
    c_o = random_output_matrix(rng, n_p // 2, n_o, np.eye(n_o))
    identity = synthesize_observer(plant, np.eye(n_o), c_o)
    for aug in (random_augmented(rng, n_p, n_o), assemble_augmented(plant, identity)):
        flow = observer_flow(aug.a_a)
        assert flow.coef.shape == (n_o + 2, n_p + n_o, n_p + n_o) and flow.omega.shape == (n_o // 2,)
        t = np.concatenate([[0.0], rng.uniform(0.0, 20.0, size=8)])
        maps, integrals = flow.maps(t), flow.integrals(t)
        for k, tk in enumerate(t):
            # the bounds are the oracles' own rounding: scipy's expm of the
            # Van Loan block loses up to 4e-13 of max|ref| at t = 20
            for got, ref, tol in [
                (maps[k], closed_form_map(tk, aug), 1e-13),
                (integrals[k], van_loan_integral(aug.a_a, tk), 2e-12),
            ]:
                assert np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


def test_all_zero_dynamics_are_the_identity_flow():
    for n in (1, 3, 4):
        flow = observer_flow(np.zeros((n, n)))
        t = np.array([0.0, 0.5, 7.0])
        assert np.array_equal(flow.maps(t), np.broadcast_to(np.eye(n), (3, n, n)))
        assert np.array_equal(flow.integrals(t), t[:, None, None] * np.eye(n))


def test_certify_and_observer_flow_take_a_through_the_intake():
    # a list is the flow of its array; a complex a names its argument, not
    # AttributeError on the list's shape or a ComplexWarning
    a = random_augmented(np.random.default_rng(4), 2, 2).a_a
    pairs = [(certify(a.tolist(), 2).flow, certify(a, 2).flow), (observer_flow(a.tolist()), observer_flow(a))]
    for listed, array in pairs:
        assert np.array_equal(listed.omega, array.omega) and np.array_equal(listed.coef, array.coef)
    for call in (lambda v: certify(v, 2), observer_flow):
        with pytest.raises(ValueError, match="^a: expected real numbers, got complex128 entries$"):
            call(a.astype(complex))


# (n_p, n_o) of a random system at each n; n = 32 and 80 are the splits of the
# benchmark's wide_custom and of the widest simulation tests.  n = 3 is the
# identity flow, which has no frequencies.
SPLITS = {3: None, 4: (2, 2), 8: (4, 4), 20: (8, 12), 32: (16, 16), 80: (32, 48)}


@cache
def flow_at(n):
    if SPLITS[n] is None:
        return observer_flow(np.zeros((n, n)))
    return observer_flow(random_augmented(np.random.default_rng(n), *SPLITS[n]).a_a)


# runs of one row, just under and at a multiple of 256, and past 4,096 rows,
# each from the start of a grid and from row 3,000; 4,097 rows at n = 80
# (210 MB of maps) is left out: the library evaluates 256 rows at a time there
@pytest.mark.parametrize(
    "n, rows, start",
    [
        (n, rows, start)
        for n in SPLITS
        for rows in (1, 255, 256, 4097)
        for start in (0, 3000)
        if (n, rows) != (80, 4097)
    ],
)
def test_frequency_major_basis_gives_the_bits_of_a_time_major_one(n, rows, start):
    flow = flow_at(n)
    t = np.arange(start, start + rows) * 0.05
    assert np.array_equal(flow.maps(t), time_major_flow(flow, t, integrated=False))
    assert np.array_equal(flow.integrals(t), time_major_flow(flow, t, integrated=True))


@pytest.mark.parametrize("n", [8, 32])
def test_flow_on_output_rows_gives_the_bits_of_a_time_major_basis(n):
    # convergence_diagnostics evaluates the coefficients projected onto m_p rows
    flow = flow_at(n)
    projected = replace(flow, coef=np.random.default_rng(n).normal(size=(n // 4, n)) @ flow.coef)
    t = np.arange(3000, 7097) * 0.05
    assert np.array_equal(projected.integrals(t), time_major_flow(projected, t, integrated=True))


@pytest.mark.parametrize("integrated", [False, True])
def test_basis_rows_are_the_time_major_columns(integrated):
    # near t = 1e-160, h = sin(w t / 2) squares to a subnormal, where (2 h) h
    # and 2 (h h) round apart; the flow's sums hide that, the basis does not
    flow = flow_at(20)
    t = np.concatenate([np.geomspace(1e-165, 1e-150, 64), np.arange(300) * 0.05])
    basis = flow._basis(t, integrated, np.empty(flow._scratch_size(t.size)))
    assert basis.flags.c_contiguous
    assert np.array_equal(basis.T, time_major_basis(flow, t, integrated))


@pytest.mark.parametrize("n", [3, 8])
def test_flow_of_no_times_is_empty(n):
    flow = flow_at(n)
    for evaluate in (flow.maps, flow.integrals):
        assert evaluate(np.array([])).shape == (0, n, n)


def test_flow_takes_a_list_of_times():
    flow = flow_at(8)
    t = [0.0, 1.0, 2.5]
    assert np.array_equal(flow.maps(t), flow.maps(np.array(t)))
    assert np.array_equal(flow.integrals(t), flow.integrals(np.array(t)))


@pytest.mark.parametrize(
    "t, message",
    [
        (np.array([1 + 1j]), "t: expected real numbers, got complex128 entries"),
        (["1"], "t: expected real numbers, got <U1 entries"),
        ([10**400], "t: got an integer beyond the float range"),
    ],
)
def test_flow_times_go_through_the_intake(t, message):
    # numpy would drop the imaginary part with a warning, parse the string
    # and raise OverflowError; the public series' flow names its argument
    flow = propagate(random_augmented(np.random.default_rng(8), 4, 4).a_a, [0.0, 1.0]).flow
    for evaluate in (flow.maps, flow.integrals):
        with pytest.raises(ValueError) as raised:
            evaluate(t)
        assert type(raised.value) is ValueError and str(raised.value) == message


@pytest.mark.parametrize("integrated", [False, True])
def test_a_run_with_out_and_scratch_allocates_no_array(integrated):
    # the basis and half angles go into the scratch, so a run of simulation's
    # _each_run allocates less than one copy of its times (only numpy's 64 KiB
    # buffer of a broadcasting ufunc), and gets the bits of the allocating
    # maps and integrals
    flow = flow_at(8)
    t = np.arange(16384) * 0.05
    out, scratch = np.empty((t.size, 8, 8)), np.empty(flow._scratch_size(t.size))
    flow._evaluate(t, integrated, out, scratch)
    tracemalloc.start()
    try:
        assert flow._evaluate(t, integrated, out, scratch) is out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes, peak
    assert np.array_equal(out, flow.integrals(t) if integrated else flow.maps(t))
