"""Tests for observer synthesis and assembly of the augmented system."""

import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from dcobserver import (
    AugmentedSystem,
    ObserverSpec,
    assemble_augmented,
    make_plant,
    make_theta,
    synthesize_observer,
    verify_observer_conditions,
)
from dcobserver.closed_form import certify
from dcobserver.synthesis import gain_residual
from helpers import (
    A_ONE_MODE,
    A_SWAPPED,
    R_ONE_MODE,
    derived_matrices,
    eigenvalues_mp,
    flow_of,
    one_mode_augmented,
    random_augmented,
    random_orthogonal,
    swapped_augmented,
    theta_1,
    theta_2,
)


def test_alpha_for_position_observer():
    plant = make_plant([[1.0], [0.0]])
    obs = synthesize_observer(plant, np.eye(2), [[1.0, 0.0]])
    assert np.allclose(obs.alpha, [[-1.0], [0.0]], atol=1e-14)


def test_alpha_for_momentum_observer():
    plant = make_plant([[0.0], [1.0]])
    obs = synthesize_observer(plant, np.eye(2), [[0.0, 1.0]])
    assert np.allclose(obs.alpha, [[0.0], [-1.0]], atol=1e-14)


def test_alpha_scales_with_observer_hamiltonian():
    # c_o inv(2I) alpha = -1  =>  alpha = (-2, 0)
    plant = make_plant([[1.0], [0.0]])
    obs = synthesize_observer(plant, 2.0 * np.eye(2), [[1.0, 0.0]])
    assert np.allclose(obs.alpha, [[-2.0], [0.0]], atol=1e-13)


def test_scaling_invariance_of_gain_condition():
    plant = make_plant([[1.0], [0.0]])
    base = synthesize_observer(plant, np.eye(2), [[1.0, 0.0]])
    for c in (0.5, 3.0, 10.0):
        scaled = synthesize_observer(plant, c * np.eye(2), [[1.0, 0.0]])
        assert np.allclose(scaled.alpha, c * base.alpha, atol=1e-12 * c)
        r_c, base_r_c = (assemble_augmented(plant, o).r_a[:2, 2:] for o in (scaled, base))
        assert np.allclose(r_c, c * base_r_c, atol=1e-12 * c)


def test_minimum_norm_gain_when_underdetermined():
    # n_o > n_p: alpha must carry no component in the null space of the gain map
    rng = np.random.default_rng(2)
    plant = make_plant([[1.0], [0.0]])
    r_o = np.diag([1.0, 2.0, 3.0, 4.0])
    c_o = rng.normal(size=(1, 4))
    obs = synthesize_observer(plant, r_o, c_o)
    gain_map = c_o @ np.linalg.inv(r_o)
    assert np.max(np.abs(gain_map @ obs.alpha + np.eye(1))) <= 1e-12
    projector = np.linalg.pinv(gain_map) @ gain_map
    assert np.max(np.abs((np.eye(4) - projector) @ obs.alpha)) <= 1e-12


def test_rejects_indefinite_observer_hamiltonian():
    # the symmetric part needs smallest eigenvalue above 1e-12
    plant = make_plant([[1.0], [0.0]])
    for r_o, text in [
        (np.diag([1.0, -1.0]), "-1.000e+00"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "-1.000e+00"),
        (np.zeros((2, 2)), "0.000e+00"),
        (np.diag([1.0, 1e-13]), "1.000e-13"),
    ]:
        with pytest.raises(ValueError) as err:
            synthesize_observer(plant, r_o, [[1.0, 0.0]])
        assert str(err.value) == f"r_o: not positive definite (lambda_min = {text})"


def test_rejects_asymmetric_observer_hamiltonian():
    plant = make_plant([[1.0], [0.0]])
    # the tolerance is 1e-9 max(1, max|r_o|): 2e-9 past it at unit scale, 2e-6 at 1e3
    for r_o in ([[1.0, 2e-9], [0.0, 1.0]], [[1e3, 2e-6], [0.0, 1e3]], [[1.0, 0.5], [0.0, 1.0]]):
        with pytest.raises(ValueError) as err:
            synthesize_observer(plant, r_o, [[1.0, 0.0]])
        assert str(err.value) == "r_o: matrix is not symmetric to tolerance"


def test_accepts_r_o_inside_both_tolerances_and_stores_its_symmetric_part():
    plant = make_plant([[1.0], [0.0]])
    for r_o in ([[1.0, 5e-10], [0.0, 1.0]], [[1e3, 5e-7], [0.0, 1e3]], [[1.0, 0.0], [0.0, 1e-11]]):
        r_o = np.array(r_o)
        obs = synthesize_observer(plant, r_o, [[1.0, 0.0]])
        assert np.array_equal(obs.r_o, obs.r_o.T)
        assert np.array_equal(obs.r_o, 0.5 * (r_o + r_o.T))


def test_rejects_rank_deficient_output_matrix():
    plant = make_plant([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    c_o = np.array([[1.0, 0.0, 1.0, 0.0], [2.0, 0.0, 2.0, 0.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        synthesize_observer(plant, np.eye(4), c_o)


def test_rejects_wrong_output_shape():
    plant = make_plant([[1.0], [0.0]])
    with pytest.raises(ValueError, match="c_o"):
        synthesize_observer(plant, np.eye(2), [[1.0, 0.0, 0.0]])


def test_rejects_odd_observer_dimension():
    plant = make_plant([[1.0], [0.0]])
    with pytest.raises(ValueError, match="even"):
        synthesize_observer(plant, np.eye(3), [[1.0, 0.0, 0.0]])


def test_requires_output_matrix_or_gain():
    with pytest.raises(ValueError, match="^c_o: either"):
        synthesize_observer(make_plant([[1.0], [0.0]]), np.eye(2))


@pytest.mark.parametrize("n_p,n_o", [(2, 2), (4, 2), (8, 4), (2, 4), (4, 6), (6, 6)])
def test_given_gain_round_trips_through_synthesis(n_p, n_o):
    rng = np.random.default_rng(1000 + 10 * n_p + n_o)
    for _ in range(3):
        aug = random_augmented(rng, n_p, n_o)
        obs = aug.observer
        again = synthesize_observer(aug.plant, obs.r_o, alpha=obs.alpha)
        assert gain_residual(again) <= 1e-10
        assert verify_observer_conditions(assemble_augmented(aug.plant, again)).passes(1e-8)
        if n_o == aug.plant.m_p:
            # a square gain fixes the output matrix
            assert np.max(np.abs(again.c_o - obs.c_o)) <= 1e-12


def test_assemble_reproduces_one_mode_matrices_exactly():
    aug = one_mode_augmented()
    assert np.array_equal(aug.a_a, A_ONE_MODE)
    assert np.array_equal(aug.r_a, R_ONE_MODE)
    assert np.array_equal(aug.plant_output, [[1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(aug.observer_output, [[0.0, 0.0, 1.0, 0.0]])


@pytest.mark.parametrize("n_p, n_o, seed", [(2, 2, 0), (4, 2, 1), (2, 6, 2), (6, 4, 3)])
def test_derived_matrices_are_computed_once_read_only_and_bit_equal_their_formulas(n_p, n_o, seed):
    aug = random_augmented(np.random.default_rng(seed), n_p, n_o)
    for name, expected in derived_matrices(aug).items():
        value = getattr(aug, name)
        assert getattr(aug, name) is value, name
        assert value.shape == expected.shape and value.tobytes() == expected.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            value[0, 0] = 1.0


def test_stored_inputs_are_read_only_copies():
    # an input edited in place would leave the certificate and the derived
    # matrices stale; the caller's own arrays stay writable and unshared
    beta, r_o, alpha, c_o = np.array([[1.0], [0.0]]), np.eye(2), np.array([[-1.0], [0.0]]), np.array([[1.0, 0.0]])
    plant = make_plant(beta)
    spec = ObserverSpec(r_o=r_o, alpha=alpha, c_o=c_o)
    a_a = assemble_augmented(plant, spec).a_a.copy()
    aug = AugmentedSystem(plant=plant, observer=spec, a_a=a_a)
    verify_observer_conditions(aug)
    stored = [plant.beta, spec.r_o, spec.alpha, spec.c_o, aug.a_a]
    for given, kept in zip([beta, r_o, alpha, c_o, a_a], stored):
        assert np.array_equal(given, kept) and not np.shares_memory(given, kept)
        assert given.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 1 % kept.shape[1]] = 1.0
    assert verify_observer_conditions(aug).output_annihilation_residual == 0.0


def test_assemble_reproduces_swapped_observer_exactly():
    aug = swapped_augmented()
    assert np.array_equal(aug.a_a, A_SWAPPED)


def test_assemble_decoupled_observer_is_block_diagonal():
    plant = make_plant([[1.0], [0.0]])
    r_o = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = ObserverSpec(r_o=r_o, alpha=np.zeros((2, 1)), c_o=np.array([[1.0, 0.0]]))
    aug = assemble_augmented(plant, spec)
    expected = np.zeros((4, 4))
    expected[2:, 2:] = 2.0 * make_theta(1) @ r_o
    assert np.array_equal(aug.a_a, expected)


def test_assemble_rejects_dimension_mismatch():
    plant = make_plant([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    other = make_plant([[1.0], [0.0]])
    obs = synthesize_observer(other, np.eye(2), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        assemble_augmented(plant, obs)


def test_observer_spec_shape_validation():
    with pytest.raises(ValueError, match="^r_o:"):
        ObserverSpec(r_o=np.eye(3), alpha=np.zeros((3, 1)), c_o=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="^alpha:"):
        ObserverSpec(r_o=np.eye(2), alpha=np.zeros((4, 1)), c_o=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="^c_o:"):
        ObserverSpec(r_o=np.eye(2), alpha=np.zeros((2, 1)), c_o=np.zeros((2, 2)))


def test_verify_conditions_on_canonical_system():
    report = verify_observer_conditions(one_mode_augmented())
    assert report.r_o_lambda_min == pytest.approx(1.0)
    assert report.gain_residual <= 1e-12
    assert report.output_annihilation_residual == 0.0
    assert report.realizability_residual == 0.0
    assert report.spectrum_max_abs_real <= 1e-12
    expected = np.sort(np.array([0.0 + 0j, 0.0 + 0j, 2j, -2j]))
    assert np.allclose(np.sort(report.spectrum), expected, atol=1e-9)
    assert report.passes(1e-8)


def test_verify_conditions_flags_perturbed_dynamics():
    aug = one_mode_augmented()
    perturbed = aug.a_a.copy()
    perturbed[0, 0] = 0.1
    broken = dataclasses.replace(aug, a_a=perturbed)
    report = verify_observer_conditions(broken)
    assert report.realizability_residual > 1e-3
    assert not report.passes(1e-8)


def test_observer_block_spectrum_is_pure_rotation():
    spectrum = np.linalg.eigvals(2.0 * make_theta(1) @ np.eye(2))
    assert np.allclose(np.sort(spectrum), np.sort(np.array([2j, -2j])), atol=1e-12)


def test_estimated_rows_annihilate_the_flow():
    rng = np.random.default_rng(8)
    for _ in range(10):
        aug = random_augmented(rng, int(rng.choice([2, 4])), int(rng.choice([2, 4])))
        rows = aug.plant_output
        for t in rng.uniform(0.0, 10.0, size=6):
            assert np.max(np.abs(rows @ expm(aug.a_a * t) - rows)) <= 1e-10


def test_assembled_spectra_stay_on_imaginary_axis():
    rng = np.random.default_rng(13)
    for _ in range(10):
        aug = random_augmented(rng, int(rng.choice([2, 4])), int(rng.choice([2, 4])))
        assert np.max(np.abs(eigenvalues_mp(aug.a_a).real)) <= 1e-9


@pytest.mark.parametrize("n_p,n_o", [(2, 2), (2, 4), (4, 2), (4, 4), (6, 4)])
def test_random_valid_observers_verify_cleanly(n_p, n_o):
    rng = np.random.default_rng(100 * n_p + n_o)
    for _ in range(5):
        report = verify_observer_conditions(random_augmented(rng, n_p, n_o))
        assert report.r_o_lambda_min > 0
        assert report.gain_residual <= 1e-8
        assert report.output_annihilation_residual <= 1e-8
        assert report.realizability_residual <= 1e-8
        assert report.spectrum_max_abs_real <= 1e-8


def test_verifier_reports_the_certificate_lambda_min():
    # one answer for r_o: R' of an assembled a_a is r_o bit for bit, and the
    # report's lambda_min is the certificate's, not a second eigen-solve
    rng = np.random.default_rng(21)
    for _ in range(120):
        n_p = 2 * int(rng.integers(1, 5))
        n_o = 2 * int(rng.integers((n_p + 2) // 4, 5))  # n_o >= m_p = n_p / 2
        aug = random_augmented(rng, n_p, n_o)
        r_prime = -0.5 * (theta_2(aug) @ aug.a_a[n_p:, n_p:])
        assert np.array_equal(r_prime, aug.observer.r_o)
        lambda_min = verify_observer_conditions(aug).r_o_lambda_min
        assert lambda_min == aug.certificate.lambda_min
        assert lambda_min == pytest.approx(np.linalg.eigvalsh(aug.observer.r_o)[0], rel=1e-13)


def test_verify_reports_asymmetric_observer_hamiltonian():
    # an asymmetric r_o is a broken hypothesis to report, not an exception
    plant = make_plant([[1.0], [0.0]])
    r_o = np.array([[1.0, 0.2], [0.0, 1.0]])
    alpha = np.array([[-1.0], [0.0]])
    spec = ObserverSpec(r_o=r_o, alpha=alpha, c_o=np.array([[1.0, 0.0]]))
    report = verify_observer_conditions(assemble_augmented(plant, spec))
    assert report.r_o_lambda_min == pytest.approx(0.9)
    assert report.realizability_residual > 1e-3
    assert report.spectrum_max_abs_real >= 0.2
    assert not report.passes(1e-8)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["r_o", "alpha", "c_o"])
def test_verify_reports_non_finite_observer_entries(field, value):
    aug = one_mode_augmented()
    entries = getattr(aug.observer, field).copy()
    entries[0, 0] = value
    observer = dataclasses.replace(aug.observer, **{field: entries})
    broken = dataclasses.replace(aug, observer=observer)
    report = verify_observer_conditions(broken)
    assert not report.passes(1e-8)
    if field == "r_o":
        # the verifier judges the dynamics a_a: the entry shows in lambda_min
        # once a_a carries it
        reassembled = assemble_augmented(aug.plant, observer)
        report = verify_observer_conditions(reassembled)
        assert np.isnan(report.r_o_lambda_min)
        assert not report.passes(1e-8)


def test_synthesis_names_non_finite_observer_block_by_its_field():
    r_o = np.eye(2)
    r_o[0, 0] = np.nan
    with pytest.raises(ValueError) as err:
        synthesize_observer(make_plant([[1.0], [0.0]]), r_o, [[1.0, 0.0]])
    assert str(err.value) == "r_o: matrix contains non-finite entries"


@pytest.mark.parametrize(
    "field, given",
    [
        ("c_o", {"c_o": [[np.nan, 0.0]]}),
        ("alpha", {"alpha": [[np.inf], [0.0]]}),
        # given with a valid alpha, c_o is checked too: its NaN gain residual
        # would compare false with any tolerance
        ("c_o", {"alpha": [[-1.0], [0.0]], "c_o": [[np.nan, 0.0]]}),
    ],
)
def test_synthesis_names_non_finite_output_and_gain_by_their_field(field, given):
    with pytest.raises(ValueError) as err:
        synthesize_observer(make_plant([[1.0], [0.0]]), np.eye(2), **given)
    assert str(err.value) == f"{field}: matrix contains non-finite entries"


def test_assembling_an_infinite_observer_entry_warns_nothing_and_fails_verification():
    aug = one_mode_augmented()
    r_o = aug.observer.r_o.copy()
    r_o[0, 1] = np.inf
    observer = ObserverSpec(r_o=r_o, alpha=aug.observer.alpha, c_o=aug.observer.c_o)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        broken = assemble_augmented(aug.plant, observer)
        report = verify_observer_conditions(broken)
    assert not np.all(np.isfinite(broken.a_a))
    assert not report.passes()


def _with_blocks(aug, b=None, c=None, d=None):
    """``aug`` with blocks of a_a replaced: couplings B (plant rows), C (observer rows), block D."""
    n_p = aug.plant.n_p
    a = aug.a_a.copy()
    if b is not None:
        a[:n_p, n_p:] = b
    if c is not None:
        a[n_p:, :n_p] = c
    if d is not None:
        a[n_p:, n_p:] = d
    return dataclasses.replace(aug, a_a=a)


@pytest.mark.parametrize("n_p,n_o", [(2, 4), (4, 2), (4, 8), (8, 4), (6, 6), (2, 10)])
def test_certified_spectrum_matches_extended_precision_qr(n_p, n_o):
    rng = np.random.default_rng(10 * n_p + n_o)
    for _ in range(2):
        aug = random_augmented(rng, n_p, n_o)
        fast, slow = verify_observer_conditions(aug), eigenvalues_mp(aug.a_a)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert fast.spectrum.shape == slow.shape
        gap = np.max(np.abs(np.sort(fast.spectrum.imag) - np.sort(slow.imag)))
        assert gap <= 1e-12 * scale
        assert np.count_nonzero(fast.spectrum == 0.0) >= n_p
        assert fast.spectrum_max_abs_real <= 1e-12
        assert np.max(np.abs(slow.real)) <= 1e-12


def test_certificate_flags_non_nilpotent_coupling():
    # a realizable coupling block that is not beta alpha.T: P stays 0, C B does not
    rng = np.random.default_rng(31)
    aug = random_augmented(rng, 4, 4)
    r_c = rng.normal(size=(4, 4))
    b, c = 2.0 * (theta_1(aug) @ r_c), 2.0 * (theta_2(aug) @ r_c.T)
    broken = _with_blocks(aug, b=b, c=c)
    assert np.max(np.abs(c @ b)) > 1e-3
    report = verify_observer_conditions(broken)
    assert report.spectrum_max_abs_real > 1e-8
    assert not report.passes(1e-8)
    assert broken.certificate.message.startswith("max|C B| = ")


def test_certificate_flags_asymmetric_observer_block():
    rng = np.random.default_rng(32)
    aug = random_augmented(rng, 4, 4)
    skew = 1e-3 * rng.normal(size=(4, 4))
    skew -= skew.T
    broken = _with_blocks(aug, d=aug.a_a[4:, 4:] + 2.0 * (theta_2(aug) @ skew))
    assert broken.certificate.asymmetry == pytest.approx(np.max(np.abs(2.0 * skew)), rel=1e-6)
    assert broken.certificate.message.startswith("max|R' - R'.T| = ")
    report = verify_observer_conditions(broken)
    assert report.spectrum_max_abs_real == np.inf
    assert not report.passes(1e-8)


def test_verifier_fails_what_the_certificate_fails():
    # max|P| = 1e-9 passes the report's tolerance 1e-8 but not the
    # certificate's 1e-12 max|a| = 2e-12, which a run would refuse
    aug = one_mode_augmented()
    a = aug.a_a.copy()
    a[0, 1] = 1e-9
    broken = dataclasses.replace(aug, a_a=a)
    assert broken.certificate.flow is None
    assert broken.certificate.message == "max|P| = 1.000e-09 exceeds 2.000e-12"
    report = verify_observer_conditions(broken)
    assert report.spectrum_max_abs_real == np.inf
    assert np.all(np.isnan(report.spectrum))
    assert not report.passes()


def test_certificate_flags_indefinite_observer_block():
    rng = np.random.default_rng(33)
    for n_p, n_o in [(2, 4), (4, 6), (6, 4)]:
        aug = random_augmented(rng, n_p, n_o)
        q = random_orthogonal(rng, n_o)
        r = q @ np.diag(np.concatenate([[-1.0], rng.uniform(0.5, 3.0, size=n_o - 1)])) @ q.T
        broken = _with_blocks(aug, d=2.0 * (theta_2(aug) @ (0.5 * (r + r.T))))
        report = verify_observer_conditions(broken)
        assert report.spectrum_max_abs_real == np.inf
        assert np.all(np.isnan(report.spectrum))
        assert not report.passes()
        assert broken.certificate.flow is None
        assert broken.certificate.message.startswith("R' is not positive definite")


def test_large_system_verifies_without_extended_precision(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("extended-precision QR called")

    monkeypatch.setattr(mpmath, "eig", no_oracle)
    aug = random_augmented(np.random.default_rng(80), 40, 40)
    report = verify_observer_conditions(aug)
    assert report.passes(1e-12)
    # the observer block alone is not defective, so LAPACK resolves it
    block = np.linalg.eigvals(aug.a_a[40:, 40:])
    reference = np.sort(np.concatenate([np.zeros(40), block.imag]))
    gap = np.max(np.abs(np.sort(report.spectrum.imag) - reference))
    assert gap <= 1e-10 * np.max(np.abs(block))


@pytest.mark.parametrize("block, entry", [("P", (0, 1)), ("B", (0, 2)), ("C", (2, 0)), ("D", (2, 3))])
def test_non_finite_dynamics_certify_as_infinite(monkeypatch, block, entry):
    aug = one_mode_augmented()
    a = aug.a_a.copy()
    a[entry] = np.nan
    broken = dataclasses.replace(aug, a_a=a)
    report = verify_observer_conditions(broken)
    assert report.spectrum_max_abs_real == np.inf
    assert np.all(np.isnan(report.spectrum))
    assert not report.passes(1e-8)

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver called on non-finite dynamics")

    for name in ("eigh", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    fresh = dataclasses.replace(aug, a_a=a).certificate
    assert fresh.flow is None and fresh.frequencies is None and np.isnan(fresh.lambda_min)
    assert fresh.message == "dynamics contain non-finite entries"


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_dynamics_verify_without_warnings(value):
    # 0 * inf and inf - inf read NaN in the residual products; no
    # RuntimeWarning escapes, so the report never raises under -W error
    aug = one_mode_augmented()
    for entry in np.ndindex(aug.a_a.shape):
        a = aug.a_a.copy()
        a[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = verify_observer_conditions(dataclasses.replace(aug, a_a=a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_observer_conditions(dataclasses.replace(aug, a_a=a))
            certificate = certify(a, aug.plant.n_p)
        assert not report.passes(), entry
        for field in dataclasses.fields(report):
            np.testing.assert_array_equal(
                getattr(report, field.name), getattr(expected, field.name), err_msg=f"{entry} {field.name}"
            )
        assert certificate.message == "dynamics contain non-finite entries"


def test_certificate_is_computed_once_per_system():
    aug = one_mode_augmented()
    assert aug.certificate is aug.certificate
    perturbed = aug.a_a.copy()
    perturbed[0, 0] = 0.1
    broken = dataclasses.replace(aug, a_a=perturbed)
    assert broken.certificate is not aug.certificate
    assert aug.certificate.flow is not None and aug.certificate.residual == 0.0
    assert broken.certificate.flow is None and broken.certificate.plant == 0.1
    assert broken.certificate.message.startswith("max|P| = 1.000e-01 exceeds ")


@pytest.mark.parametrize("n_p,n_o", [(2, 2), (4, 8), (16, 16)])
def test_certificate_carries_the_right_factor(n_p, n_o):
    # R = [inv(D) C, I] = [inv(r_o) alpha beta.T, I] for an assembled system
    aug = random_augmented(np.random.default_rng(n_p + n_o), n_p, n_o)
    right = aug.certificate.right
    expected = np.linalg.solve(aug.observer.r_o, aug.observer.alpha @ aug.plant.beta.T)
    assert np.array_equal(right[:, n_p:], np.eye(n_o))
    assert np.max(np.abs(right[:, :n_p] - expected)) <= 1e-13 * np.max(np.abs(expected))
    broken = aug.a_a.copy()
    broken[0, 0] = 0.1
    assert dataclasses.replace(aug, a_a=broken).certificate.right is None


@pytest.mark.parametrize("n_p,n_o", [(2, 4), (4, 8), (8, 4), (16, 16)])
def test_certificate_flow_is_the_observer_flow(n_p, n_o):
    rng = np.random.default_rng(7 * n_p + n_o)
    for _ in range(2):
        aug = random_augmented(rng, n_p, n_o)
        flow, reference = aug.certificate.flow, flow_of(aug.a_a)
        assert np.array_equal(flow.omega, reference.omega)
        assert np.array_equal(flow.coef, reference.coef)
        assert aug.certificate.message is None
