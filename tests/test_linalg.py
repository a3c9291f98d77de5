"""Tests for the dense numerical kernels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import dcobserver
from dcobserver import (
    eigenvalues,
    exp_norm_bound,
    expm,
    is_positive_definite,
    make_theta,
    propagate,
    spectral_norm,
    uniform_grid,
)
from helpers import A_ONE_MODE, A_SWAPPED, eigenvalues_mp, one_mode_augmented, random_spd

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation(t):
    return np.array(
        [[np.cos(2 * t), np.sin(2 * t)], [-np.sin(2 * t), np.cos(2 * t)]]
    )


def expm_series(m, terms=60):
    # brute-force Taylor sum, usable as an oracle for small norms
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_expm_zero_is_identity():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))


def test_expm_zero_time_swapped_dynamics():
    assert np.array_equal(expm(A_SWAPPED * 0.0), np.eye(4))


@pytest.mark.parametrize("t", [0.0, 0.25, 1.0, 3.9, 12.9])
def test_expm_matches_rotation_closed_form(t):
    assert np.max(np.abs(expm(2 * J * t) - rotation(t))) <= 1e-13


def test_expm_matches_taylor_series_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n))
        m *= 0.8 / max(1.0, np.linalg.norm(m, 1))
        assert np.max(np.abs(expm(m) - expm_series(m))) <= 1e-13


def test_expm_matches_scipy_on_generic_matrices():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
        ours, ref = expm(m), sla.expm(m)
        assert np.max(np.abs(ours - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_expm_precision_on_bounded_flows():
    # realizable dynamics with positive definite Hamiltonian have uniformly
    # bounded exponentials, the regime the 1e-12 accuracy claim refers to
    import mpmath as mp

    rng = np.random.default_rng(17)
    for _ in range(8):
        n_modes = int(rng.integers(1, 4))
        theta = make_theta(n_modes).theta
        a = 2.0 * theta @ random_spd(rng, 2 * n_modes)
        a *= rng.uniform(1.0, 100.0) / np.linalg.norm(a, 2)
        ours = expm(a)
        with mp.workdps(40):
            ref = mp.expm(mp.matrix(a.tolist()))
            truth = np.array(
                [[float(ref[i, j]) for j in range(a.shape[0])] for i in range(a.shape[0])]
            )
        assert np.max(np.abs(ours - truth)) <= 1e-12 * np.max(np.abs(truth))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(1, 5))
    theta = make_theta(n_modes).theta
    a = 2.0 * theta @ random_spd(rng, 2 * n_modes)
    a *= rng.uniform(0.1, 10.0) / np.linalg.norm(a, 2)
    assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(a.shape[0]))) <= 1e-10


@given(
    seed=st.integers(0, 10_000),
    s=st.floats(0.0, 5.0, allow_nan=False),
    t=st.floats(0.0, 5.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_expm_semigroup_property(seed, s, t):
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(1, 5))
    theta = make_theta(n_modes).theta
    a = 2.0 * theta @ random_spd(rng, 2 * n_modes)
    assert np.max(np.abs(expm(a * (s + t)) - expm(a * s) @ expm(a * t))) <= 1e-10


@pytest.mark.parametrize("bad", [np.ones((2, 3)), np.array([[1.0, np.nan], [0.0, 1.0]])])
def test_expm_rejects_invalid_input(bad):
    with pytest.raises(ValueError):
        expm(bad)


def leverrier_char_poly(m):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier recursion."""
    n = m.shape[0]
    coeffs = [1.0]
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ work + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(m @ work) / k)
    return np.array(coeffs)


def test_eigenvalues_of_rotation_generator():
    report = eigenvalues(2 * J)
    expected = np.sort(np.array([2j, -2j]))
    assert np.allclose(np.sort(report.eigenvalues), expected, atol=1e-12)
    assert report.max_abs_real_part <= 1e-12


def test_eigenvalues_of_one_mode_system_against_char_poly_oracle():
    # char poly is lambda^4 + 4 lambda^2, i.e. roots {0, 0, +-2i}
    coeffs = leverrier_char_poly(A_ONE_MODE)
    assert np.allclose(coeffs, [1.0, 0.0, 4.0, 0.0, 0.0], atol=1e-12)
    report = eigenvalues(A_ONE_MODE)
    expected = np.sort(np.array([0.0 + 0j, 0.0 + 0j, 2j, -2j]))
    assert np.allclose(np.sort(report.eigenvalues), expected, atol=1e-9)


def test_eigenvalues_of_identity():
    report = eigenvalues(np.eye(5))
    assert np.allclose(report.eigenvalues, np.ones(5))
    assert report.max_abs_real_part == pytest.approx(1.0)


def test_positive_definite_generators_have_imaginary_spectrum():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n_modes = int(rng.integers(1, 6))
        theta = make_theta(n_modes).theta
        report = eigenvalues(2.0 * theta @ random_spd(rng, 2 * n_modes, 0.1, 4.0))
        assert report.max_abs_real_part <= 1e-9


def test_high_precision_spectrum_resolves_defective_zero():
    aug = one_mode_augmented()
    report = eigenvalues_mp(aug.a_a)
    expected = np.sort(np.array([0.0 + 0j, 0.0 + 0j, 2j, -2j]))
    assert np.allclose(np.sort(report.eigenvalues), expected, atol=1e-12)
    assert report.max_abs_real_part <= 1e-12


def test_is_positive_definite_examples():
    report = is_positive_definite(np.eye(3))
    assert report.positive_definite
    assert report.lambda_min == pytest.approx(1.0)

    report = is_positive_definite(np.diag([1.0, -1.0]))
    assert not report.positive_definite

    report = is_positive_definite(np.diag([2.0, 1.0]))
    assert report.positive_definite
    assert report.lambda_min == pytest.approx(1.0)
    assert report.lambda_max == pytest.approx(2.0)


def test_is_positive_definite_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        is_positive_definite(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_is_positive_definite_agrees_with_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        g = rng.normal(size=(n, n))
        m = 0.5 * (g + g.T)
        report = is_positive_definite(m)
        assert report.positive_definite == (report.lambda_min > 1e-12)


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(4)) == pytest.approx(1.0)
    assert spectral_norm(2 * J) == pytest.approx(2.0)
    for t in (0.1, 1.0, 7.0):
        assert spectral_norm(expm(2 * J * t)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_against_gram_eigenvalue_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(m.T @ m))))
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_exponential_norm_bound_holds_on_samples():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n_o = int(rng.choice([2, 4, 6]))
        r_o = random_spd(rng, n_o, 0.2, 5.0)
        theta_2 = make_theta(n_o // 2).theta
        bound = exp_norm_bound(r_o)
        series = propagate(2.0 * theta_2 @ r_o, uniform_grid(50.0, 0.5))
        assert max(spectral_norm(m) for m in series.maps) <= bound + 1e-8


def test_import_leaves_mpmath_unloaded():
    # extended precision and scipy are test oracles only; the library never
    # imports them, and a pipeline run loads neither
    src = str(Path(dcobserver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = """
import sys, dcobserver
loaded = lambda: " ".join(str(name in sys.modules) for name in ("mpmath", "scipy"))
print(loaded())
plant = dcobserver.make_plant([[1.0], [0.0]])
observer = dcobserver.synthesize_observer(plant, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])
aug = dcobserver.assemble_augmented(plant, observer)
dcobserver.verify_observer_conditions(aug)
dcobserver.time_average(dcobserver.propagate(aug.a_a, dcobserver.uniform_grid(1.0, 0.1)))
dcobserver.convergence_diagnostics(aug, horizon=1.0, dt=0.1)
print(loaded())
"""
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.splitlines() == ["False False", "False False"]
