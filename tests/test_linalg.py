"""Tests for the dense numerical kernels."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcobserver
from dcobserver import (
    make_theta,
    propagate,
    uniform_grid,
)
from dcobserver.closed_form import certify
from dcobserver.linalg import spectral_norms
from helpers import eigenvalues_mp, one_mode_augmented, random_spd

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation(t):
    # exp(2 J t)
    return np.array(
        [[np.cos(2 * t), np.sin(2 * t)], [-np.sin(2 * t), np.cos(2 * t)]]
    )


def test_positive_definite_generators_have_imaginary_spectrum():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n_modes = int(rng.integers(1, 6))
        theta = make_theta(n_modes).theta
        spectrum = np.linalg.eigvals(2.0 * theta @ random_spd(rng, 2 * n_modes, 0.1, 4.0))
        assert np.max(np.abs(spectrum.real)) <= 1e-9


def test_high_precision_spectrum_resolves_defective_zero():
    aug = one_mode_augmented()
    spectrum = eigenvalues_mp(aug.a_a)
    expected = np.sort(np.array([0.0 + 0j, 0.0 + 0j, 2j, -2j]))
    assert np.allclose(spectrum, expected, atol=1e-12)
    assert np.max(np.abs(spectrum.real)) <= 1e-12


def norm_of(m) -> float:
    """spectral_norms of one matrix."""
    return float(spectral_norms(np.asarray(m, dtype=float)[None])[0])


def test_spectral_norm_examples():
    assert norm_of(np.eye(4)) == pytest.approx(1.0)
    assert norm_of(2 * J) == pytest.approx(2.0)
    for t in (0.1, 1.0, 7.0):
        assert norm_of(rotation(t)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_against_gram_eigenvalue_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(m.T @ m))))
        assert norm_of(m) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_exponential_norm_bound_holds_on_samples():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n_o = int(rng.choice([2, 4, 6]))
        r_o = random_spd(rng, n_o, 0.2, 5.0)
        theta_2 = make_theta(n_o // 2).theta
        bound = certify(2.0 * theta_2 @ r_o, 0).norm_bound
        series = propagate(2.0 * theta_2 @ r_o, uniform_grid(50.0, 0.5))
        assert np.linalg.norm(series.maps, 2, axis=(1, 2)).max() <= bound + 1e-8


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
