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
from dcobserver.linalg import _spectral_norms, spectral_norms
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
        theta = make_theta(n_modes)
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


@pytest.mark.parametrize("cols", [1, 4, 8, 32])
@pytest.mark.parametrize("rows", [1, 2, 4])
def test_buffer_spectral_norms_give_the_bits_of_the_allocating_expressions(rows, cols):
    # the buffer form takes the same operations with out=: its oracles are
    # eigvalsh of the Gram matrix (one row and more than two) and the closed
    # form (two rows), on matrices over twelve decades and some all-zero
    rng = np.random.default_rng(10 * rows + cols)
    stack = rng.normal(size=(4096, rows, cols)) * 10.0 ** rng.integers(-6, 6, size=(4096, 1, 1))
    stack[::97] = 0.0
    if rows == 2:
        first, second = stack[:, 0], stack[:, 1]
        a, b, c = (np.einsum("kn,kn->k", x, y) for x, y in ((first, first), (first, second), (second, second)))
        top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    else:
        top = np.linalg.eigvalsh(stack @ stack.transpose(0, 2, 1))[:, -1]
    expected = np.sqrt(np.maximum(top, 0.0))
    out, scratch = np.empty(len(stack)), np.empty(len(stack) * max(3, rows * rows))
    assert _spectral_norms(stack, out, scratch) is out
    assert np.array_equal(out, expected)
    assert np.array_equal(spectral_norms(stack), expected)


def test_exponential_norm_bound_holds_on_samples():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n_o = int(rng.choice([2, 4, 6]))
        r_o = random_spd(rng, n_o, 0.2, 5.0)
        theta_2 = make_theta(n_o // 2)
        bound = certify(2.0 * theta_2 @ r_o, 0).norm_bound
        series = propagate(2.0 * theta_2 @ r_o, uniform_grid(50.0, 0.5))
        assert np.linalg.norm(series.maps, 2, axis=(1, 2)).max() <= bound + 1e-8


# A pipeline run, every python block of the README (argv[1]), each in a fresh
# namespace, and the CLI's error paths, each one line and exit 1; the test
# tools must stay unloaded throughout, as on an install of numpy alone.
_PLAIN_RUN = r"""
import contextlib, io, json, re, sys
from pathlib import Path

import dcobserver
from dcobserver.cli import main

TOOLS = ("mpmath", "scipy", "hypothesis")
loaded = lambda: [name for name in TOOLS if name in sys.modules]
assert not loaded(), f"importing dcobserver loaded {loaded()}"
plant = dcobserver.make_plant([[1.0], [0.0]])
observer = dcobserver.synthesize_observer(plant, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])
aug = dcobserver.assemble_augmented(plant, observer)
dcobserver.verify_observer_conditions(aug)
dcobserver.time_average(dcobserver.propagate(aug.a_a, dcobserver.uniform_grid(1.0, 0.1)))
dcobserver.convergence_diagnostics(aug, horizon=1.0, dt=0.1)

blocks = re.findall(r"```python\n(.*?)```", Path(sys.argv[1]).read_text(encoding="utf-8"), re.S)
assert blocks, "README.md has no python block"
for i, block in enumerate(blocks):
    exec(compile(block, f"README.md python block {i + 1}", "exec"), {})


def cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse's own exit, which main must not let out
            status = exc.code
    return status, err.getvalue()


one_mode = {"beta": [[1], [0]], "r_o": [[1, 0], [0, 1]], "c_o": [[1, 0]]}
for raw, prefix in [
    ({"scenario": "measurement_sequence", "segments": [5]}, "error: segments[0]"),
    ({"scenario": "one_mode", "t_end": 10**400}, "error: t_end"),
    ({"scenario": "custom", **one_mode, "beta": [[1e200], [0]], "t_end": 20.0}, "error: flow coefficients overflow"),
]:
    Path("bad.json").write_text(json.dumps(raw))
    status, err = cli("--config", "bad.json", "--out-dir", "bad")
    assert status == 1 and err.count("\n") == 1 and err.startswith(prefix), (raw, status, err)
assert not Path("bad").exists(), "a refused config made its output directory"
status, err = cli("--t-end", "abc")
assert status == 1, (status, err)
assert not loaded(), f"a run loaded {loaded()}"
"""


def test_import_leaves_mpmath_unloaded(tmp_path):
    # extended precision, scipy and hypothesis are test tools only: a fresh
    # interpreter, in an empty directory and with a RuntimeWarning an error,
    # runs _PLAIN_RUN under OpenBLAS's default threads (runs go in order) and
    # under one BLAS thread (two runs at once)
    src = str(Path(dcobserver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        cwd = tmp_path / (",".join(blas) or "default")
        cwd.mkdir()
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", _PLAIN_RUN, str(readme)],
            capture_output=True, text=True, cwd=cwd, env=dict(env, PYTHONPATH=path, **blas),
        )
        assert out.returncode == 0, f"{blas}: {out.stderr}"
