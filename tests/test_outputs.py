"""The committed output manifest: every byte that six configs write, under one BLAS kernel.

``tests/golden/outputs.py`` runs the configs in one subprocess with OpenBLAS
pinned to its Haswell kernel on one thread, and prints the sha256 of every
CSV, gnuplot script and summary.json.  The bytes depend on numpy's version
and on the kernel, so a different numpy or a kernel the pin did not reach
fails the test by name before any hash is compared.
"""

import os
import subprocess
import sys
from pathlib import Path

import dcobserver

GOLDEN = Path(__file__).parent / "golden"
PIN = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}


def parse(text: str) -> tuple[dict, dict]:
    """The ``# key value`` header lines and the path -> digest lines of a manifest."""
    header, digests = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            header[key] = value
        else:
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return header, digests


def test_outputs_match_the_committed_manifest(tmp_path):
    # the subprocess imports the dcobserver this process tests
    env = {**os.environ, **PIN, "PYTHONPATH": str(Path(dcobserver.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, str(GOLDEN / "outputs.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert run.returncode == 0, run.stderr
    header, digests = parse(run.stdout)
    expected_header, expected = parse((GOLDEN / "outputs.sha256").read_text())
    for key, value in expected_header.items():
        assert header.get(key) == value, (
            f"{key} is {header.get(key)}, but the manifest was made under {key} {value}: "
            f"its hashes hold for that build only"
        )
    assert sorted(digests) == sorted(expected)
    differ = [path for path in expected if digests[path] != expected[path]]
    assert not differ, f"{len(differ)} of {len(expected)} files differ from the manifest: {differ}"
