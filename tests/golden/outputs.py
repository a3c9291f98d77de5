"""Run the configs of the output manifest and print the manifest of what they write.

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/golden/outputs.py OUT_DIR > tests/golden/outputs.sha256

Every CSV, gnuplot script and summary.json of the six configs below goes to
OUT_DIR/<config name>/<scenario>/, and one ``sha256sum`` line per file goes to
stdout, the path relative to OUT_DIR, so that ``sha256sum -c`` run in OUT_DIR
checks them.  The bytes depend on numpy's version and on the OpenBLAS kernel,
so the manifest opens with two comment lines that record both, the kernel
read back from the library itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from dcobserver import ScenarioConfig, run_scenario

HERE = Path(__file__).resolve().parent

ONE_MODE = {"beta": [[1.0], [0.0]], "r_o": [[1.0, 0.0], [0.0, 1.0]], "c_o": [[1.0, 0.0]]}
SWAPPED = {"beta": [[0.0], [1.0]], "r_o": [[2.0, 0.3], [0.3, 1.0]], "c_o": [[0.0, 1.0]]}

# config name -> the configs run into OUT_DIR/<name>
CONFIGS = {
    # the paper's figures at their defaults
    "stock": [{"scenario": "one_mode"}, {"scenario": "measurement_sequence"}],
    # two modes, every map and average written
    "two_mode": [
        {
            "scenario": "custom",
            "beta": [[1, 0], [0, 0], [0, 1], [0, 0]],
            "r_o": np.eye(4).tolist(),
            "c_o": [[1, 0, 0, 0], [0, 0, 1, 0]],
            "t_end": 100.0,
            "dt": 0.01,
        }
    ],
    # n = 32: 256-row chunks of 1,024-value rows
    "wide_custom": [json.loads((HERE / "wide_custom.json").read_text())],
    # segment edges off the chunk multiples and a last segment of three chunks
    "seam_schedule": [
        {
            "scenario": "measurement_sequence",
            "t_end": 98.87,
            "dt": 0.01,
            "segments": [{"duration": 13.37, **ONE_MODE}, {"duration": 0.5, "disconnect": True}, SWAPPED],
        }
    ],
    # averages that stop before the maps do
    "short_average": [{"scenario": "custom", **ONE_MODE, "t_end": 300.0, "average_t_end": 120.0, "dt": 0.05}],
}


def openblas_core() -> str:
    """The kernel name that numpy's bundled OpenBLAS picked, or ``unknown`` without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def manifest(out_dir: Path) -> str:
    """Run every config into ``out_dir`` and return the manifest text of what they wrote."""
    lines = [f"# numpy {np.__version__}", f"# openblas-core {openblas_core()}"]
    for name, configs in CONFIGS.items():
        for raw in configs:
            bundle = run_scenario(ScenarioConfig.from_dict({**raw, "out_dir": str(out_dir / name)}))
            if not bundle.passed:
                raise SystemExit(f"{name}: {bundle.summary['checks']}")
        for path in sorted((out_dir / name).rglob("*")):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.stdout.write(manifest(Path(sys.argv[1])))
