"""Output checks shared by run.py and the workload process (numpy only).

A plan describes what one scenario delivers: for the transition matrices
Phi(t) ("maps") and for the running averages (1/t) int_0^t Phi ("averages"),
which CSV files hold which matrix rows, how many grid rows each file has, and
reference values at a few sampled rows.  The last sample of each list is the
end time; its error is the reported ``end_error`` / ``avg_error``.  The
references come from ``reference.py`` (mpmath, 40 digits) and are rounded to
float64 only when written into the plan.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Largest accepted error at a sampled time, relative to max |reference| over
# the delivered entries.  Maps: 1e-6 admits the stepwise drift of the seed
# propagator (up to 1.1e-7 at T = 1e4) with a factor 10 of margin.  Averages: the
# trapezoid rule is off by up to (dt^2 / 12) ||A||_2^2 max ||Phi||, so the
# bound is 1e-4 + dt^2 ||A||_2^2 / 12.  Both catch a wrong row, column, time
# or sign.
MAP_TOL = 1e-6
# CSV numbers carry 12 significant digits.
TIME_TOL = 1e-9


def average_tolerance(dt: float, a) -> float:
    return 1e-4 + dt**2 * float(np.linalg.norm(np.asarray(a, dtype=float), 2)) ** 2 / 12.0


class CheckError(Exception):
    """A pass delivered output that disagrees with its plan."""


def grid(durations, dt):
    """Grid of a schedule: a uniform grid per segment, boundaries included.

    Restates the documented grid of ``uniform_grid`` / ``schedule_grid``: each
    segment gets round(duration / dt) equal steps and ends on its boundary.
    """
    pieces = [np.array([0.0])]
    t0 = 0.0
    for duration in durations:
        steps = max(1, int(round(duration / dt)))
        local = t0 + (duration / steps) * np.arange(1, steps + 1)
        local[-1] = t0 + duration
        pieces.append(local)
        t0 += duration
    return np.concatenate(pieces)


def rel_error(value, ref) -> float:
    """max |value - ref| / max |ref|."""
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(np.asarray(value, dtype=float) - ref)) / np.max(np.abs(ref)))


def compare(kind: str, spec: dict, fetch) -> float:
    """Check every sample of ``spec``; return the error at the last one.

    ``fetch(row)`` returns (time, delivered matrix rows) for a delivered row.
    """
    rows = [r for _, r in spec["files"]] if "files" in spec else [None]
    err = 0.0
    for sample in spec["samples"]:
        t_got, got = fetch(sample["row"])
        if abs(t_got - sample["t"]) > TIME_TOL * max(1.0, abs(sample["t"])):
            raise CheckError(f"{kind}: time {t_got!r} at row {sample['row']}, want {sample['t']!r}")
        ref = np.asarray(sample["ref"], dtype=float)
        if rows != [None]:
            ref = ref[rows]
        err = rel_error(got, ref)
        if not err <= spec["tol"]:
            raise CheckError(f"{kind}: error {err:.3e} at t={sample['t']} exceeds {spec['tol']:.1e}")
    return err


def _read_csv(path: Path, n_cols: int, n_rows: int, wanted) -> tuple[dict, bytes]:
    data = path.read_bytes()
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    if len(header) != n_cols or header[0] not in ("t", "T"):
        raise CheckError(f"{path.name}: header has {len(header)} columns, want {n_cols}")
    if len(lines) - 1 != n_rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} data rows, want {n_rows}")
    return {k: np.array(lines[1 + k].split(","), dtype=float) for k in wanted}, data


def check_csv_output(out_dir: Path, output: dict) -> dict:
    """Check one scenario directory against its plan.

    Returns the end-time errors, the CSV byte and value counts, and the
    sha256 of every CSV (recorded, never compared against a fixed value).
    """
    n = output["n"]
    result = {"csv_bytes": 0, "csv_values": 0, "sha256": {}}
    for kind in ("maps", "averages"):
        spec = output[kind]
        wanted = [s["row"] for s in spec["samples"]]
        parsed = []
        for name, row in spec["files"]:
            n_cols = 1 + (n * n if row is None else n)
            rows, data = _read_csv(out_dir / output["dir"] / name, n_cols, spec["rows"], wanted)
            parsed.append(rows)
            result["csv_bytes"] += len(data)
            result["csv_values"] += spec["rows"] * n_cols
            result["sha256"][f"{output['dir']}/{name}"] = hashlib.sha256(data).hexdigest()

        def fetch(k, parsed=parsed):
            times = {float(p[k][0]) for p in parsed}
            if len(times) != 1:
                raise CheckError(f"{kind}: files disagree on the time of row {k}")
            return times.pop(), np.concatenate([p[k][1:] for p in parsed]).reshape(-1, n)

        result["end_error" if kind == "maps" else "avg_error"] = compare(kind, spec, fetch)
    return result
