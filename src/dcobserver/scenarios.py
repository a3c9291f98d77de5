"""Experiment scenarios: figure data, plot scripts and machine-readable summaries.

Three scenarios are provided.  ``one_mode`` couples a single-mode static
plant to a single-mode observer and records the transition-matrix entries and
their running time averages.  ``measurement_sequence`` runs a piecewise
schedule: observer attached, detached, then a second observer estimating the
other quadrature attached, which destroys the previously conserved one.
``custom`` does what ``one_mode`` does on user matrices.  ``_PLANNERS`` is the
one table of scenarios: each name's planner checks the fields its scenario
requires or never reads, fills in its defaults and resolves the config into a
schedule of coupled and disconnected segments and a figure plan.
``run_scenario`` looks the planner up; one pipeline verifies, propagates,
averages, checks, diagnoses and writes.

All numeric output is CSV (header row, 12 significant digits); every figure
file gets a companion gnuplot script.  A run "passes" only if all residual
checks stay below the configured tolerances.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from os import PathLike
from pathlib import Path

import numpy as np

from .ccr import _as_float, _check_finite, make_plant
from .simulation import _deviation, _run_grid, _sweep, convergence_diagnostics
from .synthesis import (
    AugmentedSystem,
    assemble_augmented,
    synthesize_observer,
    verify_observer_conditions,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESIDUAL = 2
EXIT_IO = 3

# bound on the deviation of a row that must stay constant
CONSTANT_TOL = 1e-10
# bound on the deviation of a disconnected segment's maps from its start map
PLATEAU_TOL = 1e-12

# values formatted by one "%" call of a figure file (or one row, if wider): a
# batch's Python floats and text stay well below a chunk's
BATCH_VALUES = 8192


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


def _is_number(value) -> bool:
    # a JSON true is no number, though float(True) is 1.0
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _matrix(value, path: str) -> np.ndarray:
    """A config matrix through the intake: non-empty, 2-D, every entry a number and finite.

    The entries are checked first, so a JSON true or "1", which numpy casts,
    and a complex entry are named by their place."""
    cells = np.asarray(value, dtype=object)
    if cells.ndim != 2 or cells.size == 0:
        raise ConfigError(f"{path}: expected a non-empty 2-D matrix, got shape {cells.shape}")
    for (i, j), x in np.ndenumerate(cells):
        if not _is_number(x):
            raise ConfigError(f"{path}: entry [{i}][{j}] is {x!r}, not a number")
    m = _as_float(value, path)
    _check_finite(path, m)
    return m


def _positive(value, path: str) -> float:
    """A config time or tolerance through the intake: a number, positive and finite."""
    if not _is_number(value):
        raise ConfigError(f"{path}: expected a number")
    x = float(_as_float(value, path))
    if not 0 < x < np.inf:
        raise ConfigError(f"{path}: must be a positive finite number, got {value}")
    return x


def _json_fields(cls, raw: dict, prefix: str, what: str) -> dict:
    """The fields of a JSON object for ``cls``: an unknown key is an error, a null is absent."""
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown {what}")
    return {key: value for key, value in raw.items() if value is not None}


@dataclass(frozen=True)
class SegmentConfig:
    """One phase of a piecewise schedule; ``disconnect`` means zero dynamics."""

    duration: float | None = None
    disconnect: bool = False
    beta: np.ndarray | None = None
    r_o: np.ndarray | None = None
    c_o: np.ndarray | None = None


def _segment(segment, path: str) -> SegmentConfig:
    """A segment with its values checked and its matrices as float arrays; an
    error names its field after ``path``."""
    if not isinstance(segment, SegmentConfig):
        raise ConfigError(f"{path}: expected an object")
    duration = None if segment.duration is None else _positive(segment.duration, f"{path}.duration")
    if not isinstance(segment.disconnect, bool):
        raise ConfigError(f"{path}.disconnect: expected true or false")
    matrices = {}
    for key in ("beta", "r_o", "c_o"):
        value = getattr(segment, key)
        if segment.disconnect and value is not None:
            raise ConfigError(f"{path}.{key}: not read by a disconnected segment")
        if not segment.disconnect:
            if value is None:
                raise ConfigError(f"{path}.{key}: required for a coupled segment")
            matrices[key] = _matrix(value, f"{path}.{key}")
    return SegmentConfig(duration, segment.disconnect, **matrices)


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario payload: matrices, schedule, grid and tolerances.  Construction
    checks every value, however the config was made (each segment under its
    ``segments[i]`` path), and names the first field at fault; matrices become
    float arrays, numbers floats and ``out_dir`` a Path.  A schedule given to
    the scenario that reads one needs a coupled segment and may leave at most
    one duration open; what the planner derives (the systems, the defaults) it
    checks itself."""

    scenario: str = "one_mode"
    beta: np.ndarray | None = None
    r_o: np.ndarray | None = None
    c_o: np.ndarray | None = None
    alpha: np.ndarray | None = None
    segments: tuple[SegmentConfig, ...] = ()
    t_end: float | None = None
    dt: float = 0.01
    average_t_end: float | None = None
    out_dir: Path = Path("out")
    tol: float = 1e-8

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        matrices = ("beta", "r_o", "c_o", "alpha")
        try:  # the intake's and the finiteness check's ValueErrors name their field
            checked = {k: _matrix(getattr(self, k), k) for k in matrices if getattr(self, k) is not None}
            checked["segments"] = tuple(_segment(s, f"segments[{i}]") for i, s in enumerate(self.segments))
            for key in ("t_end", "dt", "average_t_end", "tol"):
                # an unset t_end or average_t_end takes its planner's default
                if getattr(self, key) is not None or key in ("dt", "tol"):
                    checked[key] = _positive(getattr(self, key), key)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.out_dir, (str, PathLike)):
            raise ConfigError("out_dir: expected a path string")
        checked["out_dir"] = Path(self.out_dir)
        if self.scenario == "measurement_sequence" and self.segments:
            if all(s.disconnect for s in checked["segments"]):
                raise ConfigError("segments: at least one coupled segment is required")
            if sum(1 for s in checked["segments"] if s.duration is None) > 1:
                raise ConfigError("segments: at most one segment may omit its duration")
        for key, value in checked.items():
            object.__setattr__(self, key, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """The config of a JSON object; construction checks its values."""
        values = _json_fields(cls, raw, "", "config field")
        if "segments" in values:
            segments = values["segments"]
            if not isinstance(segments, list) or not segments:
                raise ConfigError("segments: expected a non-empty list")
            # an entry that is no object is left for construction to name
            values["segments"] = tuple(
                SegmentConfig(**_json_fields(SegmentConfig, seg, f"segments[{i}].", "field"))
                if isinstance(seg, dict) else seg
                for i, seg in enumerate(segments)
            )
        return cls(**values)


@dataclass
class ArtifactBundle:
    """Everything a scenario run produced, plus the overall pass verdict."""

    out_dir: Path
    csv_files: list[Path]
    plot_scripts: list[Path]
    summary_file: Path
    summary: dict
    passed: bool


@dataclass(frozen=True)
class _Figure:
    """A CSV of one transition-matrix row (None: all rows); a gnuplot script if titled."""

    tag: str
    row: int | None
    title: str | None
    avg: bool = False


@dataclass(frozen=True)
class _Plan:
    """A scenario's config resolved by its planner for the pipeline.

    ``systems`` are the distinct coupled systems in order of first use, the
    one place that decides which segments share a system; ``phases`` are
    (duration, index into systems) pairs, the index None while disconnected.
    ``t_end`` is the horizon the summary reports.  Maps are written for
    t <= map_end, running averages for T <= average_end.  A ``schedule`` plan
    reports each segment; otherwise the one coupled system is reported whole,
    with its averages diagnosed up to average_end (and its estimated row checked
    if ``estimated_row``).
    """

    phases: tuple[tuple[float, int | None], ...]
    systems: tuple[AugmentedSystem, ...]
    figures: tuple[_Figure, ...]
    t_end: float
    prefix: str = "phi"
    map_end: float = math.inf
    average_end: float = math.inf
    schedule: bool = False
    estimated_row: bool = False


class _FigureFile:
    """A figure's CSV, open in binary on ``stack`` and appended a run of grid rows at a
    time up to row ``stop`` (maps from row 0, averages from row 1), and its gnuplot
    script if titled.  The text is bytes from the header on, every line ending in LF.

    Rows go out a batch of ``batch`` rows per bytes ``%`` call.  A column whose
    bits hold over a batch of two rows or more (the observer's estimated quadrature,
    every map of a disconnected segment) is formatted once for it, as literal text."""

    def __init__(self, out: Path, fig: _Figure, prefix: str, n: int, stop: int, stack: ExitStack):
        self.avg, self.stop, self.row = fig.avg, stop, fig.row
        suffix = "_ave" if fig.avg else ""
        # from n = 10 on, phi_111 could be (1, 11) or (11, 1): separate the indices
        sep = "_" if n >= 10 else ""
        rows = range(n) if fig.row is None else [fig.row]
        names = [f"{prefix}_{i + 1}{sep}{j + 1}{suffix}" for i in rows for j in range(n)]
        self.path, self.script = out / f"{fig.tag}.csv", None
        if fig.title is not None:
            # one clause plots every value column, each titled by its header
            self.script = out / f"{fig.tag}.gp"
            self.script.write_bytes(
                f"set datafile separator ','\nset title '{fig.title}'\nset xlabel 'time'\n"
                f"set key autotitle columnhead\nset grid\n"
                f"plot for [k=2:{len(names) + 1}] '{self.path.name}' using 1:k with lines\n".encode()
            )
        self.file = stack.enter_context(self.path.open("wb"))
        self.file.write((",".join(["T" if fig.avg else "t"] + names) + "\n").encode())
        self.width = len(names)
        # what follows a row's time: its value fields and the line end
        self.tail = b"," + b",".join([b"%.12g"] * self.width) + b"\n"
        self.batch = max(1, BATCH_VALUES // (self.width + 1))
        if not fig.avg:
            self.write(slice(0, 1), _stamps(np.zeros(1)), np.eye(n)[None], None)

    def write(self, rows: slice, stamps: list[bytes], maps: np.ndarray, averages) -> None:
        """Append the figure's rows of a run's maps or averages (None past the
        averaging stop); stamps[j] is the formatted time of row rows.start + j.

        Each batch's format string holds its times and the text of every column
        that ``_held_columns`` finds, so -0.0 and 0.0 keep their own text; only
        the other columns are formatted by the ``%`` call."""
        k = min(rows.stop, self.stop) - rows.start
        if k <= 0:
            return
        data = (averages if self.avg else maps)[:k]
        if self.row is not None:
            data = data[:, self.row]
        data, stamps = data.reshape(k, self.width), stamps[:k]
        # one bytes "%" call and one write a batch of rows; literal text in the
        # format string is safe, as "%.12g" never prints a "%"
        for lo in range(0, k, self.batch):
            hi = lo + self.batch
            block, tail = data[lo:hi], self.tail
            held = _held_columns(block)
            if held.any():
                tail = b"," + b",".join(
                    [b"%.12g" % x if h else b"%.12g" for x, h in zip(block[0].tolist(), held.tolist())]
                ) + b"\n"
                block = block[:, ~held]
            text = tail.join(stamps[lo:hi]) + tail
            self.file.write(text % tuple(block.ravel().tolist()))


def _held_columns(block: np.ndarray) -> np.ndarray:
    """The columns whose every row has the first row's int64 bits; none in a batch of one
    row, whose literal text would cost more than the batched ``%`` call.  Of the columns
    whose last row has the first row's bits, each is compared as one contiguous run:
    numpy's loop over the rows of a narrow batch costs more than the comparisons."""
    if len(block) < 2:
        return np.zeros(block.shape[1], dtype=bool)
    bits = block.view(np.int64)
    held = bits[-1] == bits[0]
    if held.any():
        columns = bits.T[held]
        held[held] = (columns == columns[:, :1]).all(axis=1)
    return held


def _stamps(times: np.ndarray) -> list[bytes]:
    """The CSV time column as bytes: each time to 12 significant digits, once for every open file.

    b"%.12g" % x is format(x, ".12g").encode() for every float: bytes formatting
    runs the same float formatter without building a str.
    """
    return [b"%.12g" % t for t in times.tolist()]


def _stop(times: np.ndarray, end: float) -> int:
    """The number of grid rows up to ``end``, a grid point within one part in 1e12 above it
    included: the rounding of the grid grows with its times."""
    return int(np.searchsorted(times, end + 1e-12 * max(1.0, end), side="right"))


def _as_json(report) -> dict:
    """A report dataclass as JSON values; complex numbers become [re, im] pairs."""

    def value(x):
        if isinstance(x, np.ndarray):
            return [value(v) for v in x]
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if np.iscomplexobj(x):
            return [float(x.real), float(x.imag)]
        return float(x)

    return {f.name: value(getattr(report, f.name)) for f in fields(report)}


def _run(config: ScenarioConfig, plan: _Plan) -> ArtifactBundle:
    """The one pipeline: verify, propagate, average, check, diagnose, write, summarize."""
    durations, indices = zip(*plan.phases)
    first = plan.systems[0]
    try:
        times, edges = _run_grid(durations, config.dt, first.n)
    except ValueError as exc:  # past the memory bound, or a segment below the float spacing
        raise ConfigError(str(exc)) from None
    # each system is verified once; the segments that share it share its report
    reports = [verify_observer_conditions(aug) for aug in plan.systems]
    # a certificate that gives no flow fails before any output; only a schedule has segments to name
    for i, k in enumerate(indices):
        if k is not None and plan.systems[k].certificate.flow is None:
            message = plan.systems[k].certificate.message
            raise ValueError(f"segments[{i}]: {message}" if plan.schedule else message)

    out = config.out_dir / config.scenario
    out.mkdir(parents=True, exist_ok=True)
    # maps are written on the grid rows before map_stop, averages on rows 1 .. avg_stop - 1
    map_stop, avg_stop = (_stop(times, end) for end in (plan.map_end, plan.average_end))
    # per segment: the worst CCR and energy residual, the deviation from its start
    # map of its held rows and, on the one segment whose swap disturbance a
    # schedule reports, that of the first observer's rows: the last segment
    # whose system is not plan.systems[0]; a schedule that only reattaches
    # the first observer swaps nothing
    swap_at = max((i for i, k in enumerate(indices) if k not in (None, 0)), default=None)
    worst = np.zeros((len(indices), 4))
    segment_systems = [None if k is None else plan.systems[k] for k in indices]
    with ExitStack() as stack:
        files = [
            _FigureFile(out, fig, plan.prefix, first.n, avg_stop if fig.avg else map_stop, stack)
            for fig in plan.figures
        ]
        for i, rows, start, block, averages, residuals in _sweep(segment_systems, times, edges, avg_stop):
            swap = _deviation(block, start, first.plant_output) if i == swap_at else 0.0
            worst[i] = np.maximum(worst[i], [*residuals, swap])
            stamps = _stamps(times[rows])
            for figure in files:
                figure.write(rows, stamps, block, averages)
    csv_files = [figure.path for figure in files]
    scripts = [figure.script for figure in files if figure.script is not None]

    entries = []
    conditions = [_as_json(report) for report in reports]
    for duration, k, lo, hi, (_, energy, moved, _) in zip(
        durations, indices, edges[:-1], edges[1:], worst.tolist()
    ):
        entry = {
            "kind": "disconnected" if k is None else "coupled",
            "duration": duration,
            "t_start": float(times[lo]),
            "t_stop": float(times[hi]),
            "energy_residual": energy,
        }
        if k is None:
            entry["plateau_max_deviation"] = moved
        else:
            entry["protected_row_max_deviation"] = moved
            entry["system"] = k
        entries.append(entry)
    ccr_residual, energy_residual = np.max(worst[:, :2], axis=0).tolist()

    checks = {
        "observer_conditions": all(r.passes(config.tol) for r in reports),
        "ccr_conservation": ccr_residual <= config.tol,
        "energy_conservation": energy_residual <= config.tol,
    }
    summary = {
        "scenario": config.scenario,
        "grid": {"t_end": plan.t_end, "dt": config.dt},
        "tolerances": {"residual": config.tol, "constant_row": CONSTANT_TOL},
        "conservation": {"ccr_residual": ccr_residual, "energy_residual": energy_residual},
    }
    if plan.schedule:
        # disturbance of the first observer's protected row under the last other observer
        swap_disturbance = 0.0 if swap_at is None else float(worst[swap_at, 3])
        plateau = [e["plateau_max_deviation"] for e in entries if e["kind"] == "disconnected"]
        protected = [e["protected_row_max_deviation"] for e in entries if e["kind"] == "coupled"]
        summary["systems"] = [{"observer_conditions": c} for c in conditions]
        summary["segments"] = entries
        summary["swap_disturbance"] = swap_disturbance
        summary["tolerances"]["plateau"] = PLATEAU_TOL
        checks["protected_rows_constant"] = all(dev <= CONSTANT_TOL for dev in protected)
        checks["plateau_constant"] = all(dev <= PLATEAU_TOL for dev in plateau)
        checks["swap_disturbs_previous_row"] = swap_at is None or swap_disturbance > 0.1
    else:
        convergence = convergence_diagnostics(first, plan.average_end, config.dt)
        summary["observer_conditions"] = conditions[0]
        summary["convergence"] = _as_json(convergence)
        checks["time_average_convergence"] = bool(convergence.converged)
        if plan.estimated_row:
            row_dev = entries[0]["protected_row_max_deviation"]
            summary["grid"]["average_t_end"] = plan.average_end
            summary["estimated_row_max_deviation"] = row_dev
            checks["estimated_row_constant"] = row_dev <= CONSTANT_TOL
    summary["checks"] = checks
    summary["passed"] = all(checks.values())
    summary["files"] = sorted(p.name for p in csv_files + scripts)
    summary_file = out / "summary.json"
    summary_file.write_bytes((json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    return ArtifactBundle(
        out_dir=out,
        csv_files=csv_files,
        plot_scripts=scripts,
        summary_file=summary_file,
        summary=summary,
        passed=summary["passed"],
    )


def _given(value, default):
    return default if value is None else value


def _system(beta, r_o, c_o, alpha=None, where: str = "") -> AugmentedSystem:
    """Augmented system of one coupled segment; errors name the field at fault after ``where``."""
    try:
        plant = make_plant(beta)
        return assemble_augmented(plant, synthesize_observer(plant, r_o, c_o, alpha))
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


def _single(aug: AugmentedSystem, figures, t_end, average_end, dt, estimated_row=False) -> _Plan:
    """One coupled segment over max(t_end, average_end), maps written to t_end; a
    ConfigError names ``dt`` if it exceeds the averaging horizon."""
    if dt > average_end:
        raise ConfigError(f"dt: {dt} exceeds the averaging horizon {average_end}")
    phases = ((max(t_end, average_end), 0),)
    return _Plan(phases, (aug,), figures, t_end, map_end=t_end, average_end=average_end,
                 estimated_row=estimated_row)


# the one-mode plant and observer: one_mode's defaults and the default schedule's first segment
_ONE_MODE = SegmentConfig(beta=np.array([[1.0], [0.0]]), r_o=np.eye(2), c_o=np.array([[1.0, 0.0]]))

_ONE_MODE_FIGURES = (
    _Figure("fig03", 0, "coefficients of the first plant quadrature"),
    _Figure("fig04", 1, "coefficients of the second plant quadrature"),
    _Figure("fig05", 2, "coefficients of the observer output quadrature"),
    _Figure("fig06a", 3, "coefficients of the second observer quadrature"),
    _Figure("fig06", 2, "running time averages of the observer output row", avg=True),
    _Figure("fig06b", 3, "running time averages of the second observer row", avg=True),
)


def _one_mode(config: ScenarioConfig) -> _Plan:
    """Single-mode plant permanently coupled to one observer (figure data 3-6b): maps to
    t_end 50 and averages to 100 by default, an unset matrix the one-mode system's."""
    if config.segments:
        raise ConfigError(f"segments: not read by the {config.scenario} scenario")
    c_o = _ONE_MODE.c_o if config.c_o is None and config.alpha is None else config.c_o
    beta, r_o = _given(config.beta, _ONE_MODE.beta), _given(config.r_o, _ONE_MODE.r_o)
    t_end, average_end = _given(config.t_end, 50.0), _given(config.average_t_end, 100.0)
    aug = _system(beta, r_o, c_o, config.alpha)
    return _single(aug, _ONE_MODE_FIGURES, t_end, average_end, config.dt, estimated_row=True)


_SEQUENCE_FIGURES = (
    _Figure("fig07", 0, "coefficients of the first plant quadrature (schedule)"),
    _Figure("fig08", 1, "coefficients of the second plant quadrature (schedule)"),
    _Figure("fig09", 2, "coefficients of the first observer quadrature (schedule)"),
    _Figure("fig11", 3, "coefficients of the second observer quadrature (schedule)"),
    _Figure("fig10", 2, "running time averages of the first observer row (schedule)", avg=True),
    _Figure("fig12", 3, "running time averages of the second observer row (schedule)", avg=True),
)

# observer attached, detached, then its conjugate attached until t_end
_DEFAULT_SEGMENTS = (
    replace(_ONE_MODE, duration=20.0),
    SegmentConfig(5.0, disconnect=True),
    SegmentConfig(beta=np.array([[0.0], [1.0]]), r_o=np.eye(2), c_o=np.array([[0.0, 1.0]])),
)


def _resolve_segments(segments, t_end: float) -> tuple[SegmentConfig, ...]:
    """The schedule with the open duration filled in; the config is left as it is."""
    # correctly rounded sums: a float sum of many short durations drifts from t_end
    fixed = math.fsum(s.duration for s in segments if s.duration is not None)
    if any(s.duration is None for s in segments):
        remainder = t_end - fixed
        if remainder <= 0:
            raise ConfigError(
                f"segments: fixed durations ({fixed}) leave no room before t_end ({t_end})"
            )
        segments = tuple(
            replace(s, duration=remainder) if s.duration is None else s for s in segments
        )
    total = math.fsum(s.duration for s in segments)
    # durations that sum to t_end in decimal miss it in floats by three roundings
    # of at most half an ulp, each at most eps/2 * t_end: the decimal inputs' (the
    # durations' together, and t_end's) and fsum's; with an open duration, the fixed
    # sum's, the subtraction's and fsum's. 4 * eps * t_end holds them with room to
    # spare, and the 1e-9 floor keeps every schedule the absolute bound accepted.
    if abs(total - t_end) > max(1e-9, 4 * np.finfo(float).eps * t_end):
        raise ConfigError(f"segments: durations sum to {total}, but t_end is {t_end}")
    return segments


def _measurement_sequence(config: ScenarioConfig) -> _Plan:
    """Observer attach / detach / swap schedule (figure data 7-12), to t_end 100 by default.

    The default schedule runs the one-mode observer for 20 time units,
    disconnects for 5, then attaches an observer of the conjugate quadrature.
    One system is built per distinct (beta, r_o, c_o), keyed by each matrix's
    shape and bytes, in order of first use, and each phase points at it, so
    segments that repeat it share its certificate, flow and report; an error
    names the first segment at fault.
    """
    for key in ("beta", "r_o", "c_o", "alpha", "average_t_end"):
        if getattr(config, key) is not None:
            raise ConfigError(f"{key}: not read by the {config.scenario} scenario")
    t_end = _given(config.t_end, 100.0)
    segments = _resolve_segments(config.segments or _DEFAULT_SEGMENTS, t_end)
    index, systems, phases = {}, [], []
    for i, s in enumerate(segments):
        k = None
        if not s.disconnect:
            key = tuple((m.shape, m.tobytes()) for m in (s.beta, s.r_o, s.c_o))
            if key not in index:
                index[key] = len(systems)
                systems.append(_system(s.beta, s.r_o, s.c_o, where=f"segments[{i}]."))
            k = index[key]
        phases.append((s.duration, k))
    n = systems[0].n
    for i, (_, k) in enumerate(phases):
        if k is not None and systems[k].n != n:
            raise ConfigError(f"segments[{i}]: augmented dimension {systems[k].n} != {n}")
    return _Plan(tuple(phases), tuple(systems), _SEQUENCE_FIGURES, t_end, prefix="phit", schedule=True)


_CUSTOM_FIGURES = (
    _Figure("coefficients", None, "transition-matrix entries"),
    _Figure("averages", None, None, avg=True),
)


def _custom(config: ScenarioConfig) -> _Plan:
    """The one-mode pipeline on user matrices, to t_end 50 by default and averaged to t_end."""
    for key in ("beta", "r_o"):
        if getattr(config, key) is None:
            raise ConfigError(f"{key}: required for the {config.scenario} scenario")
    if config.c_o is None and config.alpha is None:
        raise ConfigError(f"c_o: either c_o or alpha is required for the {config.scenario} scenario")
    if config.segments:
        raise ConfigError(f"segments: not read by the {config.scenario} scenario")
    aug = _system(config.beta, config.r_o, config.c_o, config.alpha)
    t_end = _given(config.t_end, 50.0)
    return _single(aug, _CUSTOM_FIGURES, t_end, _given(config.average_t_end, t_end), config.dt)


# the one place that knows a scenario: its name and the planner that resolves its config
_PLANNERS = {
    "one_mode": _one_mode,
    "measurement_sequence": _measurement_sequence,
    "custom": _custom,
}
SCENARIOS = tuple(_PLANNERS)


def run_scenario(config: ScenarioConfig) -> ArtifactBundle:
    """Run config.scenario: its planner resolves the config, the one pipeline does the rest."""
    return _run(config, _PLANNERS[config.scenario](config))
