"""Propagation of (piecewise) dynamics on a time grid, running averages, diagnostics."""

from __future__ import annotations

import os
from contextvars import copy_context
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ccr import _as_float
from .closed_form import Flow, certify
from .linalg import spectral_norms
from .synthesis import AugmentedSystem

# bytes of one chunk's block of n x n maps, which sets _chunk_rows
CHUNK_BYTES = 16 * 2**20
# slack of the time-average convergence check d(T) <= bound_constant / T
CONVERGENCE_TOL = 1e-6
# bound on the bytes of a grid (8 K), of propagate's maps (8 K n^2) and of what a scenario run holds
MAX_SERIES_BYTES = 2e9
# runs of _each_run in flight at once
WORKERS = 2


@dataclass(frozen=True)
class PropagatorSeries:
    """Transition matrices sampled on a grid; maps[0] is the identity.

    ``flow`` gives the maps as a function of time, as propagate sets it.  A
    series built by hand, such as a slice of another, may carry none.
    """

    times: np.ndarray
    maps: np.ndarray
    flow: Flow | None = None

    @property
    def dim(self) -> int:
        return self.maps.shape[1]


@dataclass(frozen=True)
class AverageSeries:
    """Running averages (1/T) int_0^T Phi(t) dt at T = times[k] (t = 0 excluded)."""

    times: np.ndarray
    averages: np.ndarray


def _step_counts(durations, dt: float) -> list[float]:
    """Steps per duration, max(1, round(duration / dt)), as whole floats.

    round(x, 0) stays a float: a ratio that overflows gives inf, not an error.
    """
    return [max(1.0, round(duration / dt, 0)) for duration in durations]


def _grid(durations, dt: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Grid of step ~dt over consecutive durations from 0, and the index of every boundary.

    Each duration gets its _step_counts equal steps, the last one pinned to
    its boundary.  A grid whose own array would pass MAX_SERIES_BYTES is
    rejected before anything is allocated, and a duration whose steps vanish
    below the float spacing at its start is rejected naming ``segments[i]``.
    """
    counts = _step_counts(durations, dt)
    if not max(counts) < np.inf:
        raise ValueError(
            f"dt must be positive and give a finite number of steps, got dt={dt} for duration {max(durations)}"
        )
    points = 1 + sum(counts)
    if 8 * points > MAX_SERIES_BYTES:
        raise ValueError(
            f"dt={dt} gives {points:.4g} grid points, whose times alone "
            f"({8 * points / 1e9:.3g} GB) exceed {MAX_SERIES_BYTES / 1e9:g} GB"
        )
    times, edges, t0 = np.empty(int(points)), [0], 0.0
    times[0] = 0.0
    for i, (duration, steps) in enumerate(zip(durations, map(int, counts))):
        lo, hi = edges[-1], edges[-1] + steps
        # t0 + (duration / steps) * k for k = 1 .. steps, in place: the sum of
        # ones is exact below 2**53, far above any grid MAX_SERIES_BYTES admits
        local = times[lo + 1 : hi + 1]
        local.fill(1.0)
        np.cumsum(local, out=local)
        local *= duration / steps
        local += t0
        local[-1] = t0 + duration
        if not np.all(local > times[lo:hi]):
            raise ValueError(
                f"segments[{i}].duration: {duration} gives grid steps below the "
                f"float spacing at its start t = {t0}"
            )
        edges.append(hi)
        t0 += duration
    return times, tuple(edges)


def _chunk_rows(n: int) -> int:
    """Rows of every chunk of a K-long evaluation at dimension ``n``.

    The largest multiple of 256 rows, at most 4,096, whose block of maps
    (8 rows n^2 bytes) fits CHUNK_BYTES, and 256 where none fits: 4,096 up to
    n = 22, 256 from n = 65.  At a multiple of 256 the chunked matrix products
    give the bits of one whole-series product under a one-thread BLAS; with
    OpenBLAS's default threads and its Haswell kernel they differ at n = 32
    and 80.
    """
    return min(4096, max(256, CHUNK_BYTES // (8 * n * n) // 256 * 256))


def _run_grid(durations, dt: float, n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """_grid of a run of _sweep at dimension ``n``, once what the run holds fits MAX_SERIES_BYTES.

    A run holds its grid, the diagnosis grid and its d values (24 bytes a
    point), and its chunk buffers, charged 48 n^2 bytes a chunk row: a
    conservative over-count of the maps, the averages, the monitor and basis
    scratch and one product of the held rows (6.57 MB held against 12.6 MB
    charged at n = 8), kept because it decides which configs are refused.
    Past the bound the ValueError starts with ``dt: ``, raised before
    anything is allocated.
    """
    points = 1 + sum(_step_counts(durations, dt))
    held = 24 * points + 48 * min(points, _chunk_rows(n)) * n * n
    if held > MAX_SERIES_BYTES:
        raise ValueError(
            f"dt: {dt} needs {points:.4g} grid points, whose grid, convergence vectors "
            f"and chunk buffers ({held / 1e9:.3g} GB) exceed {MAX_SERIES_BYTES / 1e9:g} GB"
        )
    return _grid(durations, dt)


def _time(value, field: str) -> float:
    """``value`` through the intake as one positive finite float, or a ValueError starting with ``field``."""
    t = _as_float(value, field)
    if t.ndim or not 0 < t < np.inf:
        raise ValueError(f"{field} must be positive and finite, got {value}")
    return float(t)


def uniform_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid over [0, t_end], the step adjusted to hit t_end: a one-segment schedule's grid.

    Raises
    ------
    ValueError
        Whose message starts with ``t_end`` or ``dt``: either is no real
        number (see ``ccr._as_float``) or not one positive finite number, or
        dt exceeds t_end or gives no finite number of steps or a grid past
        MAX_SERIES_BYTES.
    """
    t_end, dt = _time(t_end, "t_end"), _time(dt, "dt")
    if dt > t_end:
        raise ValueError(f"dt must be at most t_end, got dt={dt}, t_end={t_end}")
    return _grid([t_end], dt)[0]


def _runs(edges, n: int):
    """The one chunk iterator: (i, lo, rows) for each run of at most _chunk_rows(n) rows.

    Each segment i starts at row lo = edges[i]; its rows lo + 1 .. edges[i + 1]
    are walked from the first, so every run starts a multiple of the chunk
    rows after the first row of its segment.
    """
    chunk = _chunk_rows(n)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        for first in range(lo + 1, hi + 1, chunk):
            yield i, lo, slice(first, min(first + chunk, hi + 1))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the CPU count where there is none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads of one BLAS product, as OpenBLAS reads them when it loads.

    The first positive value of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, else every usable CPU.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _each_run(edges, n: int, scratch_size, fn) -> list:
    """fn(lo, rows, scratch) for every run of _runs(edges, n), the results in run order.

    ``scratch`` is a float64 array of scratch_size(rows) floats, ``rows``
    being the longest run's, that the run may overwrite and must not keep.
    The calling thread allocates one scratch per run in flight before any
    run starts, and the scratches are freed when the call returns, so a
    worker thread allocates no array of its own: glibc keeps a block freed
    on a thread in that thread's arena, and worker arenas that held each
    run's buffers grew from call to call.
    At most WORKERS runs are in flight, on the threads of a pool made for
    this call and joined before it returns, each in a copy of the caller's
    context (numpy's errstate holds there too) and with a scratch taken
    from the WORKERS free ones.  numpy drops the GIL inside a run's
    products and ufuncs, so two runs use two CPUs as long as their small
    products take C-contiguous operands (see _residuals).
    ``fn`` writes only its own rows, so no result depends on which run ends
    first.  The runs go in order on the calling thread, with one scratch,
    when there is one run, one usable CPU, or a BLAS that spreads each
    product over several threads, which two runs at once contend with: with
    OpenBLAS at two threads on two CPUs, they were slower than one run at a
    time.  The first exception in run order reaches the caller unchanged,
    and the runs not yet started are dropped.
    """
    runs = [(lo, rows) for _, lo, rows in _runs(edges, n)]
    size = scratch_size(max(rows.stop - rows.start for _, rows in runs))
    if len(runs) < 2 or _usable_cpus() < 2 or _blas_threads() > 1:
        scratch = np.empty(size)
        return [fn(lo, rows, scratch) for lo, rows in runs]
    # imported here: they take 7 ms, which a CLI run never needs to pay
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    free = SimpleQueue()
    for _ in range(WORKERS):
        free.put(np.empty(size))

    def run(lo, rows):
        scratch = free.get_nowait()  # never empty: WORKERS threads, WORKERS scratches
        try:
            return fn(lo, rows, scratch)
        finally:
            free.put(scratch)

    pool = ThreadPoolExecutor(WORKERS)
    try:
        futures = [pool.submit(copy_context().run, run, lo, rows) for lo, rows in runs]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _sweep(systems: Sequence[AugmentedSystem | None], times: np.ndarray, edges, average_stop: int):
    """The one pass of a scenario run, and the one place that composes segments.

    Segment i runs ``systems[i]`` from edges[i] to edges[i + 1] on increasing
    ``times``.  A coupled system gives its certificate's flow, its energy r_a
    and its held rows plant_output; a disconnected one (None) has zero
    dynamics: the identity flow, zero energy and every row held.  The flow is
    right-multiplied by the map at times[lo], lo = edges[i] (I at t = 0), so
    one matrix product gives the maps of each run of _runs, and zero
    dynamics give exactly that start map.  Yields (i, rows, start, block,
    averages, residuals) for each run: ``block`` holds the maps at
    times[rows] and ``start`` the map at times[lo]; ``averages`` holds the
    running averages at times[rows] while rows.start is before
    ``average_stop`` (None after it): the exact integrals of the composed
    flow plus the raw integral up to times[lo], carried before the division
    by t, since dividing and re-multiplying would change its last bits.
    ``residuals`` are the block's worst CCR residual, energy residual from
    the start map (both of the first map alone on a disconnected run, whose
    maps can differ from it only in the sign of a zero) and deviation of
    the held rows from the start map, read off every map.
    ``block`` and ``averages`` are buffers that the next run overwrites.
    The pass allocates its buffers once: the two run buffers, one basis
    scratch for the largest flow among ``systems`` and one monitor scratch.
    """
    n, theta = next((aug.n, aug.ccr) for aug in systems if aug is not None)
    longest = min(_chunk_rows(n), times.size - 1)
    averages = np.empty((longest, n, n))
    maps = np.empty_like(averages)
    coupled_flows = (aug.certificate.checked_flow() for aug in systems if aug is not None)
    basis = np.empty(max(flow._scratch_size(longest) for flow in coupled_flows))
    monitor = np.empty(_residuals_scratch_size(longest, n))
    identity, zero = Flow.identity(n), np.zeros((n, n))
    end, total = np.eye(n), None
    for i, lo, rows in _runs(edges, n):
        if rows.start == lo + 1:
            start, carried, aug = end, total, systems[i]
            # every map of a disconnected run is its start map, through the identity
            # flow, so its first map stands for the run in the monitor
            if aug is None:
                flow, energy, held, monitored = identity, zero, None, 1
            else:
                flow, energy, held = aug.certificate.checked_flow(), aug.r_a, aug.plant_output
                monitored = None
            flow = replace(flow, coef=flow.coef @ start)
        count = rows.stop - rows.start
        block = flow._evaluate(times[rows] - times[lo], False, maps[:count], basis)
        run_averages = None
        if rows.start < average_stop:
            run_averages = flow._evaluate(times[rows] - times[lo], True, averages[:count], basis)
            if lo:
                run_averages += carried
            total = run_averages[-1].copy()
            run_averages /= times[rows, None, None]
        ccr_res, energy_res = _residuals(block[:monitored], theta, energy, start, monitor)
        yield i, rows, start, block, run_averages, (ccr_res, energy_res, _deviation(block, start, held))
        end = block[-1].copy()


def _deviation(maps: np.ndarray, start: np.ndarray, rows=None) -> float:
    """max |rows Phi - rows start| over a block of maps Phi (all rows if None), off each entry's extremes:
    x - s rounds monotonically in x, so it has the bits of the elementwise max (NaN too; abs clears -0.0)."""
    if rows is not None:
        maps, start = rows @ maps, rows @ start
    return float(abs(np.maximum(np.max(np.max(maps, axis=0) - start), np.max(start - np.min(maps, axis=0)))))


def propagate(a, grid) -> PropagatorSeries:
    """Transition matrices exp(a t_k) on ``grid``, from the closed-form flow of ``a``.

    That is Flow.identity for an all-zero ``a``, else certify(a, n_p)'s flow,
    n_p the largest even k with a[:k, :k] == 0 (for an a_a the plant, as
    D[:2, :2] = 2 J R'[:2, :2] is non-zero).  It is evaluated _chunk_rows(n)
    rows at a time into the series, up to WORKERS runs at once (_each_run,
    bit for bit as one run at a time), each run's basis in its scratch.
    A float64 grid is the series' times as it is, not a copy.

    Raises
    ------
    ValueError
        ``grid`` or ``a`` has an entry that is no real number (the message
        starts with its name; see ``ccr._as_float``); the grid is not 1-D
        with two points or more, starting at 0, finite and strictly
        increasing, or its maps (8 K n^2 bytes) would pass MAX_SERIES_BYTES
        (``grid: ``, raised before they are allocated); ``a`` is not square
        (``a: ``); or an odd observer block or a failed certificate, named.
    """
    times = _as_float(grid, "grid")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("grid must be a 1-D sequence with at least two points")
    if not np.all(np.isfinite(times)):
        raise ValueError("grid contains non-finite times")
    if times[0] != 0.0:
        raise ValueError(f"grid must start at 0, got {times[0]}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("grid must be strictly increasing")
    a = _as_float(a, "a")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a: must be square, got shape {a.shape}")
    n = a.shape[0]
    held = 8 * times.size * n * n
    if held > MAX_SERIES_BYTES:
        raise ValueError(
            f"grid: {times.size} points of {n} x {n} maps ({held / 1e9:.3g} GB) "
            f"exceed {MAX_SERIES_BYTES / 1e9:g} GB"
        )
    n_p = max(k for k in range(0, n + 1, 2) if not a[:k, :k].any())
    if a.any() and (n - n_p) % 2:
        raise ValueError(f"observer block a[{n_p}:, {n_p}:] has odd size {n - n_p}")
    flow = certify(a, n_p).checked_flow() if a.any() else Flow.identity(n)
    maps = np.empty((times.size, n, n))
    maps[0] = np.eye(n)

    def evaluate(_, rows, scratch):
        flow._evaluate(times[rows], False, maps[rows], scratch)

    _each_run((0, times.size - 1), n, flow._scratch_size, evaluate)
    return PropagatorSeries(times=times, maps=maps, flow=flow)


def time_average(series: PropagatorSeries) -> AverageSeries:
    """Running averages (1/T) int_0^T Phi at T = times[1:], from the series' flow.

    The flow is integrated exactly from t = 0, _chunk_rows(n) rows at a
    time and up to WORKERS runs at once (_each_run, bit for bit as one run
    at a time, each run's basis in its scratch), straight into the
    averages, which are the size of the series' maps and so within
    propagate's bound.  The average at T -> 0 tends to the identity by
    continuity; T = 0 itself is excluded from the output.  The series needs
    its flow, as propagate returns it.
    """
    times, maps = series.times, series.maps
    if times.size < 2:
        raise ValueError("series must contain at least one step beyond t=0")
    if series.flow is None:
        raise ValueError("series has no flow to integrate; propagate returns one")
    averages = np.empty_like(maps[1:])

    def average(_, rows, scratch):
        part = series.flow._evaluate(times[rows], True, averages[rows.start - 1 : rows.stop - 1], scratch)
        part /= times[rows, None, None]

    _each_run((0, times.size - 1), series.dim, series.flow._scratch_size, average)
    return AverageSeries(times=times[1:].copy(), averages=averages)


@dataclass(frozen=True)
class InvariantReport:
    """Worst-case conservation residuals over a propagator series."""

    max_ccr_residual: float
    max_energy_residual: float


def invariant_monitor(series: PropagatorSeries, theta, r_a) -> InvariantReport:
    """Max over the grid of |Phi theta Phi.T - theta| and |Phi.T r_a Phi - Phi_0.T r_a Phi_0|.

    Energy is measured against the series' first map, so a slice of a
    schedule is checked against its own Hamiltonian from its start; for a
    series from t = 0 (Phi_0 = I) the reference is r_a itself.  ``theta``
    and ``r_a`` go through the intake (``ccr._as_float``) and must match
    the series' dimension.  The maps are checked _chunk_rows(n) rows at a
    time, up to WORKERS runs at once (_each_run; a max takes the same bits
    in any order), each run in a scratch of _residuals_scratch_size floats.
    """
    theta, r_a = _as_float(theta, "theta"), _as_float(r_a, "r_a")
    n, maps = series.dim, series.maps
    if theta.shape != (n, n) or r_a.shape != (n, n):
        raise ValueError("series, theta and r_a dimensions disagree")
    if not len(maps):
        raise ValueError("series must contain at least one map")

    def monitor(_, rows, scratch):
        return _residuals(maps[rows], theta, r_a, maps[0], scratch)

    # edges (-1, K - 1) walk the rows from 0, so the first map is checked too
    worst = _each_run((-1, len(maps) - 1), n, lambda rows: _residuals_scratch_size(rows, n), monitor)
    ccr_res, energy_res = np.max(worst, axis=0).tolist()
    return InvariantReport(max_ccr_residual=ccr_res, max_energy_residual=energy_res)


def _residuals_scratch_size(rows: int, n: int) -> int:
    """Floats of a _residuals scratch for blocks of up to ``rows`` n x n maps: three quarter-block pieces."""
    return 3 * -(-rows // 4) * n * n


def _residuals(maps: np.ndarray, theta, r_a, start: np.ndarray, scratch: np.ndarray):
    """Max of |Phi theta Phi.T - theta| and of |Phi.T r_a Phi - start.T r_a start| over a block of maps.

    Every product takes C-contiguous operands: each piece of the block is
    copied transposed first, so Phi theta, (Phi theta) Phi.T, Phi.T r_a and
    (Phi.T r_a) Phi are plain products.  OpenBLAS takes a transposed operand
    on its general path, where two runs of _each_run at once were slower
    than one; its small-matrix kernels take plain products without
    contention.  A piece's copy and two products fill ``scratch``, whose
    pieces are a third of it.  The pieces' worst values combine with np.max,
    so a NaN reaches the result.
    """
    energy_ref, size = start.T @ r_a @ start, theta.size
    piece = len(scratch) // (3 * size)
    worst = []
    for lo in range(0, len(maps), piece):
        block = maps[lo : lo + piece]
        block_t, first, product = scratch[: 3 * block.size].reshape((3,) + block.shape)
        np.copyto(block_t, block.transpose(0, 2, 1))
        residuals = []
        for left, middle, right, ref in ((block, theta, block_t, theta), (block_t, r_a, block, energy_ref)):
            np.matmul(np.matmul(left, middle, out=first), right, out=product)
            product -= ref
            residuals.append(np.max(np.abs(product, out=product)))
        worst.append(residuals)
    ccr_res, energy_res = np.max(worst, axis=0).tolist()
    return ccr_res, energy_res


@dataclass(frozen=True)
class ConvergenceReport:
    """Decay of d(T) = ||averaged (z_p - z_o) coefficient rows at T||."""

    t_values: np.ndarray
    d_values: np.ndarray
    bound_constant: float
    max_t_times_d: float
    decay_rate: float
    converged: bool


def convergence_diagnostics(aug: AugmentedSystem, horizon: float, dt: float) -> ConvergenceReport:
    """Check the time-average convergence of the observer output rows of ``aug``.

    d(T) is the norm of the output-difference rows of the running average at
    T, on uniform_grid(horizon, dt).  The closed-form coefficients of
    ``aug.certificate`` are projected onto those rows first, so only the m_p
    rows of the averages are formed, one chunk at a time.  d is compared on
    a geometric ladder of T values halving from ``horizon`` down to 20 dt
    against bound_constant / T, with bound_constant =
    (norm_bound + 1) ||c_o|| ||R|| / (2 lambda_min), read off the certificate
    (the norm bound of the observer flow, its right factor R = [inv(D) C, I]
    and the smallest eigenvalue of R') and the observer output selector.
    ``converged`` fails for couplings that transfer no information (for
    example alpha = 0).

    Raises
    ------
    ValueError
        Whose message starts with ``horizon`` or ``dt``: either is no real
        number (see ``ccr._as_float``) or not one positive finite number, or
        dt exceeds the horizon or gives no finite number of steps or a grid
        past MAX_SERIES_BYTES; or the certificate of ``aug`` gives no flow,
        whose message it carries.
    """
    horizon, dt = _time(horizon, "horizon"), _time(dt, "dt")
    if dt > horizon:
        raise ValueError(f"dt must be at most horizon, got dt={dt}, horizon={horizon}")
    grid = _grid([horizon], dt)[0]
    times = grid[1:]
    certificate = aug.certificate
    flow = certificate.checked_flow()
    rows_flow = replace(flow, coef=(aug.plant_output - aug.observer_output) @ flow.coef)
    # each chunk of averaged rows becomes its d values, and the max of t d
    block = np.empty((min(_chunk_rows(aug.n), times.size),) + rows_flow.coef.shape[1:])
    scratch = np.empty(rows_flow._scratch_size(len(block)))
    d_all, t_times_d = np.empty(times.size), []
    for _, _, rows in _runs((0, times.size), aug.n):
        part = rows_flow._evaluate(grid[rows], True, block[: rows.stop - rows.start], scratch)
        part /= grid[rows, None, None]
        d = d_all[rows.start - 1 : rows.stop - 1]
        d[:] = spectral_norms(part)
        t_times_d.append(np.max(grid[rows] * d))

    ladder = [horizon]
    while ladder[-1] / 2.0 >= 20.0 * dt:
        ladder.append(ladder[-1] / 2.0)
    # the nearer grid neighbour of each T, the earlier on a tie, as argmin |times - T| picks it
    ladder = np.array(ladder[::-1])
    right = np.searchsorted(times, ladder).clip(1, times.size - 1)
    near_left = np.abs(times[right - 1] - ladder) <= np.abs(times[right] - ladder)
    indices = np.where(near_left, right - 1, right)
    t_sel = times[indices]
    d_sel = d_all[indices]

    # ||inv(R') theta_2|| = 1 / lambda_min, theta_2 being orthogonal
    output_norm, right_norm = (spectral_norms(m[None])[0] for m in (aug.observer_output, certificate.right))
    bound_constant = 0.5 * (certificate.norm_bound + 1.0) / certificate.lambda_min * output_norm * right_norm

    converged = bool(np.all(d_sel <= bound_constant / t_sel + CONVERGENCE_TOL))
    positive = np.maximum(d_sel, 1e-300)
    slope = float(np.polyfit(np.log(t_sel), np.log(positive), 1)[0]) if t_sel.size > 1 else 0.0
    return ConvergenceReport(
        t_values=t_sel,
        d_values=d_sel,
        bound_constant=float(bound_constant),
        max_t_times_d=float(np.max(t_times_d)),
        decay_rate=slope,
        converged=converged,
    )
