"""Semi-implicit Euler-Maruyama integrator for the truncated model

    du + [nu Lambda^{2 theta2} u + chi B(Gu, u)] dt = chi g(u) dW,

with the diagonal linear part treated exactly implicitly (unconditionally
stable for the stiff dissipation multiplier) and the nonlinearity and noise
explicit:

    u_{m+1} = (u_m - dt chi B(Gu_m, u_m) + chi g(u_m) dW_m)
              / (1 + dt nu |k|^{2 theta2}) .

chi = smooth_cutoff(||u_m||_1, R) damps the dynamics once the H^1 norm leaves
the ball of radius R (chi = 1 when no cutoff radius is configured).  Stopping
monitors observe the run without halting it; only a non-finite state halts,
recorded separately from monitor hits.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    ModelContext,
    SpectralField,
    canonical_mode,
    default_fft_workers,
    energies,
    get_fft_workers,
    inner_products,
    leray_project,
    random_field,
    scalar_squares,
    set_fft_workers,
)
from .nonlinear import _advect_block, leray_advection  # noqa: F401  (perfbench/spans.py wraps leray_advection here)
from .noise import NoiseFamily, WienerStream, wiener_increment  # noqa: F401  (perfbench/spans.py wraps it here)

MONITOR_KINDS = ("tau_R", "rho_M", "gamma_K")


def smooth_cutoff(x: float, radius: float) -> float:
    """C^infinity decreasing profile: 1 for x <= R, 0 for x >= 2R, smooth
    monotone transition on (R, 2R) with value 1/2 at the midpoint."""
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    if x <= radius:
        return 1.0
    if x >= 2.0 * radius:
        return 0.0
    t = (x - radius) / radius

    def bump(y: float) -> float:
        return math.exp(-1.0 / y) if y > 0 else 0.0

    return bump(1.0 - t) / (bump(t) + bump(1.0 - t))


@dataclass(frozen=True)
class Monitor:
    """A stopping-time observer.

    tau_R:   first grid time with ||u(t)||_1 >= threshold
    rho_M:   first grid time with sup_{s<=t} ||u(s)||_1^2
             + int_0^t ||u||_{theta2+1}^2 ds >= threshold
    gamma_K: first grid time with int_0^t ||u||_{theta2}^2 ds >= threshold
    """

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in MONITOR_KINDS:
            raise ValueError(f"unknown monitor kind {self.kind!r}; expected one of {MONITOR_KINDS}")
        if not (self.threshold > 0 and math.isfinite(self.threshold)):
            raise ValueError("monitor threshold must be positive and finite")


@dataclass(frozen=True)
class StoppingRecord:
    kind: str
    threshold: float
    hit_time: float


@dataclass(frozen=True)
class InitialData:
    """Initial state specification: a single +-k mode pair with given L^2
    amplitude, or a seeded random field with power-law spectrum."""

    kind: str
    amplitude: float = 1.0
    mode: tuple[int, int, int] | None = None
    seed: int = 0
    slope: float = 2.0

    def __post_init__(self):
        if self.kind not in ("single_mode", "random"):
            raise ValueError("initial kind must be 'single_mode' or 'random'")
        if self.kind == "single_mode" and self.mode is None:
            raise ValueError("single_mode initial data needs a mode")
        if not math.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError("initial amplitude must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mode is not None:
            canonical_mode(self.mode)  # rejects the zero mode

    def build(self, ctx: ModelContext) -> SpectralField:
        if self.kind == "single_mode":
            if self.amplitude == 0:
                return SpectralField.zero(ctx.n)
            return SpectralField.single_mode(ctx.n, self.mode, self.amplitude)
        return random_field(ctx, seed=self.seed, spectrum_slope=self.slope, amplitude=self.amplitude)


# relative tolerance for T and snapshot_every being whole numbers of steps dt
_GRID_RTOL = 1e-9


def grid_steps(span: float, dt: float) -> int | None:
    """span / dt when span is a whole number (>= 1) of steps dt, to within a
    relative 1e-9; None otherwise (also when the ratio is not finite)."""
    ratio = span / dt
    if not math.isfinite(ratio):
        return None
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > _GRID_RTOL * ratio:
        return None
    return steps


class RunConfigError(ValueError):
    """A value that a RunConfig check rejects; `field` names the field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    """Everything one trajectory needs; ensembles vary trajectory_id only."""

    ctx: ModelContext
    dt: float
    horizon: float
    noise: NoiseFamily
    initial: InitialData
    seed: int = 0
    trajectory_id: int = 0
    cutoff_radius: float | None = None
    monitors: tuple[Monitor, ...] = ()
    snapshot_every: float | None = None
    nonlinear: bool = True

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise RunConfigError("dt", "dt must be positive and finite")
        if not (self.horizon > self.dt):
            raise RunConfigError("horizon", "dt must be smaller than T, the horizon")
        if grid_steps(self.horizon, self.dt) is None:
            raise RunConfigError(
                "horizon", f"horizon T = {self.horizon!r} is not a whole number of steps dt = {self.dt!r}"
            )
        if self.seed < 0:
            raise RunConfigError("seed", "seed must be >= 0")
        noise_n = getattr(self.noise, "n", self.ctx.n)  # the mode families are built for one truncation
        if noise_n != self.ctx.n:
            raise RunConfigError("noise", f"noise truncation n={noise_n} does not match the model n={self.ctx.n}")
        mode = self.initial.mode
        if mode is not None and max(abs(c) for c in mode) > self.ctx.n:
            raise RunConfigError("initial", f"initial mode {tuple(mode)} lies outside the truncation n={self.ctx.n}")
        if self.cutoff_radius is not None and not self.cutoff_radius > 0:
            raise RunConfigError("cutoff_radius", "cutoff radius R must be positive")
        if self.snapshot_every is not None:
            if not self.snapshot_every > 0:
                raise RunConfigError("snapshot_every", "snapshot_every must be positive")
            if grid_steps(self.snapshot_every, self.dt) is None:
                raise RunConfigError(
                    "snapshot_every",
                    f"snapshot_every = {self.snapshot_every!r} is not a whole number of steps dt = {self.dt!r}",
                )
        object.__setattr__(self, "monitors", tuple(self.monitors))

    @property
    def steps(self) -> int:
        return grid_steps(self.horizon, self.dt)


@dataclass(frozen=True)
class TrajectoryState:
    t: float
    u: SpectralField
    step_index: int
    halted: StoppingRecord | None = None


# Row names of a TrajectoryRecord's two blocks: values at the steps + 1 grid
# times, and per-step ledger increments.  Each name is also a read-only
# record attribute that returns its row.
SERIES_COLUMNS = (
    "t",
    "norm_l2",
    "norm_h1",
    "norm_th2",
    "norm_th2p1",
    "int_diss_th2",
    "int_diss_th2p1",
    "injection_cum",
)
INCREMENT_COLUMNS = ("mart_l2", "inj_l2", "mart_h1", "inj_h1", "adv_h1", "chi")
_NORM_ROWS = slice(1, 5)  # norm_l2 .. norm_th2p1


def _named_rows(cls):
    """Give cls one read-only attribute per row name of its two blocks."""
    for block, names in (("series", SERIES_COLUMNS), ("increments", INCREMENT_COLUMNS)):
        for index, name in enumerate(names):
            setattr(cls, name, property(lambda record, block=block, index=index: getattr(record, block)[index]))
    return cls


@_named_rows
@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One sample path: the series block (len(SERIES_COLUMNS), len(t)) of
    norms and cumulative integrals at the grid times, the increment block
    (len(INCREMENT_COLUMNS), len(t) - 1) of per-step ledger terms, monitor
    outcomes and optional snapshots.  Both blocks end at the last finite
    state when a run blows up (complete = False)."""

    cfg: RunConfig
    series: np.ndarray
    increments: np.ndarray
    overflow: StoppingRecord | None
    snapshots: tuple[tuple[float, SpectralField], ...]
    final_field: SpectralField

    @property
    def norms(self) -> np.ndarray:
        """The (4, len(t)) rows ||u||_0, ||u||_1, ||u||_theta2, ||u||_{theta2+1}."""
        return self.series[_NORM_ROWS]

    @property
    def complete(self) -> bool:
        return self.overflow is None

    @property
    def trajectory_id(self) -> int:
        return self.cfg.trajectory_id

    @property
    def hits(self) -> tuple[StoppingRecord | None, ...]:
        """First crossing of each configured monitor (None if never), read
        from the recorded series by detect_stopping."""
        hits = []
        for mon in self.cfg.monitors:
            hit_time = detect_stopping(self, mon.kind, mon.threshold)
            hits.append(None if hit_time is None else StoppingRecord(mon.kind, mon.threshold, hit_time))
        return tuple(hits)


class _StepCore:
    """Per-run constants and the one update, driven only by _run_lockstep:
    it advances K trajectories of one setup, which differ only in
    trajectory_id, from a (K, M, 3) state block at any grid step, so a run
    may start from any TrajectoryState (its start point)."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.lattice = lat = cfg.ctx.lattice
        th2 = cfg.ctx.theta2
        self.denom = (1.0 + cfg.dt * cfg.ctx.nu * cfg.ctx.dissipation_multiplier)[:, None]
        self.sqrt_dt = math.sqrt(cfg.dt)
        self.filter = cfg.ctx.filter_multiplier[:, None]
        # |k|^{2s} for s = 0, 1, theta2, theta2 + 1
        self.weights = [lat.power(2.0 * s) for s in (0.0, 1.0, th2, th2 + 1.0)]

    def norms(self, coeffs: np.ndarray) -> np.ndarray:
        """||u||_0, ||u||_1, ||u||_theta2, ||u||_{theta2+1} of coefficients
        (..., M, 3), along a last axis of length 4."""
        return np.sqrt(energies(coeffs, self.weights))

    def increments(self, streams: list[WienerStream], step_index: int) -> np.ndarray:
        """The step's Wiener increments of K streams as one (K, dim) block:
        each stream draws into its row, then the block is scaled by sqrt(dt)
        once, which gives wiener_increment's values without its checks."""
        dw = np.empty((len(streams), self.cfg.noise.dim))
        for row, stream in zip(dw, streams):
            stream._draw(step_index, row)
        dw *= self.sqrt_dt
        return dw

    def advance(
        self, u: np.ndarray, step_index: int, streams: list[WienerStream], rows: np.ndarray, inc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One semi-implicit Euler-Maruyama step of K trajectories from their
        states u (K, M, 3) at grid step step_index; streams[k] drives member
        k.  rows is the (K, len(SERIES_COLUMNS), 2) slice of the series block
        at grid steps (m, m + 1): column 0 is read, and column 1 gets the new
        norms and cumulative integrals (its t is left alone).  inc (K,
        len(INCREMENT_COLUMNS)) gets the step's ledger increments.  Returns
        the new states and a (K,) mask of the members whose new norms are
        finite (an advection that overflows makes them non-finite); the rows
        and increments of the others hold garbage.

        The cutoff, the advection and the Gaussian draws are made per member
        (scalar math.exp, one product-grid transform per state, one Philox key
        per stream); the rest is elementwise or a reduction along the last
        axis of C-contiguous blocks, which numpy sums per row as it would for
        one state, so each member's numbers are those of a run of its own."""
        cfg = self.cfg
        _, l2, h1, th2, th2p1, int_th2, int_th2p1, injection = rows.swapaxes(0, 1)
        if cfg.cutoff_radius is None:
            chi = np.ones(len(u))
        else:
            chi = np.array([smooth_cutoff(x, cfg.cutoff_radius) for x in h1[:, 0].tolist()])
        with np.errstate(over="ignore", invalid="ignore"):
            # B(Gu, u), with helmholtz_filter's product for Gu
            bconv = _advect_block(self.lattice, u * self.filter, u) if cfg.nonlinear else None
            dw = self.increments(streams, step_index)
            gw = cfg.noise._apply_block(u, dw)
            new = u + chi[:, None, None] * gw
            if bconv is not None:
                new -= (cfg.dt * chi)[:, None, None] * bconv
            new /= self.denom
            norms = self.norms(new)
            # ||u||_0 weighs every mode, so finite norms imply a finite state
            finite = np.isfinite(norms).all(axis=1)
            hs_l2, hs_h1 = cfg.noise._ledger_hs_norms_sq(u, l2[:, 0], h1[:, 0])
            inj_l2 = chi * chi * hs_l2 * cfg.dt
            mart_l2, mart_h1 = inner_products(gw, u, self.weights[:2]).T
            adv_h1 = np.zeros(len(u))
            if bconv is not None:
                adv_h1 = 2.0 * chi * inner_products(bconv, u, self.weights[1:2])[:, 0] * cfg.dt
            # INCREMENT_COLUMNS order
            inc.T[:] = (2.0 * chi * mart_l2, inj_l2, 2.0 * chi * mart_h1, chi * chi * hs_h1 * cfg.dt, adv_h1, chi)
            rows[:, _NORM_ROWS, 1] = norms
            int_th2[:, 1] = int_th2[:, 0] + 0.5 * cfg.dt * (scalar_squares(th2[:, 0]) + scalar_squares(th2[:, 1]))
            int_th2p1[:, 1] = int_th2p1[:, 0] + 0.5 * cfg.dt * (
                scalar_squares(th2p1[:, 0]) + scalar_squares(th2p1[:, 1])
            )
            injection[:, 1] = injection[:, 0] + inj_l2
        return new, finite


def initial_state(cfg: RunConfig) -> TrajectoryState:
    return TrajectoryState(t=0.0, u=leray_project(cfg.initial.build(cfg.ctx)), step_index=0)


def step(state: TrajectoryState, cfg: RunConfig) -> TrajectoryState:
    """Advance one grid step, as a one-step run of _run_lockstep from state
    without snapshots, at this process's FFT thread count; raises on a
    halted state, halts (with an overflow record, distinct from monitor
    hits) when the update is not finite."""
    if state.halted is not None:
        raise ValueError("cannot step a halted trajectory")
    (record,) = _run_lockstep([replace(cfg, snapshot_every=None)], state, state.step_index + 1)
    if not record.complete:
        return replace(state, halted=record.overflow)
    return TrajectoryState(t=float(record.t[-1]), u=record.final_field, step_index=state.step_index + 1)


def _in_process(run: Callable[[], list]) -> list:
    """Call run, a run in this process, at default_fft_workers() kernel
    threads; restore the previous count when it returns or raises."""
    previous = get_fft_workers()
    set_fft_workers(default_fft_workers())
    try:
        return run()
    finally:
        set_fft_workers(previous)


def run_trajectory(cfg: RunConfig) -> TrajectoryRecord:
    """Integrate one path over [0, steps * dt] in this process, recording
    norms, ledger increments and snapshots at the configured cadence."""
    return _in_process(lambda: _run_lockstep([cfg]))[0]


def _run_lockstep(
    cfgs: list[RunConfig], start: TrajectoryState | None = None, stop: int | None = None
) -> list[TrajectoryRecord]:
    """Integrate trajectories that differ only in trajectory_id in lockstep,
    one _StepCore.advance per grid step, from the start point `start` (the
    state every member starts from: initial_state by default) to grid step
    `stop` (cfg.steps by default).  The blocks and the snapshot cadence count
    from the start's step index, the cumulative integrals from 0.  A member
    whose step is not finite leaves the live set; its record ends at its
    last finite state, as in a run of its own, and the others carry on."""
    cfg = cfgs[0]
    core = _StepCore(cfg)
    start = initial_state(cfg) if start is None else start  # the initial data does not depend on the id
    first, stop = start.step_index, cfg.steps if stop is None else stop
    n, steps = cfg.ctx.n, stop - first
    u = np.repeat(start.u.coeffs[None], len(cfgs), axis=0)
    streams = [WienerStream(c.seed, c.trajectory_id, c.noise.dim) for c in cfgs]

    # row k of u, series, increments and streams is member live[k]; column j
    # of the blocks is grid step first + j
    live = list(range(len(cfgs)))
    series = np.zeros((len(cfgs), len(SERIES_COLUMNS), steps + 1))
    increments = np.zeros((len(cfgs), len(INCREMENT_COLUMNS), steps))
    t = np.arange(first, stop + 1) * cfg.dt
    series[:, 0] = t
    times = t.tolist()  # halt and snapshot times, as Python floats
    with np.errstate(over="ignore", invalid="ignore"):  # norms that overflow halt the first step
        series[:, _NORM_ROWS, 0] = core.norms(start.u.coeffs)

    cadence = None if cfg.snapshot_every is None else grid_steps(cfg.snapshot_every, cfg.dt)
    snapshots = [[(times[0], start.u)] if cadence is not None else [] for _ in cfgs]
    records: list[TrajectoryRecord | None] = [None] * len(cfgs)

    def finish(row: int, last: int, overflow: StoppingRecord | None) -> None:
        # Records, snapshots and final fields are views of the blocks, whose
        # other rows belong to the other members; a halting member copies
        # its rows out, as the blocks are about to be compacted.
        member = live[row]
        rows, incs, final = series[row, :, : last + 1], increments[row, :, :last], u[row]
        if overflow is not None:
            rows, incs, final = rows.copy(), incs.copy(), final.copy()
        records[member] = TrajectoryRecord(
            cfgs[member], rows, incs, overflow, tuple(snapshots[member]), SpectralField(n, final)
        )

    for j, m in enumerate(range(first, stop)):
        new, finite = core.advance(u, m, streams, series[:, :, j : j + 2], increments[:, :, j])
        if not finite.all():
            for row in np.flatnonzero(~finite):
                finish(row, j, StoppingRecord("overflow", math.inf, times[j + 1]))
            keep = np.flatnonzero(finite)
            live = [live[row] for row in keep]
            streams = [streams[row] for row in keep]
            new, series, increments = new[keep], series[keep], increments[keep]
            if not live:
                break
        u = new
        if cadence is not None and ((m + 1) % cadence == 0 or m + 1 == stop):
            for row, member in enumerate(live):
                snapshots[member].append((times[j + 1], SpectralField(n, u[row])))
    for row in range(len(live)):
        finish(row, steps, None)
    return records


def detect_stopping(record: TrajectoryRecord, kind: str, threshold: float) -> float | None:
    """First grid time at which the monitored functional reaches the
    threshold, or None; recomputed from the recorded series."""
    if kind not in MONITOR_KINDS:
        raise ValueError(f"unknown monitor kind {kind!r}")
    if kind == "tau_R":
        series = record.norm_h1
    elif kind == "rho_M":
        series = np.maximum.accumulate(record.norm_h1**2) + record.int_diss_th2p1
    else:
        series = record.int_diss_th2
    crossed = series >= threshold
    if not crossed.any():
        return None
    return float(record.t[int(np.argmax(crossed))])


# ---------------------------------------------------------------------------
# ensembles


# maps one chunk's records to what the chunk returns, in the process that ran it
ChunkSink = Callable[[list[TrajectoryRecord]], list]


@dataclass(frozen=True)
class _Chunk:
    """Trajectories trajectory_id, ..., trajectory_id + size - 1 of the
    ensemble of cfg, advanced in lockstep by one process; sink, when given,
    maps their records to what the chunk returns, in that process."""

    cfg: RunConfig
    size: int
    sink: ChunkSink | None = None

    @property
    def trajectory_id(self) -> int:
        return self.cfg.trajectory_id

    def run(self) -> list:
        first = self.cfg.trajectory_id
        records = _run_lockstep([replace(self.cfg, trajectory_id=first + i) for i in range(self.size)])
        return records if self.sink is None else self.sink(records)


# Bytes of state and record one lockstep chunk may hold while it runs.  A
# member carries 48 bytes of state per mode and 8 bytes per series and
# increment row per step: the 500-step n = 1 OU ensemble runs 73 members per
# chunk, n = 16 runs 4 and from n = 24 on a chunk has one, so no chunk
# allocates (K, M, 3) blocks of many megabytes.  What a pool task sends back
# is bounded by its sink: whole records without one.
_CHUNK_BYTES = 1 << 22


def _chunks(cfg: RunConfig, size: int, workers: int, sink: ChunkSink | None = None) -> list[_Chunk]:
    """Contiguous chunks of the ids 0..size-1, at least one per worker and
    each within _CHUNK_BYTES, their sizes differing by at most 1."""
    modes = ((2 * cfg.ctx.n + 1) ** 3 - 1) // 2  # without building the lattice in this process
    member = 48 * modes + 8 * (len(SERIES_COLUMNS) + len(INCREMENT_COLUMNS)) * (cfg.steps + 1)
    count = max(min(workers, size), -(-size // max(1, _CHUNK_BYTES // member)))
    bounds = [size * i // count for i in range(count + 1)]
    return [_Chunk(replace(cfg, trajectory_id=a), b - a, sink) for a, b in zip(bounds, bounds[1:])]


def _pool_worker(chunk: _Chunk) -> list:
    return chunk.run()


def _pool_init(fft_workers: int) -> None:
    set_fft_workers(fft_workers)


def _pool_shape(workers: int, chunks: int) -> tuple[int, int]:
    """Processes of an ensemble pool and kernel threads per process: no
    more processes than chunks or CPUs (a fork pool starts all of them at
    once), and the CPUs shared among them."""
    cpus = os.cpu_count() or 1
    processes = min(workers, chunks, cpus)
    return processes, max(1, cpus // processes)


# The pool's start method, named so that a platform default (forkserver from
# Python 3.14 on Linux) changes nothing.  fork starts a worker without
# importing anything again; the kernel's threads never outlive a transform,
# so no thread is copied.  Records do not depend on the method.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def run_ensemble(cfg: RunConfig, size: int, workers: int = 1, *, sink: ChunkSink | None = None) -> list:
    """Run `size` trajectories with ids 0..size-1, in lockstep chunks, and
    return their records in id order.  Records are identical for any worker
    count and chunking: streams are keyed by (seed, id) and never shared,
    and a chunk member's numbers are those of a run of its own.

    sink, a picklable callable, receives each chunk's records in the process
    that ran the chunk and returns one result per record; run_ensemble then
    returns those results in id order instead of the records.  Chunks run
    in this process as run_trajectory does, or in a pool whose children run
    the product-grid kernel at their share of the CPUs."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    chunks = _chunks(cfg, size, workers, sink)
    processes, per_child = _pool_shape(workers, len(chunks))
    if processes <= 1:
        return _in_process(lambda: [result for chunk in chunks for result in chunk.run()])
    with ProcessPoolExecutor(
        max_workers=processes,
        mp_context=multiprocessing.get_context(_START_METHOD),
        initializer=_pool_init,
        initargs=(per_child,),
    ) as pool:
        return [result for results in pool.map(_pool_worker, chunks) for result in results]
