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
import sys
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
        steps = grid_steps(self.horizon, self.dt)
        if steps is None:
            raise RunConfigError(
                "horizon", f"horizon T = {self.horizon!r} is not a whole number of steps dt = {self.dt!r}"
            )
        if 8 * len(SERIES_COLUMNS) * (steps + 1) > sys.maxsize:  # a member's series block, in bytes
            raise RunConfigError(
                "horizon",
                f"horizon T = {self.horizon!r} is {steps} steps dt = {self.dt!r}, more than an array can hold",
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
_SUM_ROWS = slice(5, 8)  # int_diss_th2 .. injection_cum


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


def _window_block(steps: list[np.ndarray]) -> np.ndarray:
    """The (K, W, ...) block of W per-step arrays (K, ...): a view of the one
    array of a one-step window, which np.stack would copy."""
    return steps[0][:, None] if len(steps) == 1 else np.stack(steps, axis=1)


class _StepCore:
    """Per-run constants and the two halves of a step, driven only by
    _run_lockstep: it advances K trajectories of one setup, which differ only
    in trajectory_id, from a (K, M, 3) state block at any grid step, so a run
    may start from any TrajectoryState (its start point).

    advance makes one step's state update.  ledger records a window of W
    steps at once, from (K, W, M, 3) blocks of their states, noise terms and
    advections: the norms, the ledger increments and the cumulative
    integrals.  The cutoff, the advection and the Gaussian draws are made
    per member (scalar math.exp, one product-grid transform per state, one
    Philox key per stream); the rest is elementwise, a reduction along the
    last axis of a C-contiguous block, which numpy sums per row as it would
    for one state, or a sequential sum along the steps, so each member's
    numbers at each step are those of a run of its own stepped alone."""

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

    def cutoff(self, norm_h1: np.ndarray) -> np.ndarray:
        """chi of K states from their H^1 norms (K,): ones without a cutoff."""
        radius = self.cfg.cutoff_radius
        if radius is None:
            return np.ones(len(norm_h1))
        return np.array([smooth_cutoff(x, radius) for x in norm_h1.tolist()])

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
        self, u: np.ndarray, step_index: int, streams: list[WienerStream], chi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One semi-implicit Euler-Maruyama update of K trajectories from
        their states u (K, M, 3) at grid step step_index, with cutoff factors
        chi (K,); streams[k] drives member k.  Returns the new states, the
        noise terms g(u) dW and the advections B(Gu, u) (None without
        advection), each (K, M, 3) and fresh.  A state that overflows is not
        an error: its new state is not finite."""
        cfg = self.cfg
        with np.errstate(over="ignore", invalid="ignore"):
            # B(Gu, u), with helmholtz_filter's product for Gu
            bconv = _advect_block(self.lattice, u * self.filter, u) if cfg.nonlinear else None
            gw = cfg.noise._apply_block(u, self.increments(streams, step_index))
            new = u + chi[:, None, None] * gw
            if bconv is not None:
                new -= (cfg.dt * chi)[:, None, None] * bconv
            new /= self.denom
        return new, gw, bconv

    def ledger(
        self,
        states: list[np.ndarray],
        noise_terms: list[np.ndarray],
        advections: list[np.ndarray | None],
        chi: np.ndarray,
        rows: np.ndarray,
        inc: np.ndarray,
    ) -> np.ndarray:
        """Record a window of W steps of K trajectories from what advance
        made: the W + 1 state blocks (K, M, 3) of the window's grid steps,
        and the W steps' noise terms and advections (None without
        advection), with the window's cutoff factors chi (K,).  Each list is
        stacked into a (K, W, M, 3) block only while it is used.  rows is
        the (K, len(SERIES_COLUMNS), W + 1) slice of the series block at the
        window's grid steps: column 0 is read, and columns 1..W get the new
        norms and cumulative integrals (their t is left alone).  inc (K,
        len(INCREMENT_COLUMNS), W) gets the steps' ledger increments.
        Returns the (K, W) mask of the steps whose new norms are finite (an
        advection that overflows makes them non-finite); the rows and
        increments of the others hold garbage."""
        cfg = self.cfg
        chi = chi[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            norms = self.norms(_window_block(states[1:]))
            # ||u||_0 weighs every mode, so finite norms imply a finite state
            finite = np.isfinite(norms).all(axis=-1)
            rows[:, _NORM_ROWS, 1:] = norms.transpose(0, 2, 1)
            u = _window_block(states[:-1])
            hs_l2, hs_h1 = cfg.noise._ledger_hs_norms_sq(u, rows[:, 1, :-1], rows[:, 2, :-1])
            inj_l2 = chi * chi * hs_l2 * cfg.dt
            mart = inner_products(_window_block(noise_terms), u, self.weights[:2])
            mart_l2, mart_h1 = mart[..., 0], mart[..., 1]
            adv_h1 = 0.0
            if advections[0] is not None:
                adv_h1 = 2.0 * chi * inner_products(_window_block(advections), u, self.weights[1:2])[..., 0] * cfg.dt
            # INCREMENT_COLUMNS order
            values = (2.0 * chi * mart_l2, inj_l2, 2.0 * chi * mart_h1, chi * chi * hs_h1 * cfg.dt, adv_h1, chi)
            for row, value in zip(inc.swapaxes(0, 1), values):
                row[...] = value
            # the steps' trapezoidal dissipation integrals and injection, then
            # their sums from column 0, step by step
            squares = scalar_squares(rows[:, 3:5])
            sums = rows[:, _SUM_ROWS]
            sums[:, :2, 1:] = 0.5 * cfg.dt * (squares[..., :-1] + squares[..., 1:])
            sums[:, 2, 1:] = inj_l2
            np.add.accumulate(sums, axis=2, out=sums)
        return finite


def initial_state(cfg: RunConfig) -> TrajectoryState:
    return TrajectoryState(t=0.0, u=leray_project(cfg.initial.build(cfg.ctx)), step_index=0)


def step(state: TrajectoryState, cfg: RunConfig) -> TrajectoryState:
    """Advance one grid step, as a one-step run of _run_lockstep from state
    without snapshots, at this process's FFT thread count; raises on a
    halted state or one of another truncation, halts (with an overflow
    record, distinct from monitor hits) when the update is not finite."""
    if state.halted is not None:
        raise ValueError("cannot step a halted trajectory")
    if state.u.n != cfg.ctx.n:
        raise ValueError(f"truncation mismatch: state n={state.u.n}, config n={cfg.ctx.n}")
    (record,) = _run_lockstep(replace(cfg, snapshot_every=None), start=state, stop=state.step_index + 1)
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


# receives each snapshot as the runner reaches it: member, grid step, t, state
SnapshotSink = Callable[[int, int, float, SpectralField], object]


def run_trajectory(cfg: RunConfig, snapshot: SnapshotSink | None = None) -> TrajectoryRecord:
    """Integrate one path over [0, steps * dt] in this process, recording
    norms, ledger increments and snapshots at the configured cadence: into
    the record, or handed to snapshot as each is reached."""
    return _in_process(lambda: _run_lockstep(cfg, snapshot=snapshot))[0]


# Bytes of the per-step states, noise terms and advections one ledger window
# of _run_lockstep may hold (each also once more as a window block).  A
# member step carries 48 bytes per mode and array: a 32-member chunk of the
# n = 1 OU ensemble runs 6-step windows, while an n = 16 member alone is
# 0.8 MiB a state, so its windows hold one step.
_WINDOW_BYTES = 1 << 18


def _run_lockstep(
    cfg: RunConfig,
    size: int = 1,
    start: TrajectoryState | None = None,
    stop: int | None = None,
    snapshot: SnapshotSink | None = None,
) -> list[TrajectoryRecord]:
    """Integrate the trajectories cfg.trajectory_id, ...,
    cfg.trajectory_id + size - 1 of cfg's ensemble in lockstep from the start
    point `start` (the state every member starts from: initial_state by
    default) to grid step `stop` (cfg.steps by default).  The blocks count
    from the start's step index, the cumulative integrals from 0.  Snapshots
    (the start, before the first step; the multiples of the cadence, from
    step 3 at cadence 2: 3, 4, 6, ...; the stop) go to `snapshot` once their
    window is known finite, or by default into the records.

    The steps run in windows: one _StepCore.advance per grid step, then one
    _StepCore.ledger per window.  A window holds as many steps as
    _WINDOW_BYTES allows for the chunk's states, noise terms and advections,
    and one step under a cutoff, whose chi reads each step's H^1 norm.  A
    member whose step is not finite leaves the live set at the end of the
    window; its record ends at its last finite state, as in a run of its
    own, and the others carry on.  Every state a window makes is a fresh
    array that no later step writes, so records, snapshots and final fields
    may view them."""
    cfgs = [replace(cfg, trajectory_id=cfg.trajectory_id + i) for i in range(size)]
    core = _StepCore(cfg)
    start = initial_state(cfg) if start is None else start  # the initial data does not depend on the id
    first, stop = start.step_index, cfg.steps if stop is None else stop
    n, steps = cfg.ctx.n, stop - first
    u = np.repeat(start.u.coeffs[None], size, axis=0)
    streams = [WienerStream(c.seed, c.trajectory_id, c.noise.dim) for c in cfgs]
    step_bytes = u.nbytes * (3 if cfg.nonlinear else 2)
    window = 1 if cfg.cutoff_radius is not None else max(1, _WINDOW_BYTES // step_bytes)

    # row k of u, series, increments and streams is member live[k]; column j
    # of the blocks is grid step first + j
    live = list(range(size))
    series = np.zeros((size, len(SERIES_COLUMNS), steps + 1))
    increments = np.zeros((size, len(INCREMENT_COLUMNS), steps))
    t = np.arange(first, stop + 1) * cfg.dt
    series[:, 0] = t
    times = t.tolist()  # halt and snapshot times, as Python floats
    with np.errstate(over="ignore", invalid="ignore"):  # norms that overflow halt the first step
        series[:, _NORM_ROWS, 0] = core.norms(start.u.coeffs)

    cadence = None if cfg.snapshot_every is None else grid_steps(cfg.snapshot_every, cfg.dt)
    snapshots = [[] for _ in range(size)]
    snapshot = snapshot or (lambda member, m, t, field: snapshots[member].append((t, field)))
    if cadence is not None:
        for member in range(size):
            snapshot(member, first, times[0], start.u)
    records: list[TrajectoryRecord | None] = [None] * size

    def finish(row: int, last: int, final: np.ndarray, overflow: StoppingRecord | None) -> None:
        # Records and final fields are views of the blocks, whose other rows
        # belong to the other members; a halting member copies its rows
        # out, as the blocks are about to be compacted.
        member = live[row]
        rows, incs = series[row, :, : last + 1], increments[row, :, :last]
        if overflow is not None:
            rows, incs, final = rows.copy(), incs.copy(), final.copy()
        records[member] = TrajectoryRecord(
            cfgs[member], rows, incs, overflow, tuple(snapshots[member]), SpectralField(n, final)
        )

    j = 0  # the window's first column
    while j < steps and live:
        width = min(window, steps - j)
        chi = core.cutoff(series[:, 2, j])  # from norm_h1; a window under a cutoff is one step
        states, noise_terms, advections = [u], [], []
        for i in range(width):
            new, gw, bconv = core.advance(states[-1], first + j + i, streams, chi)
            states.append(new)
            noise_terms.append(gw)
            advections.append(bconv)
        del new, gw, bconv  # the lists hold them; the next window's first advance must not
        finite = core.ledger(
            states, noise_terms, advections, chi, series[:, :, j : j + width + 1], increments[:, :, j : j + width]
        )
        complete = finite.all()
        # the steps of the window each member made before its first non-finite one
        made = [width] * len(live) if complete else np.where(finite.all(axis=1), width, finite.argmin(axis=1)).tolist()
        if cadence is not None:
            for i in range(width):
                m = first + j + i + 1
                if m % cadence == 0 or m == stop:
                    for row, member in enumerate(live):
                        if made[row] > i:
                            snapshot(member, m, times[j + i + 1], SpectralField(n, states[i + 1][row]))
        if not complete:
            for row, count in enumerate(made):
                if count < width:
                    last = j + count
                    finish(row, last, states[count][row], StoppingRecord("overflow", math.inf, times[last + 1]))
            keep = [row for row, count in enumerate(made) if count == width]
            live = [live[row] for row in keep]
            streams = [streams[row] for row in keep]
            states[-1], series, increments = states[-1][keep], series[keep], increments[keep]
        u = states[-1]
        j += width
    for row in range(len(live)):
        finish(row, steps, u[row], None)
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
        records = _run_lockstep(self.cfg, self.size)
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
    if workers < 1:
        raise ValueError("ensemble workers must be >= 1")
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
