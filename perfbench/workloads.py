"""The benchmark's workloads: the config each one feeds the CLI, and the
checks its outputs must pass.

ou-n1-ensemble    `ensemble` at n=1, linear dynamics, additive noise on one
                  mode (acceptance criterion 6).  No FFT or advection runs;
                  a step is Python overhead plus the noise layer, and the
                  parent writes one CSV per trajectory.
ito-n16-ensemble  `ensemble` at n=16 with linear-multiplicative noise
                  (criterion 7).  A step is dominated by the dealiased
                  advection and its FFTs; the noise is one scalar driver.
cli-run-n24       `run` of one trajectory at n=24 (product grid 75^3) with
                  diagonal-spectral noise, a cutoff, all three monitors and
                  snapshots.  One process, FFT threads instead of a pool, a
                  working set far above the L2 cache, and the only snapshot
                  writer.

`tiny=True` shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import math
import random
import statistics
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

# criterion-6 parameters; the stationary check needs them
OU_NU, OU_SIGMA, OU_DT = 1.0, 0.2, 0.02

# The OU check averages ||u||^2 over t in [5, 10] of each trajectory (the
# zero start has relaxed to within e^-10) and allows 5 jackknife SE.  For the
# exact scheme at 64 trajectories, simulated over 200k ensembles, the
# criterion-6 form (final state, 3 SE) fails 1.8% of correct runs and the
# windowed 3 SE form 0.9%, too often for a check made on every run; the
# windowed 5 SE form fails 0.024% and still catches a factor-2 variance error.
OU_WINDOW_START, OU_SE_MULTIPLE = 5.0, 5.0

# Mean L2-ledger |residual| / dt of the n=16 workload.  Seeds 0-5 give
# 0.013-0.026 (scheme error, O(dt)); dropping a ledger term such as the
# dissipation 2 nu ||u||_theta2^2 moves it to O(1).
ITO_LEDGER_BOUND = 0.1


def _ou(seed: int, tiny: bool = False) -> str:
    return f"""\
[model]
nu = {OU_NU!r}
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 1
nonlinear = false

[time]
dt = {OU_DT!r}
T = 10.0

[noise]
family = additive
modes = 0,0,1:{OU_SIGMA!r}
seed = {seed}

[initial]
kind = single_mode
mode = 0,0,1
amplitude = 0.0

[ensemble]
size = {16 if tiny else 64}
workers = 2
"""


def _ito(seed: int, tiny: bool = False) -> str:
    return f"""\
[model]
nu = 0.5
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = {4 if tiny else 16}

[time]
dt = 0.02
T = {0.1 if tiny else 0.5}

[noise]
family = linear_multiplicative
sigma = 0.1
seed = {seed}

[initial]
kind = random
seed = {seed}
slope = 2.5
amplitude = 0.8

[ensemble]
size = 4
workers = 2
"""


def _run(seed: int, tiny: bool = False) -> str:
    return f"""\
[model]
nu = 0.5
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = {4 if tiny else 24}

[time]
dt = 0.01
T = {0.04 if tiny else 0.2}
snapshot_every = {0.02 if tiny else 0.05}

[noise]
family = diagonal_spectral
sigma = 0.5
gamma = 1.0
driver_dim = {40 if tiny else 300}
seed = {seed}

[initial]
kind = random
seed = {seed}
slope = 2.5
amplitude = 1.0

[monitors]
tau_R = 1.5
rho_M = 3.0
gamma_K = 0.5

[cutoff]
R = 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    sampled: int  # trajectories re-run serially for the byte-identity check
    config: Callable[..., str]  # (seed, tiny) -> INI text


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ou-n1-ensemble", "ensemble", 4, _ou),
        Workload("ito-n16-ensemble", "ensemble", 2, _ito),
        Workload("cli-run-n24", "run", 1, _run),
    )
}


class Checks:
    """Correctness operations of one run: every trajectory and every check
    is attempted once and either holds or fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def _data_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _same_files(out: Path, ref: Path, checks: Checks) -> None:
    names = sorted(p.name for p in ref.iterdir())
    checks.check("same file set as the reference command", names == sorted(p.name for p in out.iterdir()))
    for name in names:
        target = out / name
        checks.check(f"{name} byte-identical to the reference command",
                     target.is_file() and target.read_bytes() == (ref / name).read_bytes())


def verify_ensemble(parsed, out: Path, rc: int, ref: Path | None, checks: Checks) -> int:
    """Check one `ensemble` command's outputs; return the trajectory-steps
    it completed."""
    from leray_alpha.output import INCOMPLETE_MARKER

    steps = parsed.run.steps
    checks.check("exit code 0", rc == 0)
    checks.check("no INCOMPLETE marker", not (out / INCOMPLETE_MARKER).exists())
    done = 0
    for tid in range(parsed.ensemble_size):
        path = out / f"traj_{tid:04d}.csv"
        rows = _data_rows(path) if path.is_file() else []
        done += max(0, len(rows) - 1)
        checks.check(f"trajectory {tid} completes all {steps} steps", len(rows) == steps + 1)
    summary = out / "summary.csv"
    count_rows = [row for row in _data_rows(summary) if row[0] == "count"] if summary.is_file() else []
    checks.check("summary.csv counts every trajectory",
                 len(count_rows) == 1 and count_rows[0][1] == str(parsed.ensemble_size))
    if ref is not None:
        _same_files(out, ref, checks)
    return done


def verify_run(parsed, out: Path, rc: int, ref: Path | None, checks: Checks) -> int:
    """Check one `run` command's outputs; return the steps it completed."""
    from leray_alpha.output import INCOMPLETE_MARKER
    from leray_alpha.snapshots import SnapshotError, read_snapshot, write_snapshot

    cfg = parsed.run
    checks.check("exit code 0", rc == 0)
    checks.check("no INCOMPLETE marker", not (out / INCOMPLETE_MARKER).exists())
    series = out / "series.csv"
    rows = _data_rows(series) if series.is_file() else []
    checks.check("trajectory completes: series.csv has steps+1 rows", len(rows) == cfg.steps + 1)
    cadence = max(1, int(round(cfg.snapshot_every / cfg.dt)))
    expected = sorted(set(range(0, cfg.steps + 1, cadence)) | {cfg.steps})
    snaps = sorted(out.glob("snapshot_*.snap"))
    checks.check("one snapshot per cadence point",
                 [p.name for p in snaps] == [f"snapshot_{i:08d}.snap" for i in expected])
    for path in snaps:
        blob = path.read_bytes()
        try:
            field, meta = read_snapshot(path)
        except SnapshotError:
            checks.check(f"{path.name} reads back", False)
            continue
        again = out / (path.name + ".again")
        write_snapshot(field, meta, again)
        checks.check(f"{path.name} reads back bit-exactly", again.read_bytes() == blob and meta.n == cfg.ctx.n)
        again.unlink()
    if ref is not None:
        _same_files(out, ref, checks)
    return max(0, len(rows) - 1)


def sample_ids(size: int, count: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(size), min(count, size)))


def verify_reference(workload: Workload, parsed, seed: int, out: Path, checks: Checks) -> None:
    """Checks made once per run on the untimed reference command: serial
    re-runs must reproduce the pooled files byte for byte, plus the
    workload's own statistical or ledger check."""
    from leray_alpha.diagnostics import energy_ledger
    from leray_alpha.integrator import run_trajectory
    from leray_alpha.output import write_series_csv
    from leray_alpha.snapshots import read_snapshot

    serial_csv = out.parent / (out.name + "-serial.csv")
    if workload.command == "run":
        record = run_trajectory(parsed.run)
        write_series_csv(record, serial_csv)
        checks.check("serial run_trajectory reproduces series.csv",
                     serial_csv.read_bytes() == (out / "series.csv").read_bytes())
        for t, field in record.snapshots:
            path = out / f"snapshot_{int(round(t / parsed.run.dt)):08d}.snap"
            stored = read_snapshot(path)[0].coeffs if path.is_file() else None
            checks.check(f"{path.name} equals the serial state bit for bit",
                         stored is not None and stored.tobytes() == field.coeffs.tobytes())
        serial_csv.unlink()
        return

    cfg = replace(parsed.run, snapshot_every=None)
    records = []
    for tid in sample_ids(parsed.ensemble_size, workload.sampled, seed):
        record = run_trajectory(replace(cfg, trajectory_id=tid))
        records.append(record)
        write_series_csv(record, serial_csv)
        pooled = out / f"traj_{tid:04d}.csv"
        checks.check(f"serial trajectory {tid} byte-identical to pooled traj_{tid:04d}.csv",
                     pooled.is_file() and serial_csv.read_bytes() == pooled.read_bytes())
    serial_csv.unlink()

    if workload.name == "ou-n1-ensemble":
        start = round(OU_WINDOW_START / OU_DT)
        energy = []
        for tid in range(parsed.ensemble_size):
            path = out / f"traj_{tid:04d}.csv"
            rows = _data_rows(path) if path.is_file() else []
            if len(rows) != parsed.run.steps + 1:
                checks.check("every trajectory CSV complete", False)
                return
            energy.append(statistics.fmean(float(row[1]) ** 2 for row in rows[start:]))
        mean = statistics.fmean(energy)
        se = statistics.stdev(energy) / math.sqrt(len(energy))  # the jackknife SE of a mean
        truth = OU_SIGMA**2 / (2.0 * OU_NU)
        bias = truth * (OU_NU * OU_DT / 2.0) / (1.0 + OU_NU * OU_DT / 2.0)
        checks.check(f"OU stationary variance within {OU_SE_MULTIPLE:g} SE + O(dt) bias",
                     abs(mean - truth) <= OU_SE_MULTIPLE * se + bias)
    elif workload.name == "ito-n16-ensemble":
        residual = [abs(r) for record in records for r in energy_ledger(record, "l2").residual]
        rate = statistics.fmean(residual) / parsed.run.dt
        checks.check(f"mean L2-ledger |residual|/dt below {ITO_LEDGER_BOUND}", rate < ITO_LEDGER_BOUND)
