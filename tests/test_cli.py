"""CLI dispatch: outputs, determinism, exit codes."""

import math
import os
import tracemalloc
import warnings
from pathlib import Path

import pytest

from leray_alpha import integrator, selfcheck
from leray_alpha.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main
from leray_alpha.diagnostics import classify_regime
from leray_alpha.fields import lattice
from leray_alpha.snapshots import read_snapshot

DECAY_CFG = """
[model]
nu = 0.1
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 2
nonlinear = false

[time]
dt = 0.001
T = 1.0

[noise]
family = linear_multiplicative
sigma = 0.0

[initial]
kind = single_mode
mode = 1,1,0
amplitude = 1.0
"""

ENSEMBLE_CFG = """
[model]
nu = 0.5
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 3

[time]
dt = 0.02
T = 0.2

[noise]
family = linear_multiplicative
sigma = 0.3
seed = 77

[initial]
kind = random
seed = 1
amplitude = 1.0

[monitors]
tau_R = 100.0

[ensemble]
size = 4
workers = 1
"""


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_run_writes_decaying_series_and_snapshots(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(DECAY_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "series.csv")
    assert header[:3] == ["t", "norm_L2", "norm_H1"]
    lam = 0.1 * 2.0
    for row in rows[:: len(rows) // 7]:
        t, norm = float(row[0]), float(row[1])
        assert abs(norm - math.exp(-lam * t)) <= 1e-3 * math.exp(-lam * t)
    snaps = sorted(out.glob("snapshot_*.snap"))
    assert len(snaps) == 11  # t = 0, T/10, ..., T
    field, meta = read_snapshot(snaps[0])
    assert meta.n == 2 and meta.t == 0.0


def test_ensemble_size_one_zero_stderr(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ENSEMBLE_CFG.replace("size = 4", "size = 1"))
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "summary.csv")
    assert header == ["statistic", "value", "stderr"]
    stderr_by_name = {row[0]: float(row[2]) for row in rows}
    assert stderr_by_name["E_sup_norm_L2_p2"] == 0.0
    assert (out / "traj_0000.csv").exists()


def test_ensemble_deterministic_across_worker_counts(tmp_path):
    outputs = {}
    for workers in (1, 4):
        cfg = tmp_path / f"run_{workers}.ini"
        cfg.write_text(ENSEMBLE_CFG.replace("workers = 1", f"workers = {workers}"))
        out = tmp_path / f"out_{workers}"
        assert main(["ensemble", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert outputs[1].keys() == outputs[4].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[4][name], f"{name} differs between worker counts"


def test_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ENSEMBLE_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["ensemble", "--config", str(cfg), "--output", str(out_a)]) == EXIT_OK
    assert main(["ensemble", "--config", str(cfg), "--output", str(out_b), "--seed", "123"]) == EXIT_OK
    assert (out_a / "traj_0000.csv").read_bytes() != (out_b / "traj_0000.csv").read_bytes()


def test_classify_grid_matches_pointwise_oracle(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["classify", "--theta1", "0,0.25,1", "--theta2", "0.5,1,1.25", "--output", str(out)]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out / "regime_map.csv")
    assert header == ["theta1", "theta2", "verdict"]
    assert len(rows) == 9
    for t1_raw, t2_raw, verdict in rows:
        assert classify_regime(float(t1_raw), float(t2_raw)).verdict == verdict


def test_classify_range_syntax(tmp_path):
    out = tmp_path / "out"
    assert main(["classify", "--theta1", "0:2:5", "--theta2", "0.4:2:5", "--output", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "regime_map.csv")
    assert len(rows) == 25


AXIS_VALUES = ["nan", "inf", "-inf", "1e400", "0.5,nan", "", " , ", "nan:1:3", "0:inf:3", "-1e308:1e308:3"]
AXIS_VALUES += ["0:1", "0:1:0"]  # a range of two parts, a range of no points
# (value, axis, text the error must hold): malformed or non-finite values of
# either axis name the flag; a theta1 outside classify_regime's domain gets
# its owner's message after the flag
CLASSIFY_REJECTIONS = [(value, axis, f"--{axis}") for value in AXIS_VALUES for axis in ("theta1", "theta2")] + [
    ("-1", "theta1", "config error: --theta1: theta1 must be >= 0")
]


@pytest.mark.parametrize(
    "value, axis, named", CLASSIFY_REJECTIONS, ids=[f"{value}-{axis}" for value, axis, _ in CLASSIFY_REJECTIONS]
)
def test_classify_axis_rejected_before_anything_runs(tmp_path, capsys, value, axis, named):
    axes = {"theta1": "0.5", "theta2": "1.0", axis: value}
    out = tmp_path / "out"
    argv = ["classify", f"--theta1={axes['theta1']}", f"--theta2={axes['theta2']}", "--output", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(DECAY_CFG.replace("theta2 = 1.0", "theta2 = 0"))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "ensemble"])
@pytest.mark.parametrize("initial", ["mode = 5,1,1", "mode = 0,0,0"])
def test_initial_mode_error_exit_code(tmp_path, capsys, command, initial):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(DECAY_CFG.replace("mode = 1,1,0", initial))
    assert main([command, "--config", str(cfg), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("driver_dim", ["0", "-1"])
def test_empty_or_negative_driver_set_exit_code(tmp_path, capsys, driver_dim):
    cfg = tmp_path / "bad.ini"
    decay_law = f"family = diagonal_spectral\nsigma = 0.5\ngamma = 1.0\ndriver_dim = {driver_dim}"
    cfg.write_text(DECAY_CFG.replace("family = linear_multiplicative\nsigma = 0.0", decay_law))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"[noise] driver_dim must be >= 1, got {driver_dim}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_initial_seed_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(ENSEMBLE_CFG.replace("kind = random\nseed = 1", "kind = random\nseed = -1"))
    assert main(["ensemble", "--config", str(cfg), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "[initial] seed must be >= 0" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.ini")]) == EXIT_CONFIG


def test_blowup_exit_code_and_marker(tmp_path):
    text = DECAY_CFG.replace("nu = 0.1", "nu = 1e-9")
    text = text.replace("nonlinear = false", "nonlinear = true")
    text = text.replace("n = 2", "n = 6")
    text = text.replace("dt = 0.001", "dt = 50.0")
    text = text.replace("T = 1.0", "T = 5000.0")
    text = text.replace("kind = single_mode\nmode = 1,1,0\namplitude = 1.0",
                        "kind = random\nseed = 6\namplitude = 100.0")
    cfg = tmp_path / "blow.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == EXIT_BLOWUP
    assert (out / "INCOMPLETE").exists()
    assert (out / "series.csv").exists()  # partial series flushed


BLOWUP_ENSEMBLE_CFG = """
[model]
nu = 1e-9
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 3

[time]
dt = 50.0
T = 5000.0

[noise]
family = linear_multiplicative
sigma = 0.0

[initial]
kind = random
seed = 6
amplitude = 100.0

[ensemble]
size = 2
"""


@pytest.mark.parametrize("command, good", [("run", DECAY_CFG), ("ensemble", ENSEMBLE_CFG)], ids=["run", "ensemble"])
def test_successful_rerun_removes_stale_marker(tmp_path, command, good):
    out = tmp_path / "out"
    (tmp_path / "blow.ini").write_text(BLOWUP_ENSEMBLE_CFG)
    (tmp_path / "good.ini").write_text(good)
    assert main([command, "--config", str(tmp_path / "blow.ini"), "--output", str(out)]) == EXIT_BLOWUP
    assert (out / "INCOMPLETE").read_text().startswith("numerical blow-up")
    assert main([command, "--config", str(tmp_path / "good.ini"), "--output", str(out)]) == EXIT_OK
    assert not (out / "INCOMPLETE").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ensemble_parent_receives_only_norm_rows(tmp_path, monkeypatch, workers):
    from leray_alpha import cli
    from leray_alpha.diagnostics import NormSeries

    received = []

    def spy(*args, **kwargs):
        results = run_ensemble(*args, **kwargs)
        received.extend(results)
        return results

    run_ensemble = cli.run_ensemble
    monkeypatch.setattr(cli, "run_ensemble", spy)
    cfg = tmp_path / "ens.ini"
    cfg.write_text(ENSEMBLE_CFG)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--workers", workers, "--output", str(out)]) == EXIT_OK
    assert [type(r) for r in received] == [NormSeries] * 4
    assert not any(hasattr(r, "final_field") or hasattr(r, "mart_l2") for r in received)
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv"] + [f"traj_{i:04d}.csv" for i in range(4)]


def test_audit_noise_writes_report(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ENSEMBLE_CFG)
    out = tmp_path / "out"
    assert main(["audit-noise", "--config", str(cfg), "--samples", "3", "--output", str(out)]) == EXIT_OK
    text = (out / "noise_audit.txt").read_text()
    assert "linear-multiplicative" in text
    assert "bounded ratios" in text


@pytest.mark.parametrize("samples", ["1", "0", "-1"])
def test_audit_noise_sample_count_rejected_before_anything_runs(tmp_path, capsys, samples):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ENSEMBLE_CFG)
    out = tmp_path / "out"
    assert main(["audit-noise", "--config", str(cfg), f"--samples={samples}", "--output", str(out)]) == EXIT_CONFIG
    assert "--samples" in capsys.readouterr().err
    assert not out.exists()


def test_check_invariants_passes(capsys):
    assert main(["check-invariants"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS transform round-trip" in out
    assert "FAIL" not in out
    assert "all invariants hold" in out


@pytest.mark.parametrize(
    "error, detail",
    [(AssertionError("patched to fail"), "patched to fail"), (RuntimeError("boom"), "unexpected RuntimeError: boom")],
    ids=["assertion", "unexpected"],
)
def test_check_invariants_reports_a_failing_check(monkeypatch, capsys, error, detail):
    def failing():
        raise error

    (name, _), *rest = selfcheck.CHECKS
    monkeypatch.setattr(selfcheck, "CHECKS", [(name, failing), *rest])
    assert main(["check-invariants"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert f"FAIL {name}: {detail}" in captured.out.splitlines()
    assert "PASS" in captured.out  # the other checks still ran
    assert "invariant suite FAILED" in captured.err


def test_output_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("LERAY_ALPHA_OUTPUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = main(["classify", "--theta1", "1", "--theta2", "1"])
    assert code == EXIT_OK
    assert (tmp_path / "envout" / "regime_map.csv").exists()


SIX_MEMBER_BLOWUP_CFG = """
[model]
nu = 1e-8
alpha = 1.0
theta1 = 0.0
theta2 = 1.0
n = 3

[time]
dt = 1.0
T = 16.0

[noise]
family = linear_multiplicative
sigma = 0.3
seed = 0

[initial]
kind = random
seed = 6
amplitude = 1.0

[ensemble]
size = 6
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_blowup_summary_covers_complete_members_only(tmp_path, workers):
    from dataclasses import replace

    from leray_alpha.config import parse_config
    from leray_alpha.diagnostics import ensemble_moments
    from leray_alpha.integrator import run_trajectory
    from leray_alpha.output import write_summary_csv

    cfg = tmp_path / "blow.ini"
    cfg.write_text(SIX_MEMBER_BLOWUP_CFG)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the jackknife of huge halted values overflowed
        assert main(["ensemble", "--config", str(cfg), "--workers", workers, "--output", str(out)]) == EXIT_BLOWUP
    # ids 0, 1, 2, 4 and 5 halt; 3 is the one member that completes
    record = run_trajectory(replace(parse_config(SIX_MEMBER_BLOWUP_CFG).run, trajectory_id=3))
    assert record.complete
    write_summary_csv(ensemble_moments([record]), tmp_path / "expected.csv")
    assert (out / "summary.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    _, rows = read_csv(out / "summary.csv")
    assert rows[-1] == ["count", "1", "0"]
    assert (out / "INCOMPLETE").read_text() == (
        "numerical blow-up in trajectories: 0, 1, 2, 4, 5; "
        "summary.csv averages the 1 of 6 trajectories that completed\n"
    )


def test_no_complete_member_writes_no_summary(tmp_path):
    out = tmp_path / "out"
    (tmp_path / "good.ini").write_text(ENSEMBLE_CFG)
    (tmp_path / "blow.ini").write_text(BLOWUP_ENSEMBLE_CFG)
    assert main(["ensemble", "--config", str(tmp_path / "good.ini"), "--output", str(out)]) == EXIT_OK
    assert (out / "summary.csv").exists()
    assert main(["ensemble", "--config", str(tmp_path / "blow.ini"), "--output", str(out)]) == EXIT_BLOWUP
    assert not (out / "summary.csv").exists()  # nor the earlier run's
    assert (out / "INCOMPLETE").read_text() == (
        "numerical blow-up in trajectories: 0, 1; no trajectory completed, so there is no summary.csv\n"
    )


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_smaller_ensemble_deletes_the_larger_ones_trajectories(tmp_path):
    text = (GOLDEN / "ensemble-additive.ini").read_text()
    out = tmp_path / "out"
    out.mkdir()
    (out / "traj_notes.csv").write_text("not a trajectory\n")
    for size in (3, 1):
        cfg = tmp_path / f"size{size}.ini"
        cfg.write_text(text.replace("size = 3", f"size = {size}"))
        assert main(["ensemble", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "traj_0000.csv", "traj_notes.csv"]
    assert (out / "traj_0000.csv").read_bytes() == (GOLDEN / "ensemble-additive" / "traj_0000.csv").read_bytes()


def test_shorter_run_deletes_the_longer_ones_snapshots(tmp_path):
    text = (GOLDEN / "run.ini").read_text()
    out = tmp_path / "out"
    for horizon in ("0.2", "0.08"):
        cfg = tmp_path / f"T{horizon}.ini"
        cfg.write_text(text.replace("T = 0.2", f"T = {horizon}"))
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["series.csv", "snapshot_00000000.snap", "snapshot_00000004.snap"]
    _, rows = read_csv(out / "series.csv")
    assert len(rows) == 5


def test_interrupted_run_keeps_the_snapshots_it_reached(tmp_path, monkeypatch):
    # an earlier, complete run of 4 steps, then the golden run stopped
    # during step 10: the snapshots of steps 0, 4 and 8 are on disk and
    # nothing of the earlier run is left beside them
    text = (GOLDEN / "run.ini").read_text()
    out = tmp_path / "out"
    short = tmp_path / "short.ini"
    short.write_text(text.replace("T = 0.2", "T = 0.08"))
    assert main(["run", "--config", str(short), "--output", str(out)]) == EXIT_OK
    advance = integrator._StepCore.advance

    def interrupted(self, u, step_index, *args):
        if step_index == 9:
            raise KeyboardInterrupt
        return advance(self, u, step_index, *args)

    monkeypatch.setattr(integrator._StepCore, "advance", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(GOLDEN / "run.ini"), "--output", str(out)])
    names = [f"snapshot_{m:08d}.snap" for m in (0, 4, 8)]
    assert sorted(p.name for p in out.iterdir()) == names  # no series.csv, no temporary file
    for name in names:
        assert (out / name).read_bytes() == (GOLDEN / "run" / name).read_bytes()


def test_run_holds_no_snapshot_until_the_end(tmp_path):
    # a warm n = 8 run snapshotted at each of its 40 steps peaks less than 4
    # states above the same run snapshotted at 0 and T only
    text = (GOLDEN / "run.ini").read_text().replace("n = 2", "n = 8").replace("T = 0.2", "T = 0.8")
    peaks = []
    for every in ("0.02", "0.8", "0.02"):  # the first run warms the caches
        cfg = tmp_path / f"every{every}.ini"
        cfg.write_text(text.replace("snapshot_every = 0.08", f"snapshot_every = {every}"))
        tracemalloc.start()
        try:
            assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    state_bytes = 3 * 16 * lattice(8).size
    assert len(list((tmp_path / "out").glob("snapshot_*.snap"))) == 41
    assert peaks[2] - peaks[1] < 4 * state_bytes


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1", "1.5", ""])
def test_moment_order_rejected_before_anything_runs(tmp_path, capsys, value):
    cfg = tmp_path / "ens.ini"
    cfg.write_text(ENSEMBLE_CFG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["ensemble", "--config", str(cfg), f"--moment={value}", "--output", str(out)])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--moment" in capsys.readouterr().err
    assert not out.exists()


def test_spawned_pool_writes_the_bytes_of_a_forked_one(tmp_path, monkeypatch):
    from leray_alpha import integrator

    if (os.cpu_count() or 1) < 2:
        pytest.skip("the pool is capped at one process here, so no pool starts")
    started = []
    pool = integrator.ProcessPoolExecutor

    def recording_pool(**kwargs):
        started.append(kwargs["mp_context"].get_start_method())
        return pool(**kwargs)

    monkeypatch.setattr(integrator, "ProcessPoolExecutor", recording_pool)
    cfg = tmp_path / "ens.ini"
    cfg.write_text(ENSEMBLE_CFG.replace("n = 3", "n = 2"))
    outputs = {}
    for method in ("fork", "spawn"):
        monkeypatch.setattr(integrator, "_START_METHOD", method)
        out = tmp_path / method
        assert main(["ensemble", "--config", str(cfg), "--workers", "2", "--output", str(out)]) == EXIT_OK
        outputs[method] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert started == ["fork", "spawn"]
    assert len(outputs["fork"]) == 5
    assert outputs["spawn"] == outputs["fork"]


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_commands_leave_the_fft_thread_count_alone(tmp_path, monkeypatch, command):
    # run on the golden run.ini, ensemble in this process (--workers 1)
    from leray_alpha import fields

    cfg = tmp_path / "ens.ini"
    cfg.write_text(ENSEMBLE_CFG)
    config = GOLDEN / "run.ini" if command == "run" else cfg
    monkeypatch.setattr(fields, "_FFT_WORKERS", 3)
    argv = [command, "--config", str(config), "--workers", "1", "--output", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert fields.get_fft_workers() == 3


def test_one_chunk_ensemble_runs_the_kernel_at_one_thread_count(tmp_path, monkeypatch):
    # one chunk runs in this process for any --workers, so at the threads of a run
    from leray_alpha import fields

    seen = []
    transform = fields._ProductGrid.transform

    def spy(self, *args):
        seen.append(fields.get_fft_workers())
        return transform(self, *args)

    monkeypatch.setattr(fields._ProductGrid, "transform", spy)
    monkeypatch.setattr(fields, "_FFT_WORKERS", 1)  # as in a fresh process
    cfg = tmp_path / "ens.ini"
    one_chunk = ENSEMBLE_CFG.replace("n = 3", "n = 16").replace("T = 0.2", "T = 0.04").replace("size = 4", "size = 1")
    cfg.write_text(one_chunk)
    threads = {}
    for workers in ("2", "1"):
        seen.clear()
        argv = ["ensemble", "--config", str(cfg), "--workers", workers, "--output", str(tmp_path / workers)]
        assert main(argv) == EXIT_OK
        threads[workers] = set(seen)
    assert threads["2"] == threads["1"] == {fields.default_fft_workers()}
