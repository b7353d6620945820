"""Boundary values of every config key and flag, through cli.main in-process.

Each case sets one key (or flag) of a tiny config (n = 2, five steps) to one
of 0, -1, nan, inf, 1e308, 0.5 and the empty string.  It must give exit 2
with the key named on stderr, exit 0 with finite outputs, or exit 3 (a
blow-up); never exit 1 (a traceback) or a RuntimeWarning, which pytest's
filterwarnings setting turns into an error.

Values that would allocate a large lattice or step count (n = 1000,
dt = 1e-12, T = 1e6) are left out: they are valid configs, too big for a
test.  No value in the table starts a worker pool: every valid `workers`
here is 1.
"""

import math
import re

import pytest

from leray_alpha.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, main

VALUES = ("0", "-1", "nan", "inf", "1e308", "0.5", "")

MODEL = {"nu": "0.5", "alpha": "1.0", "theta1": "1.0", "theta2": "1.0", "n": "2", "nonlinear": "true"}
TIME = {"dt": "0.01", "T": "0.05", "snapshot_every": "0.02"}

# one config per noise family, each with the keys that family takes
BASES = {
    "decay": {
        "model": MODEL,
        "time": TIME,
        "noise": {"family": "additive", "seed": "3", "sigma": "0.2", "gamma": "1.0", "driver_dim": "3"},
        "initial": {"kind": "random", "seed": "1", "slope": "2.0", "amplitude": "1.0"},
        "monitors": {"tau_R": "5.0", "rho_M": "5.0", "gamma_K": "5.0"},
        "cutoff": {"R": "10.0"},
        "ensemble": {"size": "2", "workers": "1"},
        "output": {"directory": "out"},
    },
    "modes": {
        "model": MODEL,
        "time": TIME,
        "noise": {"family": "diagonal_spectral", "seed": "3", "modes": "1,0,0:0.3; 0,1,1:0.2"},
        "initial": {"kind": "single_mode", "mode": "1,1,0", "amplitude": "1.0"},
        "output": {"directory": "out"},
    },
    "linear": {
        "model": MODEL,
        "time": TIME,
        "noise": {"family": "linear_multiplicative", "sigma": "0.1"},
        "initial": {"kind": "random", "seed": "1", "amplitude": "1.0"},
        "output": {"directory": "out"},
    },
}

# (base, section, key): every key once, and the keys only the other families take
RUN_KEYS = [("decay", section, key) for section, keys in BASES["decay"].items() for key in keys] + [
    ("modes", "noise", "modes"),
    ("modes", "initial", "mode"),
    ("linear", "noise", "sigma"),
]
NOISE_KEYS = [case for case in RUN_KEYS if case[1] == "noise"]
ENSEMBLE_KEYS = [case for case in RUN_KEYS if case[1] == "ensemble"]

# cases whose exit code is fixed: (command, section, key, value) -> exit
EXPECTED_EXIT = {("run", "model", "theta2", "1e308"): EXIT_CONFIG}  # its norm weights overflow
# audit-noise starts no pool and has no --workers flag: argparse rejects it
EXPECTED_EXIT.update({("audit-noise", None, "--workers", value): EXIT_CONFIG for value in VALUES})

COMMAND_KEYS = {"run": RUN_KEYS, "ensemble": ENSEMBLE_KEYS, "audit-noise": NOISE_KEYS}
# (command, (base, section, key)); a flag's section is None
CASES = [(command, case) for command, keys in COMMAND_KEYS.items() for case in keys] + [
    (command, ("decay", None, flag)) for command in COMMAND_KEYS for flag in ("--seed", "--workers")
]


def render(base: dict, command: str = "run") -> str:
    """The config text of base for command: ensemble rejects a snapshot
    cadence, so its text leaves out [time] snapshot_every."""
    return "".join(
        f"[{section}]\n"
        + "".join(
            f"{key} = {value}\n"
            for key, value in keys.items()
            if not (command == "ensemble" and (section, key) == ("time", "snapshot_every"))
        )
        + "\n"
        for section, keys in base.items()
    )


def outputs_are_finite(command: str, root) -> bool:
    if command == "audit-noise":
        (path,) = root.rglob("noise_audit.txt")
        return re.search(r"\b(inf|nan)\b", path.read_text()) is None
    paths = list(root.rglob("series.csv" if command == "run" else "*.csv"))
    assert paths
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            if path.name == "summary.csv":
                cells = cells[1:]  # the statistic's name
            if not all(math.isfinite(float(cell)) for cell in cells):
                return False
    return True


@pytest.mark.parametrize("value", VALUES, ids=lambda v: repr(v))
@pytest.mark.parametrize(
    "command, case", CASES, ids=[f"{cmd}-{base}-{section or 'flag'}.{key}" for cmd, (base, section, key) in CASES]
)
def test_boundary_value(command, case, value, tmp_path, monkeypatch, capsys):
    base_name, section, key = case
    base = {name: dict(keys) for name, keys in BASES[base_name].items()}
    argv = [command, "--config", "cfg.ini"]
    if section is None:
        argv.append(f"{key}={value}")
    else:
        base[section][key] = value
    if command == "audit-noise":
        argv.append("--samples=2")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(render(base, command))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP)
    assert code == EXPECTED_EXIT.get((command, section, key, value), code)
    if code == EXIT_CONFIG:
        assert key.lstrip("-") in err
    elif code == EXIT_OK:
        assert outputs_are_finite(command, tmp_path)


@pytest.mark.parametrize("command", list(COMMAND_KEYS))
def test_output_path_that_is_a_file(command, tmp_path, monkeypatch, capsys):
    # --output naming an existing regular file (the config itself): a config
    # error that names the path, before anything runs, not a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(render(BASES["decay"], command))
    argv = [command, "--config", "cfg.ini", "--output", "cfg.ini"]
    if command == "audit-noise":
        argv.append("--samples=2")
    assert main(argv) == EXIT_CONFIG
    assert "cannot create output directory cfg.ini" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini"]


def test_step_count_no_array_can_hold(tmp_path, monkeypatch, capsys):
    # 10^20 steps of dt = 1 at n = 1: rejected by the owner of T before any
    # array is shaped, not a numpy traceback
    base = {name: dict(keys) for name, keys in BASES["linear"].items()}
    base["model"]["n"] = "1"
    base["time"] = {"dt": "1.0", "T": "1e20"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(render(base))
    assert main(["run", "--config", "cfg.ini"]) == EXIT_CONFIG
    assert "[time] horizon T = 1e+20 is 100000000000000000000 steps" in capsys.readouterr().err


def test_ensemble_rejects_a_snapshot_cadence(tmp_path, monkeypatch, capsys):
    # ensemble writes no snapshots, so an explicit [time] snapshot_every is a
    # config error that names the key, before any output is written; run
    # takes the same config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(render(BASES["decay"]))
    assert main(["ensemble", "--config", "cfg.ini", "--output", "ens"]) == EXIT_CONFIG
    assert "[time] snapshot_every" in capsys.readouterr().err
    assert not (tmp_path / "ens").exists()
    assert main(["run", "--config", "cfg.ini", "--output", "run"]) == EXIT_OK
    assert sorted(path.name for path in (tmp_path / "run").glob("*.snap"))
