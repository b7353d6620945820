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

COMMAND_KEYS = {"run": RUN_KEYS, "ensemble": ENSEMBLE_KEYS, "audit-noise": NOISE_KEYS}
# (command, (base, section, key)); a flag's section is None
CASES = [(command, case) for command, keys in COMMAND_KEYS.items() for case in keys] + [
    (command, ("decay", None, flag)) for command in COMMAND_KEYS for flag in ("--seed", "--workers")
]


def render(base: dict) -> str:
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
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
    (tmp_path / "cfg.ini").write_text(render(base))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value with exit 2
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP)
    if code == EXIT_CONFIG:
        assert key.lstrip("-") in err
    elif code == EXIT_OK:
        assert outputs_are_finite(command, tmp_path)
