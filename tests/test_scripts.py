"""Smoke runs of the study scripts in scripts/, which use the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "linear_decay_study.py",
            ["--theta2", "1.0", "--dts", "1e-2", "5e-3", "--horizon", "0.1"],
            "theta2,dt,rel_error",
        ),
        ("ou_variance_study.py", ["--size", "4", "--relaxations", "1", "--workers", "1"], "ensemble E||u(T)||^2 = "),
        ("regime_map.py", ["--points", "6"], "# rows: theta2 descending; columns: theta1 ascending"),
    ],
)
def test_script_runs(script, args, header):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].startswith(header)
