"""Output bytes against committed fixtures.

Each case in tests/data/golden is a config `<case>.ini` and the directory
`<case>/` of the files its command wrote: `series.csv` and snapshots of a
`run`, `traj_NNNN.csv` and `summary.csv` of a 3-member `ensemble`, or
`noise_audit.txt` of `audit-noise`; the last two have one case per noise
family.  The command is the case name up to its last `-`.  A change that
alters any output byte fails here.  When a format change is intended,
regenerate a case with

    python -m leray_alpha <run|ensemble|audit-noise> \
        --config tests/data/golden/<case>.ini --output tests/data/golden/<case>

and say in the change which bytes moved and why.
"""

from pathlib import Path

import pytest

from leray_alpha.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.ini"))


def test_every_noise_family_has_a_case():
    assert CASES == [
        "audit-noise-additive",
        "audit-noise-diagonal_spectral",
        "audit-noise-linear_multiplicative",
        "ensemble-additive",
        "ensemble-diagonal_spectral",
        "ensemble-linear_multiplicative",
        "run",
    ]


# run and ensemble at 1 and 2 workers; audit-noise starts no pool and takes
# no --workers, so it runs once
RUNS = [
    pytest.param(case, workers, id=f"{case}-{workers}" if workers else case)
    for case in CASES
    for workers in ([None] if case.startswith("audit-noise") else ["1", "2"])
]


@pytest.mark.parametrize("case, workers", RUNS)
def test_outputs_equal_fixtures(tmp_path, case, workers):
    command = case.rsplit("-", 1)[0]
    out = tmp_path / "out"
    args = [command, "--config", str(GOLDEN / f"{case}.ini"), "--output", str(out)]
    if workers:
        args += ["--workers", workers]
    assert main(args) == EXIT_OK
    expected = sorted(path.name for path in (GOLDEN / case).iterdir())
    assert sorted(path.name for path in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
