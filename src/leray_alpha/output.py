"""CSV persistence for trajectory records, ensemble summaries and regime
tables.  Floats are written with repr (shortest round-trip form), so files
are byte-identical for identical runs regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .diagnostics import EnsembleStats, NormSeries, RegimeVerdict
from .integrator import SERIES_COLUMNS, TrajectoryRecord
from .snapshots import write_atomically

INCOMPLETE_MARKER = "INCOMPLETE"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | Path, text: str) -> None:
    """Write text to path through a temporary file, so a file at path is
    always complete."""
    write_atomically(path, lambda partial: partial.write_text(text))


# the series CSV's header names of the SERIES_COLUMNS rows it names otherwise
_CSV_NAMES = {
    "norm_l2": "norm_L2",
    "norm_h1": "norm_H1",
    "norm_th2": "norm_Htheta2",
    "norm_th2p1": "norm_Htheta2p1",
    "int_diss_th2": "int_diss_theta2",
    "int_diss_th2p1": "int_diss_theta2p1",
}


def write_series_csv(record: TrajectoryRecord, path: str | Path) -> None:
    """Write the record's series to path; a file at path is always complete."""
    header = [_CSV_NAMES.get(name, name) for name in SERIES_COLUMNS]
    lines = [",".join([*header, *(f"flag_{mon.kind}" for mon in record.cfg.monitors)])]
    # repr of the Python floats that tolist() gives is _fmt of each value
    lines += [",".join(map(repr, row)) for row in record.series.T.tolist()]
    hits = [h.hit_time if h is not None else None for h in record.hits]
    if hits:
        for i, t in enumerate(record.t.tolist(), start=1):
            lines[i] += "".join(",1" if hit is not None and t >= hit else ",0" for hit in hits)
    _write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class TrajectoryCsvSink:
    """run_ensemble sink of the `ensemble` command: in the process that ran
    a chunk, writes each member's traj_NNNN.csv into directory and returns
    only the NormSeries that ensemble_moments reads."""

    directory: Path

    def __call__(self, records: list[TrajectoryRecord]) -> list[NormSeries]:
        for record in records:
            write_series_csv(record, self.directory / f"traj_{record.trajectory_id:04d}.csv")
        # a copy, so that only the norm rows outlive the chunk's blocks
        return [NormSeries(record.cfg, record.norms.copy(), record.complete) for record in records]


def write_summary_csv(stats: EnsembleStats, path: str | Path) -> None:
    lines = ["statistic,value,stderr"]
    rows = [
        (f"E_sup_norm_L2_p{stats.p:g}", stats.sup_l2),
        (f"E_sup_norm_H1_p{stats.p:g}", stats.sup_h1),
        (f"E_int_dissipation_L2_p{stats.p:g}", stats.diss_l2),
        (f"E_int_dissipation_H1_p{stats.p:g}", stats.diss_h1),
        ("E_final_norm_L2_sq", stats.final_l2_sq),
    ]
    for name, (value, stderr) in rows:
        lines.append(f"{name},{_fmt(value)},{_fmt(stderr)}")
    lines.append(f"count,{stats.count},0")
    _write_text(path, "\n".join(lines) + "\n")


def write_regime_csv(rows: list[RegimeVerdict], path: str | Path) -> None:
    lines = ["theta1,theta2,verdict"]
    for row in rows:
        lines.append(f"{_fmt(row.theta1)},{_fmt(row.theta2)},{row.verdict}")
    _write_text(path, "\n".join(lines) + "\n")


def write_incomplete_marker(directory: str | Path, reason: str) -> None:
    _write_text(Path(directory, INCOMPLETE_MARKER), reason + "\n")
