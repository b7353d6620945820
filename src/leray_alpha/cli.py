"""Command-line front end.

Subcommands: run (one trajectory), ensemble (Monte-Carlo batch), classify
(regime table over a parameter grid), audit-noise (hypothesis envelopes of
the configured noise family) and check-invariants (built-in invariant
suite).  Exit codes: 0 success, 2 configuration error, 3 numerical blow-up,
4 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import selfcheck
from .config import ConfigError, ParsedConfig, parse_config
from .diagnostics import classify_regime, ensemble_moments
from .integrator import run_ensemble, run_trajectory
from .noise import audit_hypotheses
from .output import (
    TrajectoryCsvSink,
    remove_incomplete_marker,
    remove_stale_trajectory_csvs,
    write_incomplete_marker,
    write_regime_csv,
    write_series_csv,
    write_summary_csv,
)
from .snapshots import SnapshotMeta, write_atomically, write_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_INVARIANT = 4

OUTPUT_ENV = "LERAY_ALPHA_OUTPUT"


def _load(args: argparse.Namespace) -> ParsedConfig:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    parsed = parse_config(text, seed_override=args.seed)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        parsed = replace(parsed, workers=args.workers)
    return parsed


def _output_dir(args: argparse.Namespace, parsed: ParsedConfig | None = None) -> Path:
    candidate = args.output
    if candidate is None and parsed is not None:
        candidate = parsed.output_dir
    if candidate is None:
        candidate = os.environ.get(OUTPUT_ENV)
    if candidate is None:
        candidate = "out"
    directory = Path(candidate)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file of that name, or no permission
        raise ConfigError(f"cannot create output directory {directory}: {exc}") from None
    return directory


def _cmd_run(args: argparse.Namespace) -> int:
    parsed = _load(args)
    outdir = _output_dir(args, parsed)
    remove_incomplete_marker(outdir)
    for stale in [outdir / "series.csv", *outdir.glob("snapshot_*.snap")]:  # this run writes its own
        stale.unlink(missing_ok=True)
    ctx = parsed.run.ctx

    def snapshot(member: int, step_index: int, t: float, field) -> None:
        meta = SnapshotMeta(n=ctx.n, nu=ctx.nu, alpha=ctx.alpha, theta1=ctx.theta1, theta2=ctx.theta2, t=t)
        write_snapshot(field, meta, outdir / f"snapshot_{step_index:08d}.snap")

    record = run_trajectory(parsed.run, snapshot=snapshot)
    write_series_csv(record, outdir / "series.csv")
    if not record.complete:
        write_incomplete_marker(outdir, f"numerical blow-up at t={record.overflow.hit_time}")
        print(f"blow-up halt at t={record.overflow.hit_time}; partial series written", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"wrote {outdir / 'series.csv'} ({len(record.t)} rows)")
    return EXIT_OK


def _cmd_ensemble(args: argparse.Namespace) -> int:
    parsed = _load(args)
    outdir = _output_dir(args, parsed)
    remove_incomplete_marker(outdir)
    remove_stale_trajectory_csvs(outdir, parsed.ensemble_size)
    cfg = replace(parsed.run, snapshot_every=None)
    # the chunks write their trajectory CSVs and return only the norm rows
    norms = run_ensemble(cfg, parsed.ensemble_size, parsed.workers, sink=TrajectoryCsvSink(outdir))
    halted = [r.trajectory_id for r in norms if not r.complete]
    completed = len(norms) - len(halted)
    summary = outdir / "summary.csv"
    if completed:
        write_summary_csv(ensemble_moments(norms, p=args.moment), summary)  # over the complete members
    else:
        summary.unlink(missing_ok=True)  # one left by an earlier run
    if halted:
        ids = ", ".join(map(str, halted))
        note = (
            f"summary.csv averages the {completed} of {len(norms)} trajectories that completed"
            if completed
            else "no trajectory completed, so there is no summary.csv"
        )
        write_incomplete_marker(outdir, f"numerical blow-up in trajectories: {ids}; {note}")
        print(f"blow-up halt in trajectories {ids}; partial outputs written", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"wrote {len(norms)} trajectories and {summary}")
    return EXIT_OK


def _moment_order(text: str) -> float:
    """--moment: a finite order p >= 2, checked before anything runs."""
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(p) and p >= 2):
        raise argparse.ArgumentTypeError(f"the moment order must be finite and >= 2, got {text!r}")
    return p


def _parse_axis(spec: str, name: str) -> list[float]:
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("range form is start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite range fails the check below
                values = [float(x) for x in np.linspace(start, stop, count)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        if not values:
            raise ValueError("no values given")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"values must be finite, got {spec!r}")
        return values
    except ValueError as exc:
        raise ConfigError(f"--{name}: {exc}") from None


def _cmd_classify(args: argparse.Namespace) -> int:
    theta1_values = _parse_axis(args.theta1, "theta1")
    theta2_values = _parse_axis(args.theta2, "theta2")
    rows = []
    for t1 in theta1_values:
        for t2 in theta2_values:
            try:
                rows.append(classify_regime(t1, t2))
            except ValueError as exc:  # only theta1 has a domain there
                raise ConfigError(f"--theta1: {exc}") from None
    outdir = _output_dir(args)
    path = outdir / "regime_map.csv"
    write_regime_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_audit_noise(args: argparse.Namespace) -> int:
    parsed = _load(args)
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    outdir = _output_dir(args, parsed)
    audit = audit_hypotheses(parsed.run.noise, parsed.run.ctx, samples=args.samples, seed=parsed.run.seed)
    text = audit.render()
    write_atomically(outdir / "noise_audit.txt", lambda partial: partial.write_text(text + "\n"))
    print(text)
    return EXIT_OK


def _cmd_check_invariants(args: argparse.Namespace) -> int:
    ok = selfcheck.run_all()
    if not ok:
        print("invariant suite FAILED", file=sys.stderr)
        return EXIT_INVARIANT
    print("all invariants hold")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leray-alpha",
        description="Pseudo-spectral stochastic Leray-alpha simulator on the periodic torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="path to the INI run configuration")
            p.add_argument("--seed", type=int, default=None, help="override the master noise seed")
            p.add_argument("--workers", type=int, default=None, help="override the worker count")
        p.add_argument("--output", default=None, help=f"output directory (default: ${OUTPUT_ENV} or ./out)")

    p_run = sub.add_parser("run", help="integrate one trajectory, write CSV series + snapshots")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ens = sub.add_parser("ensemble", help="run an ensemble, write per-trajectory CSVs + summary")
    add_common(p_ens)
    p_ens.add_argument("--moment", type=_moment_order, default=2.0, help="moment order p >= 2 for the summary")
    p_ens.set_defaults(func=_cmd_ensemble)

    p_cls = sub.add_parser("classify", help="tabulate solvability regimes over a parameter grid")
    p_cls.add_argument("--theta1", required=True, help="comma list or start:stop:count range")
    p_cls.add_argument("--theta2", required=True, help="comma list or start:stop:count range")
    add_common(p_cls, needs_config=False)
    p_cls.set_defaults(func=_cmd_classify)

    p_aud = sub.add_parser("audit-noise", help="empirical growth/Lipschitz envelopes of the noise family")
    add_common(p_aud)
    p_aud.add_argument("--samples", type=int, default=8, help="random fields per norm scale (>= 2)")
    p_aud.set_defaults(func=_cmd_audit_noise)

    p_chk = sub.add_parser("check-invariants", help="run the built-in invariant suite")
    add_common(p_chk, needs_config=False)
    p_chk.set_defaults(func=_cmd_check_invariants)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
