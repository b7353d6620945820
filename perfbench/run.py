"""Benchmark of the leray-alpha CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`./src`, and metric names and units come from `./BENCHMARK.json`.  Each run
generates the workload's config from the seed (see workloads.py), runs the
CLI command once untimed as the reference, then repeats it in-process through
`leray_alpha.cli.main` for S seconds.  Every command's outputs are checked
and compared with the reference's, and after the timed loop the reference
is checked against serial re-runs.  Set-up time is
the median of five cold set-ups, each in a fresh interpreter.

With `--trace 0` the last line reports the end-to-end metrics: the median
trajectory-steps per second of the timed commands, the median set-up time,
and the peak RSS of this process plus its largest child.  With `--trace 1`
timed commands alternate between untraced and traced, and the last line
reports the per-layer metrics of the traced ones (see spans.py).  Failed
operations over attempted ones is the `failed_frac` of the table printed
above the last line; the last line carries it as `failed` / `attempted`.

`--workload all` runs every workload in turn, each in its own process.

A full record (environment, code, generated config, every check that
failed, every command's wall time) goes to `.perfbench/records/`.  The exit
code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5


def _percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def _code_identity(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        blob = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    # a checkout without .git (or with packed refs) is identified by src_sha256 alone
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref_path = root / ".git" / commit[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_py_lines": lines}


def _environment() -> dict:
    import multiprocessing

    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


@contextlib.contextmanager
def _record_pool_fft(directory: Path):
    """Have each pool child write its FFT thread setting into `directory`."""
    from leray_alpha import fields, integrator

    original = integrator._pool_init

    def pool_init(fft_workers: int) -> None:
        original(fft_workers)
        (directory / f"fft_{os.getpid()}").write_text(str(fields.get_fft_workers()))

    integrator._pool_init = pool_init
    try:
        yield
    finally:
        integrator._pool_init = original


def _run_cli(argv: list[str]) -> tuple[int, float]:
    from leray_alpha import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashed command is a failed operation, not the end of the run
            traceback.print_exc()
            rc = 1
        wall = perf_counter() - start
    return rc, wall


def _setup_probes(root: Path, config: Path, command: str) -> list[dict]:
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"), str(config), command],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def layer_metrics(merged: dict, parts: list[dict], wall: float, workers: int) -> dict:
    """Per-layer numbers of one traced command from the aggregates of the
    parent (parts[0]) and its pool tasks, and their sum `merged`."""
    self_s, total_s, calls, counters = (merged[k] for k in ("self_s", "total_s", "calls", "counters"))
    busy = sum(part["total_s"].get("integrator.trajectory", 0.0) for part in parts[1:])
    pool_wall = total_s.get("integrator.ensemble", 0.0)
    advect = total_s.get("nonlinear.advect", 0.0)
    return {
        "fields.fft_inverse_s": self_s.get("fields.fft_inverse", 0.0),
        "fields.fft_forward_s": self_s.get("fields.fft_forward", 0.0),
        "fields.scatter_s": self_s.get("fields.scatter", 0.0),
        "fields.gather_s": self_s.get("fields.gather", 0.0),
        "fields.norms_s": self_s.get("fields.norms", 0.0),
        "fields.fft_calls": calls.get("fields.fft_inverse", 0) + calls.get("fields.fft_forward", 0),
        "fields.fft_gflop_computed": counters.get("fields.fft_flop", 0.0) / 1e9,
        "fields.fft_gb_computed": counters.get("fields.fft_bytes", 0.0) / 1e9,
        "nonlinear.advect_s": advect,
        "nonlinear.advect_self_s": self_s.get("nonlinear.advect", 0.0),
        "nonlinear.glue_frac": self_s.get("nonlinear.advect", 0.0) / advect if advect else 0.0,
        "nonlinear.advect_calls": calls.get("nonlinear.advect", 0),
        "noise.increment_s": self_s.get("noise.increment", 0.0),
        "noise.apply_s": self_s.get("noise.apply", 0.0),
        "noise.hs_norm_s": self_s.get("noise.hs_norm", 0.0),
        "noise.calls": sum(calls.get(k, 0) for k in ("noise.increment", "noise.apply", "noise.hs_norm")),
        "integrator.self_s": self_s.get("integrator.trajectory", 0.0),
        "integrator.steps": counters.get("integrator.steps", 0.0),
        "integrator.halts": counters.get("integrator.halts", 0.0),
        "integrator.worker_busy_frac": busy / (workers * pool_wall) if pool_wall else 0.0,
        "integrator.pool_idle_s": workers * pool_wall - busy if pool_wall else 0.0,
        "diagnostics.moments_s": self_s.get("diagnostics.moments", 0.0),
        "output.csv_s": self_s.get("output.csv", 0.0),
        "output.csv_bytes": counters.get("output.csv_bytes", 0.0),
        "snapshots.write_s": self_s.get("snapshots.write", 0.0),
        "snapshots.bytes": counters.get("snapshots.bytes", 0.0),
        "config.parse_s": self_s.get("config.parse", 0.0),
        "trace.coverage_frac": sum(parts[0]["self_s"].values()) / wall,
    }


# counts repeat exactly between commands; every other layer metric is the
# median over the traced commands
_COUNTS = {
    "fields.fft_calls", "fields.fft_gflop_computed", "fields.fft_gb_computed", "nonlinear.advect_calls",
    "noise.calls", "integrator.steps", "integrator.halts", "output.csv_bytes", "snapshots.bytes",
}


def summarize_layers(per_command: list[dict], durations: dict, traced: list[float], untraced: list[float]) -> dict:
    summary = {}
    for name in per_command[0]:
        values = [entry[name] for entry in per_command]
        summary[name] = values[0] if name in _COUNTS else statistics.median(values)
    advect = durations.get("nonlinear.advect", [])
    trajectories = durations.get("integrator.trajectory", [])
    summary["nonlinear.advect_ms_p50"] = 1e3 * _percentile(advect, 50)
    summary["nonlinear.advect_ms_p99"] = 1e3 * _percentile(advect, 99)
    summary["integrator.traj_s_p50"] = _percentile(trajectories, 50)
    summary["integrator.traj_s_p90"] = _percentile(trajectories, 90)
    summary["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return summary


def run(args: argparse.Namespace, root: Path) -> tuple[dict, object, dict]:
    from leray_alpha import fields
    from leray_alpha.config import parse_config
    from spans import Tracer, merge
    from workloads import WORKLOADS, Checks, verify_ensemble, verify_reference, verify_run

    workload = WORKLOADS[args.workload]
    verify = verify_run if workload.command == "run" else verify_ensemble
    work = root / ".perfbench" / "work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_text = workload.config(args.seed, tiny=args.tiny)
    config = work / "config.ini"
    config.write_text(config_text)
    parsed = parse_config(config_text, seed_override=args.seed)

    def argv(out: Path) -> list[str]:
        return [workload.command, "--config", str(config), "--seed", str(args.seed), "--output", str(out)]

    checks = Checks()
    reference = work / "reference"
    fft_dir = work / "pool_fft"
    fft_dir.mkdir()
    with _record_pool_fft(fft_dir):
        reference_rc, reference_wall = _run_cli(argv(reference))
    fft_parent = fields.get_fft_workers()
    fft_children = sorted(int(p.read_text()) for p in fft_dir.iterdir())

    tracer = Tracer()
    rates, untraced, traced, per_command = [], [], [], []
    durations: dict[str, list[float]] = {}
    start = perf_counter()
    index = 0
    while True:
        out = work / f"command{index}"
        if args.trace and index % 2 == 1:
            child_dir = work / f"trace{index}"
            child_dir.mkdir()
            tracer.reset()
            with tracer.installed(child_dir):
                rc, wall = _run_cli(argv(out))
            parts = [tracer.snapshot()] + [json.loads(p.read_text()) for p in sorted(child_dir.iterdir())]
            merged = merge(parts)
            per_command.append(layer_metrics(merged, parts, wall, parsed.workers))
            for name, values in merged["durations"].items():
                durations.setdefault(name, []).extend(values)
            traced.append(wall)
            verify(parsed, out, rc, reference, checks)
        else:
            rc, wall = _run_cli(argv(out))
            untraced.append(wall)
            rates.append(verify(parsed, out, rc, reference, checks) / wall)
        shutil.rmtree(out)
        index += 1
        if perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    peak_rss = _peak_rss_mb()  # before the serial re-runs, which are not the CLI's memory
    verify(parsed, reference, reference_rc, None, checks)
    verify_reference(workload, parsed, args.seed, reference, checks)
    probes = _setup_probes(root, config, workload.command)
    shutil.rmtree(work, ignore_errors=True)

    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "traj_steps_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        metrics.update(summarize_layers(per_command, durations, traced, untraced))
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "config": config_text,
        "argv": argv(Path("<output>")),
        "environment": {**_environment(), "fft_workers_parent": fft_parent, "fft_workers_children": fft_children},
        "code": _code_identity(root),
        "reference_wall_s": reference_wall,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "setup_probes": probes,
        "failed_checks": checks.failures,
        "metrics": metrics,
    }
    return metrics, checks, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="leray-alpha CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "leray_alpha" / "cli.py").is_file():
        print(f"no leray_alpha sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seed < 0:
        print("--seed must be >= 0 (it keys the noise streams)", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so none inherits another's caches or peak RSS
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        flags += ["--tiny"] if args.tiny else []
        return max(
            subprocess.run([sys.executable, __file__, "--workload", w["name"], *flags], cwd=root).returncode
            for w in spec["workloads"]
        )
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import leray_alpha

    if Path(leray_alpha.__file__).resolve().parent != (root / "src" / "leray_alpha").resolve():
        print(f"imported leray_alpha from {leray_alpha.__file__}, not from ./src", file=sys.stderr)
        return 2

    metrics, checks, record = run(args, root)
    failed = len(checks.failures)
    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in listed}
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  record {record_path.relative_to(root)}")
    for name, entry in shown.items():
        print(f"  {name:30s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  {'failed_frac':30s} {failed / checks.attempted:14.6g} ({failed}/{checks.attempted})")
    for name in checks.failures:
        print(f"FAILED: {name}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
