"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that
  1. every metric BENCHMARK.json names is emitted, with its unit, for every
     workload, traced and untraced;
  2. flipping one byte of a pooled trajectory CSV trips the byte-identity
     check;
  3. the exact counts (fields.fft_calls, noise.calls, integrator.steps)
     repeat between two traced runs;
  4. fields.fft_calls and nonlinear.advect_calls are 0 on ou-n1-ensemble;
and that cli-run-n24 spends no time in a pool and layer_map.json maps every
per-layer metric onto end-to-end metrics and workloads that exist.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
EXACT_COUNTS = ("fields.fft_calls", "noise.calls", "integrator.steps")


def require(condition: bool, message: str) -> None:
    if not condition:
        print(f"SELFTEST FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {message}")


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
    require(done.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, 1, trace)
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result has exactly its four keys")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{workload} trace {trace}: every operation succeeds")
            emitted = result["metrics"]
            require(set(emitted) == {m["name"] for m in listed}, f"{workload} trace {trace}: every metric emitted")
            wrong = [m["name"] for m in listed
                     if emitted[m["name"]]["unit"] != m["unit"] or not math.isfinite(emitted[m["name"]]["value"])]
            require(not wrong, f"{workload} trace {trace}: every metric has its unit and a finite value {wrong}")
            if trace:
                traced[workload] = emitted
    for workload, first in traced.items():
        second = bench(workload, 2, 1)["metrics"]
        for name in EXACT_COUNTS:
            require(first[name]["value"] == second[name]["value"],
                    f"{workload}: {name} repeats between traced runs ({first[name]['value']:g})")
    ou = traced["ou-n1-ensemble"]
    require(ou["fields.fft_calls"]["value"] == 0, "ou-n1-ensemble makes no FFT calls")
    require(ou["nonlinear.advect_calls"]["value"] == 0, "ou-n1-ensemble makes no advect calls")
    run = traced["cli-run-n24"]
    require(run["integrator.worker_busy_frac"]["value"] == 0 and run["integrator.pool_idle_s"]["value"] == 0,
            "cli-run-n24 spends no time in a pool")


def check_byte_identity() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from leray_alpha import cli
    from leray_alpha.config import parse_config
    from workloads import WORKLOADS, Checks, sample_ids, verify_ensemble, verify_reference

    workload, seed = WORKLOADS["ito-n16-ensemble"], 5
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        text = workload.config(seed, tiny=True)
        (work / "config.ini").write_text(text)
        parsed = parse_config(text, seed_override=seed)
        out = work / "pooled"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["ensemble", "--config", str(work / "config.ini"), "--seed", str(seed), "--output", str(out)])
        clean = Checks()
        verify_ensemble(parsed, out, rc, None, clean)
        verify_reference(workload, parsed, seed, out, clean)
        require(not clean.failures, f"untouched pooled outputs pass ({clean.failures})")

        shutil.copytree(out, work / "copy")
        target = out / f"traj_{sample_ids(parsed.ensemble_size, workload.sampled, seed)[0]:04d}.csv"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        target.write_bytes(bytes(blob))
        flipped = Checks()
        verify_reference(workload, parsed, seed, out, flipped)
        require(any("byte-identical" in f for f in flipped.failures),
                "a flipped byte in a pooled CSV trips the serial byte-identity check")
        against_reference = Checks()
        verify_ensemble(parsed, out, rc, work / "copy", against_reference)
        require(any(target.name in f for f in against_reference.failures),
                "a flipped byte trips the comparison with the reference command")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_layer_map(spec: dict) -> None:
    table = json.loads((HERE / "layer_map.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    covered = {metric for entry in table for metric in entry["metrics"]}
    require(covered == {m["name"] for m in spec["per_layer"]}, "layer_map.json covers every per-layer metric")
    unknown = [entry["layer"] for entry in table
               if not set(entry["bypass"]) <= workloads
               or any(c["metric"] not in end_to_end or not set(c["on"]) <= workloads for c in entry["moves"])]
    require(not unknown, f"layer_map.json names only known end-to-end metrics and workloads {unknown}")


def main() -> int:
    if not (ROOT / "src" / "leray_alpha" / "cli.py").is_file():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layer_map(spec)
    check_byte_identity()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
