"""Layer spans recorded from outside the package.

`Tracer.installed()` replaces the functions that one layer of `leray_alpha`
calls in another with timing wrappers and restores them on exit, so nothing
under `src/` changes and untraced commands run the original code.  A span's
self time is its duration minus the durations of the spans it encloses.

Pool workers inherit the wrappers through fork.  Each pool task starts from
an empty tracer, and when it ends it writes its aggregates to a JSON file in
`Tracer.child_dir`, which the parent merges after the command.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span names whose individual durations are kept for percentiles
_KEEP_DURATIONS = {"nonlinear.advect", "integrator.trajectory"}


class Tracer:
    def __init__(self) -> None:
        self.child_dir: Path | None = None
        self.reset()

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "durations": dict(self.durations),
        }

    def wrap(self, name: str, fn, after=None):
        """Return `fn` timed as span `name`; `after(tracer, args, result)`
        adds counts once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack = self.stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if name in _KEEP_DURATIONS:
                    self.durations[name].append(duration)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _pool_task(self, fn):
        @functools.wraps(fn)
        def task(cfg):
            self.reset()  # drop the parent's open spans copied by fork
            record = fn(cfg)
            payload = self.snapshot()
            path = self.child_dir / f"child_{os.getpid()}_{cfg.trajectory_id:04d}.json"
            path.write_text(json.dumps(payload))
            self.reset()
            return record

        return task

    def _targets(self):
        from leray_alpha import cli, fields, integrator, noise

        plan = fields._GridPlan
        targets = [
            (plan, "to_physical", "fields.fft_inverse", _count_fft_inverse),
            (plan, "to_spectrum", "fields.fft_forward", _count_fft_forward),
            (plan, "scatter", "fields.scatter", None),
            (plan, "gather", "fields.gather", None),
            (fields, "sobolev_norm", "fields.norms", None),
            (fields, "leray_project", "fields.norms", None),
            (noise, "sobolev_norm", "fields.norms", None),
            (integrator, "leray_advection", "nonlinear.advect", None),
            (integrator, "wiener_increment", "noise.increment", None),
            (integrator, "run_trajectory", "integrator.trajectory", _count_trajectory),
            (cli, "run_trajectory", "integrator.trajectory", _count_trajectory),
            (cli, "run_ensemble", "integrator.ensemble", None),
            (cli, "ensemble_moments", "diagnostics.moments", None),
            (cli, "write_series_csv", "output.csv", _count_file("output.csv_bytes")),
            (cli, "write_summary_csv", "output.csv", _count_file("output.csv_bytes")),
            (cli, "write_snapshot", "snapshots.write", _count_file("snapshots.bytes")),
            (cli, "parse_config", "config.parse", None),
        ]
        for family in (noise.AdditiveNoise, noise.LinearMultiplicativeNoise, noise.DiagonalSpectralNoise):
            targets.append((family, "apply", "noise.apply", None))
            targets.append((family, "hs_norm_sq", "noise.hs_norm", None))
        return targets

    @contextmanager
    def installed(self, child_dir: Path):
        """Trace every layer call made inside the block, including the calls
        pool workers forked inside it make."""
        from leray_alpha import integrator

        self.child_dir = child_dir
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            original = integrator.__dict__["_pool_worker"]
            saved.append((integrator, "_pool_worker", original))
            integrator._pool_worker = self._pool_task(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.child_dir = None


def _fft_cost(tracer: Tracer, ng: int, batch: int, complex_side: int, real_side: int) -> None:
    points = ng**3
    tracer.counters["fields.fft_flop"] += batch * 5.0 * points * math.log2(points)
    tracer.counters["fields.fft_bytes"] += complex_side + real_side


def _count_fft_inverse(tracer: Tracer, args, result) -> None:
    plan, spectrum = args[0], args[1]
    _fft_cost(tracer, plan.ng, spectrum.size // math.prod(plan.half_shape), spectrum.nbytes, result.nbytes)


def _count_fft_forward(tracer: Tracer, args, result) -> None:
    plan, values = args[0], args[1]
    _fft_cost(tracer, plan.ng, values.size // plan.ng**3, result.nbytes, values.nbytes)


def _count_trajectory(tracer: Tracer, args, record) -> None:
    tracer.counters["integrator.steps"] += len(record.t) - 1
    tracer.counters["integrator.halts"] += 0 if record.complete else 1


def _count_file(counter: str):
    def count(tracer: Tracer, args, result) -> None:
        tracer.counters[counter] += os.path.getsize(args[-1])

    return count


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of the parent and its pool tasks."""
    merged = {key: defaultdict(float) for key in ("self_s", "total_s", "calls", "counters")}
    merged["durations"] = defaultdict(list)
    for part in parts:
        for key in ("self_s", "total_s", "calls", "counters"):
            for name, value in part[key].items():
                merged[key][name] += value
        for name, values in part["durations"].items():
            merged["durations"][name].extend(values)
    return merged
