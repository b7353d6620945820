"""Fast built-in invariant suite backing the check-invariants CLI command.

Each check exercises one algebraic contract of the operator stack on small
fixed-seed inputs; the whole suite runs in a few seconds.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import classify_regime, moment_exponent
from .fields import (
    ModelContext,
    SpectralField,
    from_grid,
    fractional_laplacian,
    helmholtz_filter,
    leray_project,
    random_field,
    sobolev_norm,
    to_grid,
)
from .integrator import (
    InitialData,
    Monitor,
    RunConfig,
    _Chunk,
    run_trajectory,
    smooth_cutoff,
)
from .nonlinear import leray_advection, pointwise_multiply, trilinear
from .noise import AdditiveNoise, LinearMultiplicativeNoise
from .output import TrajectoryCsvSink, write_series_csv
from .snapshots import SnapshotMeta, read_snapshot, write_snapshot

_CTX = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)


def _check_round_trip() -> str:
    u = random_field(_CTX, seed=11)
    v = from_grid(to_grid(u), _CTX.n)
    err = float(np.max(np.abs(v.coeffs - u.coeffs))) / float(np.max(np.abs(u.coeffs)))
    assert err <= 1e-12, f"round-trip relative error {err:.2e}"
    return f"relative error {err:.1e}"


def _check_projection() -> str:
    u = random_field(_CTX, seed=12)
    noisy = SpectralField(u.n, u.coeffs + 0.3 * np.roll(u.coeffs, 1, axis=1))
    once = leray_project(noisy)
    twice = leray_project(once)
    gap = float(np.max(np.abs(twice.coeffs - once.coeffs)))
    assert once.is_divergence_free(1e-12), "projection output not divergence-free"
    assert gap <= 1e-13 * float(np.max(np.abs(once.coeffs))), f"not idempotent (gap {gap:.2e})"
    return "divergence-free and idempotent"


def _check_multiplier_semigroup() -> str:
    u = random_field(_CTX, seed=13)
    a = fractional_laplacian(fractional_laplacian(u, 0.7), 1.1)
    b = fractional_laplacian(u, 1.8)
    err = float(np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs)))
    assert err <= 1e-12, f"semigroup defect {err:.2e}"
    return f"defect {err:.1e}"


def _check_norm_identity() -> str:
    u = random_field(_CTX, seed=14)
    lhs = sobolev_norm(u, 1.3)
    rhs = sobolev_norm(fractional_laplacian(u, 1.3), 0.0)
    err = abs(lhs - rhs) / rhs
    assert err <= 1e-12, f"norm identity defect {err:.2e}"
    return f"defect {err:.1e}"


def _check_smoother_bound() -> str:
    u = random_field(_CTX, seed=15)
    gu = helmholtz_filter(u, _CTX)
    gain = _CTX.alpha ** (-2.0 * _CTX.theta1)
    lhs = sobolev_norm(gu, 1.0 + 2.0 * _CTX.theta1)
    rhs = gain * sobolev_norm(u, 1.0)
    assert lhs <= rhs * (1 + 1e-12), f"smoothing bound violated: {lhs:.6g} > {rhs:.6g}"
    return f"{lhs:.4g} <= {rhs:.4g}"


def _check_cancellation() -> str:
    u = random_field(_CTX, seed=16)
    gu = helmholtz_filter(u, _CTX)
    value = abs(trilinear(gu, u, u, _CTX))
    scale = sobolev_norm(gu, 1.0) * sobolev_norm(u, 1.0) * sobolev_norm(u, 0.0)
    assert value <= 1e-10 * scale, f"cancellation defect {value / scale:.2e}"
    return f"normalised defect {value / scale:.1e}"


def _check_skew_symmetry() -> str:
    u = random_field(_CTX, seed=17)
    v = random_field(_CTX, seed=18)
    w = random_field(_CTX, seed=19)
    lhs = trilinear(u, v, w, _CTX)
    rhs = -trilinear(u, w, v, _CTX)
    scale = sobolev_norm(u, 1.0) * sobolev_norm(v, 1.0) * sobolev_norm(w, 1.0)
    assert abs(lhs - rhs) <= 1e-10 * scale, f"skew defect {(lhs - rhs) / scale:.2e}"
    return f"normalised defect {abs(lhs - rhs) / scale:.1e}"


def _check_single_mode_advection() -> str:
    u = SpectralField.single_mode(_CTX.n, (1, 2, 0), 1.0)
    b = leray_advection(u, _CTX)
    peak = float(np.max(np.abs(b.coeffs)))
    assert peak <= 1e-14, f"single-mode advection magnitude {peak:.2e}"
    return f"max |B| = {peak:.1e}"


def _check_product_grid() -> str:
    # the pruned transforms rely on pocketfft's axis order inside irfftn/rfftn
    u = random_field(_CTX, seed=21)
    v = random_field(_CTX, seed=22)
    lat = _CTX.lattice
    plan = lat.plan(lat.product_ng)
    phys = plan.to_physical(np.concatenate([plan.scatter(u.coeffs), plan.scatter(v.coeffs)]))
    full = plan.gather(plan.to_spectrum(phys[0:3] * phys[3:6]))
    assert np.array_equal(pointwise_multiply(u, v, _CTX).coeffs, full), "differs from the full-grid transforms"
    return "bitwise equal to the full-grid transforms"


def _check_linear_decay() -> str:
    ctx = ModelContext(nu=0.1, alpha=1.0, theta1=1.0, theta2=1.0, n=2)
    cfg = RunConfig(
        ctx=ctx,
        dt=1e-3,
        horizon=0.5,
        noise=LinearMultiplicativeNoise(0.0),
        initial=InitialData(kind="single_mode", mode=(1, 1, 0), amplitude=1.0),
        nonlinear=False,
    )
    record = run_trajectory(cfg)
    lam = ctx.nu * 2.0 ** ctx.theta2
    exact = math.exp(-lam * record.t[-1])
    err = abs(record.norm_l2[-1] - exact) / exact
    assert err <= 1e-3, f"linear decay error {err:.2e}"
    return f"relative error {err:.1e}"


def _chunk_cfg() -> RunConfig:
    return RunConfig(
        ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=2),
        dt=0.02,
        horizon=0.2,
        noise=AdditiveNoise(((0, 0, 1), (1, 1, 0), (1, 2, 1)), (0.5, 0.3, 0.2), 2),
        initial=InitialData(kind="random", amplitude=1.0, seed=5),
        seed=23,
        monitors=(Monitor("gamma_K", 0.3),),  # hit after a few steps
    )


def _check_lockstep_ensemble() -> str:
    # an ensemble chunk advances its members as one (K, M, 3) block
    cfg = _chunk_cfg()
    for tid, record in enumerate(_Chunk(cfg, 3).run()):
        alone = run_trajectory(replace(cfg, trajectory_id=tid))
        for block in ("series", "increments"):
            same = getattr(record, block).tobytes() == getattr(alone, block).tobytes()
            assert same, f"member {tid}: the {block} block differs from its serial run"
        same = record.final_field.coeffs.tobytes() == alone.final_field.coeffs.tobytes()
        assert same, f"member {tid}: final state differs from its serial run"
    return "3-member chunk bitwise equal to 3 serial runs"


def _check_streamed_ensemble() -> str:
    # the ensemble command's chunks write their own trajectory CSVs
    cfg = _chunk_cfg()
    with tempfile.TemporaryDirectory() as tmp:
        streamed = Path(tmp, "streamed")
        streamed.mkdir()
        _Chunk(cfg, 3, TrajectoryCsvSink(streamed)).run()
        names = [f"traj_{tid:04d}.csv" for tid in range(3)]
        assert sorted(p.name for p in streamed.iterdir()) == names, "unexpected files in the output directory"
        for tid, name in enumerate(names):
            write_series_csv(run_trajectory(replace(cfg, trajectory_id=tid)), Path(tmp, name))
            same = Path(streamed, name).read_bytes() == Path(tmp, name).read_bytes()
            assert same, f"{name} differs from the CSV of its serial run"
    return "3-member chunk CSVs byte-equal to 3 serial runs"


def _check_cutoff_profile() -> str:
    assert smooth_cutoff(0.5, 1.0) == 1.0
    assert smooth_cutoff(1.0, 1.0) == 1.0
    assert smooth_cutoff(2.0, 1.0) == 0.0
    mid = smooth_cutoff(1.5, 1.0)
    assert abs(mid - 0.5) <= 1e-12, f"midpoint {mid}"
    return "plateaus and midpoint correct"


def _check_snapshot_round_trip() -> str:
    u = random_field(_CTX, seed=20)
    meta = SnapshotMeta(n=_CTX.n, nu=_CTX.nu, alpha=_CTX.alpha, theta1=_CTX.theta1, theta2=_CTX.theta2, t=0.25)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "field.snap")
        write_snapshot(u, meta, path)
        v, meta2 = read_snapshot(path)
    assert np.array_equal(u.coeffs, v.coeffs), "coefficients not bit-exact"
    assert meta2 == meta, "metadata mismatch"
    return "bit-exact"


def _check_regime_anchors() -> str:
    assert classify_regime(1.0, 1.0).verdict == "global-H0"
    assert classify_regime(0.0, 1.25).verdict == "global-H0"
    assert classify_regime(0.0, 1.0).verdict == "local-only"
    assert classify_regime(0.25, 1.0).verdict == "global-H0"
    assert moment_exponent(0.0, 1.5) == 6.0
    assert moment_exponent(1.0, 1.0) == 3.0
    return "anchor points match"


CHECKS = [
    ("transform round-trip", _check_round_trip),
    ("leray projection", _check_projection),
    ("multiplier semigroup", _check_multiplier_semigroup),
    ("norm identity", _check_norm_identity),
    ("smoother bound", _check_smoother_bound),
    ("advection cancellation", _check_cancellation),
    ("trilinear skew symmetry", _check_skew_symmetry),
    ("single-mode advection vanishes", _check_single_mode_advection),
    ("product-grid kernel", _check_product_grid),
    ("linear decay", _check_linear_decay),
    ("lockstep ensemble", _check_lockstep_ensemble),
    ("streamed ensemble", _check_streamed_ensemble),
    ("cutoff profile", _check_cutoff_profile),
    ("snapshot round-trip", _check_snapshot_round_trip),
    ("regime anchors", _check_regime_anchors),
]


def run_all(echo=print) -> bool:
    """Run every invariant check, print one line per check, return overall
    success."""
    ok = True
    for name, fn in CHECKS:
        try:
            detail = fn()
            echo(f"PASS {name}: {detail}")
        except AssertionError as exc:
            ok = False
            echo(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, keep checking
            ok = False
            echo(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
    return ok
