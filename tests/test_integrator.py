"""Semi-implicit scheme, cutoff profile, stopping monitors, ensembles."""

import itertools
import math
import os
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from leray_alpha import (
    AdditiveNoise,
    DiagonalSpectralNoise,
    InitialData,
    LinearMultiplicativeNoise,
    ModelContext,
    Monitor,
    RunConfig,
    SpectralField,
    detect_stopping,
    random_field,
    run_ensemble,
    run_trajectory,
    smooth_cutoff,
    sobolev_norm,
    step,
)
from leray_alpha import fields, integrator, nonlinear
from leray_alpha.fields import NonFiniteStateError, lattice, polarization
from leray_alpha.cli import main
from leray_alpha.diagnostics import NormSeries, classify_regime, ensemble_moments
from leray_alpha.integrator import (
    INCREMENT_COLUMNS,
    SERIES_COLUMNS,
    RunConfigError,
    StoppingRecord,
    initial_state,
)
from leray_alpha.nonlinear import leray_advection
from leray_alpha.noise import WienerStream, decay_modes, wiener_increment
from leray_alpha.output import (
    TrajectoryCsvSink,
    write_incomplete_marker,
    write_regime_csv,
    write_series_csv,
    write_summary_csv,
)

from oracles import brute_advection


def linear_cfg(**overrides):
    base = dict(
        ctx=ModelContext(nu=0.1, alpha=1.0, theta1=1.0, theta2=1.0, n=2),
        dt=1e-3,
        horizon=1.0,
        noise=LinearMultiplicativeNoise(0.0),
        initial=InitialData(kind="single_mode", mode=(1, 1, 0), amplitude=1.0),
        nonlinear=False,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestCutoffProfile:
    def test_plateau_values(self):
        assert smooth_cutoff(0.0, 2.0) == 1.0
        assert smooth_cutoff(2.0, 2.0) == 1.0
        assert smooth_cutoff(4.0, 2.0) == 0.0
        assert smooth_cutoff(7.0, 2.0) == 0.0

    def test_midpoint_is_half(self):
        assert smooth_cutoff(3.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_transition_open_interval(self):
        assert 0.0 < smooth_cutoff(2.5, 2.0) < 1.0
        assert 0.0 < smooth_cutoff(3.9, 2.0) < 1.0

    def test_monotone_on_grid(self):
        xs = np.linspace(0.0, 5.0, 1000)
        values = [smooth_cutoff(x, 2.0) for x in xs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            smooth_cutoff(1.0, 0.0)


class TestStep:
    def test_single_mode_linear_update_exact(self):
        cfg = linear_cfg()
        state = initial_state(cfg)
        after = step(state, cfg)
        lam = cfg.ctx.nu * 2.0**cfg.ctx.theta2  # |k|^2 = 2
        factor = 1.0 / (1.0 + cfg.dt * lam)
        assert np.allclose(after.u.coeffs, factor * state.u.coeffs, rtol=1e-15)
        assert after.t == pytest.approx(cfg.dt)
        assert after.step_index == 1

    def test_additive_noise_mean_zero_after_one_step(self):
        # Monte-Carlo of the linear update from zero initial data
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=1)
        fam = AdditiveNoise(((0, 0, 1),), (0.5,), 1)
        dt = 0.01
        row = lattice(1).index_of((0, 0, 1))
        samples = []
        for traj in range(10_000):
            cfg = RunConfig(
                ctx=ctx,
                dt=dt,
                horizon=2 * dt,
                noise=fam,
                initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=0.0),
                seed=31,
                trajectory_id=traj,
                nonlinear=False,
            )
            state = step(initial_state(cfg), cfg)
            samples.append(state.u.coeffs[row].real)
        samples = np.array(samples)
        # each excited component is N(0, sigma^2 dt / 2 / (1+dt)^2)
        se = 0.5 * math.sqrt(dt / 2) / (1 + dt) / math.sqrt(len(samples))
        assert np.all(np.abs(samples.mean(axis=0)) <= 4 * se)

    def test_full_nonlinear_step_matches_composition_oracle(self):
        ctx = ModelContext(nu=0.7, alpha=1.1, theta1=0.5, theta2=1.0, n=4)
        fam = LinearMultiplicativeNoise(0.2)
        cfg = RunConfig(
            ctx=ctx,
            dt=0.01,
            horizon=0.1,
            noise=fam,
            initial=InitialData(kind="random", amplitude=1.0, seed=5),
            seed=17,
        )
        state = initial_state(cfg)
        after = step(state, cfg)

        from leray_alpha.fields import helmholtz_filter
        from leray_alpha.noise import WienerStream, wiener_increment

        u0 = state.u
        bconv = brute_advection(helmholtz_filter(u0, ctx), u0)
        incr = wiener_increment(WienerStream(17, 0, 1), cfg.dt, 0)
        gw = fam.apply(u0, incr)
        denom = 1.0 + cfg.dt * ctx.nu * ctx.dissipation_multiplier
        expected = (u0.coeffs - cfg.dt * bconv.coeffs + gw.coeffs) / denom[:, None]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(after.u.coeffs - expected)) <= 1e-12 * scale

    def test_deterministic_contraction_without_forcing(self):
        cfg = linear_cfg(
            initial=InitialData(kind="random", amplitude=2.0, seed=9),
            horizon=0.05,
            dt=0.005,
        )
        record = run_trajectory(cfg)
        assert np.all(np.diff(record.norm_l2) <= 0)

    def test_halted_state_cannot_step(self):
        cfg = linear_cfg()
        state = initial_state(cfg)
        from leray_alpha.integrator import StoppingRecord, TrajectoryState

        dead = TrajectoryState(t=0.0, u=state.u, step_index=0, halted=StoppingRecord("overflow", math.inf, 0.0))
        with pytest.raises(ValueError, match="halted"):
            step(dead, cfg)

    def test_state_of_another_truncation_cannot_step(self):
        # an n = 2 state's rows are other modes of an n = 4 config
        state = initial_state(linear_cfg())
        cfg = linear_cfg(ctx=ModelContext(nu=0.1, alpha=1.0, theta1=1.0, theta2=1.0, n=4))
        with pytest.raises(ValueError, match="truncation mismatch: state n=2, config n=4"):
            step(state, cfg)


class TestRunTrajectory:
    def test_linear_decay_matches_exponential(self):
        cfg = linear_cfg()
        record = run_trajectory(cfg)
        lam = cfg.ctx.nu * 2.0**cfg.ctx.theta2
        exact = np.exp(-lam * record.t)
        err = np.max(np.abs(record.norm_l2 - exact) / exact)
        assert err <= 1e-3

    def test_order_one_convergence(self):
        lam = 0.1 * 2.0**1.0
        errors = []
        for dt in (1e-3, 5e-4):
            record = run_trajectory(linear_cfg(dt=dt))
            errors.append(abs(record.norm_l2[-1] - math.exp(-lam)) / math.exp(-lam))
        ratio = errors[0] / errors[1]
        assert 1.7 <= ratio <= 2.3

    def test_replay_bitwise_identical(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.01,
            horizon=0.2,
            noise=LinearMultiplicativeNoise(0.3),
            initial=InitialData(kind="random", amplitude=1.0, seed=2),
            seed=77,
        )
        a = run_trajectory(cfg)
        b = run_trajectory(cfg)
        assert np.array_equal(a.norm_l2, b.norm_l2)
        assert np.array_equal(a.final_field.coeffs, b.final_field.coeffs)
        assert np.array_equal(a.mart_l2, b.mart_l2)

    def test_state_stays_divergence_free_and_truncated(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=0.25, theta2=1.0, n=4),
            dt=0.01,
            horizon=0.1,
            noise=LinearMultiplicativeNoise(0.2),
            initial=InitialData(kind="random", amplitude=1.0, seed=4),
            seed=5,
        )
        record = run_trajectory(cfg)
        assert record.final_field.n == 4
        assert record.final_field.divergence_defect() <= 1e-12

    def test_snapshots_at_cadence(self):
        cfg = linear_cfg(snapshot_every=0.25)
        record = run_trajectory(cfg)
        times = [t for t, _ in record.snapshots]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        for t, field in record.snapshots:
            assert isinstance(field, SpectralField)
        # a sink receives the same snapshots with their steps, and the record keeps none
        handed = []
        sunk = run_trajectory(cfg, snapshot=lambda *snap: handed.append(snap))
        cadence = round(0.25 / cfg.dt)
        assert [(member, m) for member, m, _, _ in handed] == [(0, i * cadence) for i in range(5)]
        assert [(t, u.coeffs.tobytes()) for _, _, t, u in handed] == [
            (t, u.coeffs.tobytes()) for t, u in record.snapshots
        ]
        assert sunk.snapshots == () and sunk.series.tobytes() == record.series.tobytes()

    def test_overflow_halts_with_partial_record(self):
        # explicit advection with an absurd dt blows up within a few steps
        ctx = ModelContext(nu=1e-8, alpha=1.0, theta1=0.0, theta2=1.0, n=6)
        cfg = RunConfig(
            ctx=ctx,
            dt=50.0,
            horizon=5000.0,
            noise=LinearMultiplicativeNoise(0.0),
            initial=InitialData(kind="random", amplitude=100.0, seed=6),
            seed=0,
        )
        record = run_trajectory(cfg)
        assert not record.complete
        assert record.overflow is not None
        assert record.overflow.kind == "overflow"
        assert len(record.t) < cfg.steps + 1
        assert np.all(np.isfinite(record.norm_l2))

    def test_time_grid_is_exact_multiples(self):
        cfg = linear_cfg(dt=0.125, horizon=1.0)
        record = run_trajectory(cfg)
        assert np.array_equal(record.t, 0.125 * np.arange(9))


class TestOneIntegrationPath:
    def blowup_cfg(self):
        # the config of TestRunTrajectory.test_overflow_halts_with_partial_record
        return RunConfig(
            ctx=ModelContext(nu=1e-8, alpha=1.0, theta1=0.0, theta2=1.0, n=6),
            dt=50.0,
            horizon=5000.0,
            noise=LinearMultiplicativeNoise(0.0),
            initial=InitialData(kind="random", amplitude=100.0, seed=6),
            seed=0,
        )

    def iterate_step(self, cfg):
        state = initial_state(cfg)
        for _ in range(cfg.steps):
            state = step(state, cfg)
            if state.halted is not None:
                break
        return state

    def test_step_matches_run_trajectory_bitwise(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.02,
            horizon=0.4,
            noise=AdditiveNoise(((0, 0, 1), (1, 1, 0), (1, 2, 1)), (0.5, 0.3, 0.2), 3),
            initial=InitialData(kind="random", amplitude=2.0, seed=4),
            seed=11,
            cutoff_radius=2.0,
        )
        record = run_trajectory(cfg)
        # the H1 norm starts outside the cutoff ball and ends inside it
        assert record.norm_h1[0] > cfg.cutoff_radius > record.norm_h1[-1]
        assert record.chi.min() < 1.0 and record.chi[-1] == 1.0
        state = self.iterate_step(cfg)
        assert state.halted is None and state.step_index == cfg.steps
        assert state.u.coeffs.tobytes() == record.final_field.coeffs.tobytes()

    def test_runner_started_mid_run_continues_the_path(self):
        # the start point's state and step index fix the rest of the path;
        # its snapshots are the start, then the multiples of the cadence
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.02,
            horizon=0.4,
            noise=AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.5, 0.3), 3),
            initial=InitialData(kind="random", amplitude=2.0, seed=4),
            seed=11,
            snapshot_every=0.04,
        )
        full = run_trajectory(cfg)
        state = initial_state(cfg)
        for first, steps in ((3, [3, 4, 6]), (4, [4, 6])):  # off and on the cadence of 2 steps
            while state.step_index < first:
                state = step(state, cfg)
            (tail,) = integrator._run_lockstep(cfg, start=state)
            assert tail.t.tolist() == full.t[first:].tolist()
            assert tail.norms.tobytes() == full.norms[:, first:].tobytes()
            assert tail.final_field.coeffs.tobytes() == full.final_field.coeffs.tobytes()
            later = [(t, u.coeffs.tobytes()) for t, u in full.snapshots if t > state.t]
            expected = [(state.t, state.u.coeffs.tobytes()), *later]
            assert [(t, u.coeffs.tobytes()) for t, u in tail.snapshots] == expected
            handed = []
            integrator._run_lockstep(cfg, start=state, snapshot=lambda member, m, t, u: handed.append(m))
            assert handed == steps + list(range(8, cfg.steps + 1, 2))

    def test_step_and_run_trajectory_halt_at_same_step(self):
        cfg = self.blowup_cfg()
        record = run_trajectory(cfg)
        state = self.iterate_step(cfg)
        assert record.overflow is not None and state.halted is not None
        assert state.halted.hit_time == record.overflow.hit_time
        assert state.step_index == len(record.t) - 1
        assert state.u.coeffs.tobytes() == record.final_field.coeffs.tobytes()

    def test_only_non_finite_states_halt(self, monkeypatch):
        # a ValueError that merely mentions finiteness is a bug, not a blow-up
        def broken_apply(self, coeffs, increments):
            raise ValueError("increment is not finite")

        # the block method that run_trajectory and ensemble chunks call
        monkeypatch.setattr(AdditiveNoise, "_apply_block", broken_apply)
        cfg = linear_cfg(noise=AdditiveNoise(((0, 0, 1),), (0.5,), 2), horizon=0.01, dt=0.005)
        with pytest.raises(ValueError, match="increment is not finite"):
            run_trajectory(cfg)
        with pytest.raises(ValueError, match="increment is not finite"):
            run_ensemble(cfg, 3, workers=1)

    def test_runs_in_this_process_scope_the_kernel_threads(self, monkeypatch):
        # a run takes default_fft_workers() threads and gives the count back, also when it raises
        seen = []

        def broken_apply(self, coeffs, increments):
            seen.append(fields.get_fft_workers())
            raise ValueError("broken apply")

        monkeypatch.setattr(fields, "_FFT_WORKERS", 3)
        monkeypatch.setattr(AdditiveNoise, "_apply_block", broken_apply)
        cfg = linear_cfg(noise=AdditiveNoise(((0, 0, 1),), (0.5,), 2), horizon=0.01, dt=0.005)
        for run in (run_trajectory, lambda cfg: run_ensemble(cfg, 3, workers=1)):
            with pytest.raises(ValueError, match="broken apply"):
                run(cfg)
            assert fields.get_fft_workers() == 3
        assert seen == [fields.default_fft_workers()] * 2

    def test_initial_norms_that_overflow_halt_without_a_warning(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=4),
            dt=0.01,
            horizon=0.05,
            noise=LinearMultiplicativeNoise(0.1),
            initial=InitialData(kind="random", amplitude=1e155, seed=1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_trajectory(cfg)
            state = step(initial_state(cfg), cfg)
        assert record.overflow.hit_time == state.halted.hit_time == cfg.dt
        assert record.series.tolist() == [[0.0], *[[math.inf]] * 4, [0.0], [0.0], [0.0]]

    def test_halt_and_snapshot_times_are_python_floats(self):
        # step() and run_trajectory() report the same halt record, from the one runner
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=4),
            dt=0.01,
            horizon=0.05,
            noise=LinearMultiplicativeNoise(0.1),
            initial=InitialData(kind="random", amplitude=1e155, seed=1),
        )
        halted, overflow = step(initial_state(cfg), cfg).halted, run_trajectory(cfg).overflow
        assert type(halted.hit_time) is type(overflow.hit_time) is float
        assert repr(halted) == repr(overflow) == "StoppingRecord(kind='overflow', threshold=inf, hit_time=0.01)"
        record = run_trajectory(replace(cfg, initial=InitialData(kind="random", seed=1), snapshot_every=0.02))
        assert [type(t) for t, _ in record.snapshots] == [float] * 4


def scalar_noise(fam, c, dw, norm_l2, norm_h1):
    """g(u) dW and the ledger's hs_norm_sq(u, 0), hs_norm_sq(u, 1) of one
    state, with the per-field arithmetic of the one-trajectory integrator."""
    if isinstance(fam, LinearMultiplicativeNoise):
        return (fam.sigma * dw[0]) * c, fam.sigma**2 * norm_l2**2, fam.sigma**2 * norm_h1**2
    lat = lattice(fam.n)
    rows = np.array([lat.index_of(k) for k in fam.modes])
    sig = np.asarray(fam.sigmas)
    gw = np.zeros_like(c)
    if isinstance(fam, AdditiveNoise):
        vecs = np.stack([polarization(k) for k in fam.modes]) / math.sqrt(2.0)
        np.add.at(gw, rows, (sig * dw)[:, None] * vecs)
        return gw, *(float(np.sum(sig**2 * lat.k_sq[rows] ** s)) for s in (0.0, 1.0))
    gw[rows] = (sig * dw)[:, None] * c[rows]
    energies = 2.0 * np.sum(np.abs(c[rows]) ** 2, axis=1)
    return gw, *(float(np.sum(sig**2 * lat.k_sq[rows] ** s * energies)) for s in (0.0, 1.0))


def scalar_reference(cfg):
    """One trajectory stepped alone with Python-scalar norms, cutoff and
    ledger: the loop the lockstep core replaced.  Returns the series and
    increment blocks, the final coefficients and whether the run completed."""
    lat, th2 = cfg.ctx.lattice, cfg.ctx.theta2
    weights = [lat.power(2.0 * s) for s in (0.0, 1.0, th2, th2 + 1.0)]
    denom = (1.0 + cfg.dt * cfg.ctx.nu * cfg.ctx.dissipation_multiplier)[:, None]
    stream = WienerStream(cfg.seed, cfg.trajectory_id, cfg.noise.dim)

    def norms(c):
        e = np.sum(np.abs(c) ** 2, axis=1)
        return [math.sqrt(2.0 * float(np.sum(w * e))) for w in weights]

    def pair(a, b, w):
        return 2.0 * float(np.real(np.sum(w * np.einsum("ij,ij->i", a, np.conj(b)))))

    u = initial_state(cfg).u.coeffs
    series = [[m * cfg.dt for m in range(cfg.steps + 1)], *([x] for x in norms(u)), [0.0], [0.0], [0.0]]
    increments = [[] for _ in INCREMENT_COLUMNS]
    for m in range(cfg.steps):
        l2, h1, n_th2, n_th2p1 = (row[-1] for row in series[1:5])
        chi = 1.0 if cfg.cutoff_radius is None else smooth_cutoff(h1, cfg.cutoff_radius)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                bconv = leray_advection(SpectralField(cfg.ctx.n, u), cfg.ctx).coeffs if cfg.nonlinear else None
            except NonFiniteStateError:
                break
            gw, hs_l2, hs_h1 = scalar_noise(cfg.noise, u, wiener_increment(stream, cfg.dt, m).values, l2, h1)
            new = u + chi * gw
            if bconv is not None:
                new = new - (cfg.dt * chi) * bconv
            new = new / denom
            new_norms = norms(new)
        if not (np.all(np.isfinite(new)) and all(map(math.isfinite, new_norms))):
            break
        inj_l2 = chi * chi * hs_l2 * cfg.dt
        adv = 2.0 * chi * pair(bconv, u, weights[1]) * cfg.dt if bconv is not None else 0.0
        for row, value in zip(increments, (2.0 * chi * pair(gw, u, weights[0]), inj_l2,
                                           2.0 * chi * pair(gw, u, weights[1]), chi * chi * hs_h1 * cfg.dt, adv, chi)):
            row.append(value)
        for row, value in zip(series[1:5], new_norms):
            row.append(value)
        series[5].append(series[5][-1] + 0.5 * cfg.dt * (n_th2**2 + new_norms[2] ** 2))
        series[6].append(series[6][-1] + 0.5 * cfg.dt * (n_th2p1**2 + new_norms[3] ** 2))
        series[7].append(series[7][-1] + inj_l2)
        u = new
    steps_done = len(series[1]) - 1
    series[0] = series[0][: steps_done + 1]
    return np.array(series), np.array(increments), u, steps_done == cfg.steps


def assert_same_block(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_records_equal(a, b):
    assert_same_block(a.series, b.series)
    assert_same_block(a.increments, b.increments)
    assert a.overflow == b.overflow and a.hits == b.hits
    assert a.final_field.coeffs.tobytes() == b.final_field.coeffs.tobytes()
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, fa), (_, fb) in zip(a.snapshots, b.snapshots):
        assert fa.coeffs.tobytes() == fb.coeffs.tobytes()


FAMILIES = {
    "additive": AdditiveNoise(((0, 0, 1), (1, 1, 0), (1, 2, 1)), (0.5, 0.3, 0.2), 3),
    "linear-multiplicative": LinearMultiplicativeNoise(0.1),
    "diagonal-spectral": DiagonalSpectralNoise(((0, 0, 1), (1, 1, 0), (1, 2, 1), (2, 0, 3)), (0.9, 0.6, 0.4, 0.3), 3),
}


def family_cfg(noise):
    # the H1 norm starts outside the cutoff ball (3.59 > R = 2) and ends inside it
    return RunConfig(
        ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
        dt=0.02,
        horizon=0.4,
        noise=noise,
        initial=InitialData(kind="random", amplitude=2.0, seed=4),
        seed=11,
        cutoff_radius=2.0,
        monitors=(Monitor("tau_R", 3.0), Monitor("rho_M", 14.0), Monitor("gamma_K", 0.5)),
        snapshot_every=0.1,
    )


def blowup_ensemble_cfg():
    # explicit advection with dt = 1 and nearly no viscosity: the energy grows
    # every step, and the multiplicative noise decides when each member
    # overflows (steps 11, 15, 12, 17, 11, 15 for ids 0-5 over 20 steps)
    return RunConfig(
        ctx=ModelContext(nu=1e-8, alpha=1.0, theta1=0.0, theta2=1.0, n=3),
        dt=1.0,
        horizon=16.0,
        noise=LinearMultiplicativeNoise(0.3),
        initial=InitialData(kind="random", amplitude=1.0, seed=6),
        seed=0,
        snapshot_every=2.0,
    )


class TestLockstepEnsembles:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_trajectory_equals_scalar_reference(self, family):
        cfg = family_cfg(FAMILIES[family])
        record = run_trajectory(cfg)
        series, increments, final, complete = scalar_reference(cfg)
        assert complete and record.complete
        assert record.chi.min() < 1.0 and record.chi.max() == 1.0  # the cutoff is crossed
        assert all(hit is not None for hit in record.hits)
        assert_same_block(record.series, series)
        assert_same_block(record.increments, increments)
        assert record.final_field.coeffs.tobytes() == final.tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_chunk_equals_serial_runs(self, family):
        cfg = family_cfg(FAMILIES[family])
        records = run_ensemble(cfg, 5, workers=1)
        assert [c.size for c in integrator._chunks(cfg, 5, 1)] == [5]
        assert len(records[0].snapshots) == 5
        for tid, record in enumerate(records):
            assert_records_equal(record, run_trajectory(replace(cfg, trajectory_id=tid)))

    @pytest.mark.parametrize(
        "size, workers, sizes",
        [(7, 1, [2, 2, 3]), (7, 2, [2, 2, 3]), (7, 4, [1, 2, 2, 2]), (3, 4, [1, 1, 1]), (1, 2, [1])],
    )
    def test_chunk_layouts_leave_records_unchanged(self, monkeypatch, size, workers, sizes):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=2),
            dt=0.02,
            horizon=0.2,
            noise=AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.5, 0.3), 2),
            initial=InitialData(kind="random", amplitude=1.0, seed=1),
            seed=99,
        )
        serial = [run_trajectory(replace(cfg, trajectory_id=i)) for i in range(size)]
        member = 48 * lattice(2).size + 8 * (len(SERIES_COLUMNS) + len(INCREMENT_COLUMNS)) * (cfg.steps + 1)
        monkeypatch.setattr(integrator, "_CHUNK_BYTES", 3 * member)  # at most 3 members a chunk
        chunks = integrator._chunks(cfg, size, workers)
        assert [c.size for c in chunks] == sizes
        assert [c.trajectory_id for c in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]
        records = run_ensemble(cfg, size, workers=workers)
        assert [r.trajectory_id for r in records] == list(range(size))
        for a, b in zip(records, serial):
            assert_records_equal(a, b)

    def test_chunk_with_many_driver_rows_equals_serial_runs(self):
        # 12 driver rows: the ledger sums a member's rows past numpy's 8-way
        # unrolled sum, in the order of a run of its own
        noise = DiagonalSpectralNoise(*decay_modes(3, 12, 0.5, 1.0), 3)
        cfg = replace(family_cfg(noise), snapshot_every=None)
        for tid, record in enumerate(run_ensemble(cfg, 3, workers=1)):
            assert_records_equal(record, run_trajectory(replace(cfg, trajectory_id=tid)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_member_blowing_up_mid_chunk(self, workers):
        cfg = blowup_ensemble_cfg()
        records = run_ensemble(cfg, 6, workers=workers)
        # ids 0 and 4 halt at step 11, 2 at 12, 1 and 5 at 15; 3 completes
        assert [len(r.t) - 1 for r in records] == [11, 15, 12, 16, 11, 15]
        assert [r.complete for r in records] == [False, False, False, True, False, False]
        for tid, record in enumerate(records):
            alone = run_trajectory(replace(cfg, trajectory_id=tid))
            assert_records_equal(record, alone)
            series, increments, final, complete = scalar_reference(replace(cfg, trajectory_id=tid))
            assert complete == record.complete
            assert_same_block(record.series, series)
            assert_same_block(record.increments, increments)
            assert record.final_field.coeffs.tobytes() == final.tobytes()

    def test_member_whose_advection_overflows_halts_alone(self, monkeypatch):
        # one advection per member and step, in member order, and one
        # product callback per x-slab of the product grid in each: member 1's
        # products overflow during step 7 of a 3-member chunk
        cfg = replace(family_cfg(FAMILIES["additive"]), snapshot_every=0.02)
        step_index, member, size = 7, 1, 3
        clean = run_ensemble(cfg, size, workers=1)
        slabs = -(-cfg.ctx.lattice.product_ng // fields._SLAB_DEPTH)
        first = (step_index * size + member) * slabs
        products = nonlinear._advective_products
        calls = itertools.count()

        def overflowing(physical, out):
            products(physical, out)
            if first <= next(calls) < first + slabs:
                out *= 1e300
                out *= 1e300

        monkeypatch.setattr(nonlinear, "_advective_products", overflowing)
        records = run_ensemble(cfg, size, workers=1)
        advections = (step_index + 1) * size + (cfg.steps - step_index - 1) * (size - 1)
        assert next(calls) == advections * slabs
        halted, alone = records[member], clean[member]
        assert halted.overflow == StoppingRecord("overflow", math.inf, alone.t[step_index + 1])
        assert_same_block(halted.series, alone.series[:, : step_index + 1])
        assert_same_block(halted.increments, alone.increments[:, :step_index])
        assert [t for t, _ in halted.snapshots] == [t for t, _ in alone.snapshots[: step_index + 1]]
        for (_, a), (_, b) in zip(halted.snapshots, alone.snapshots):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert halted.final_field.coeffs.tobytes() == alone.snapshots[step_index][1].coeffs.tobytes()
        for other in (0, 2):
            assert_records_equal(records[other], clean[other])


def ou_cfg():
    # the n = 1 OU ensemble of criterion 6 over 60 steps, with snapshots
    return RunConfig(
        ctx=ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=1),
        dt=0.02,
        horizon=1.2,
        noise=AdditiveNoise(((0, 0, 1),), (0.2,), 1),
        initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=0.0),
        seed=5,
        nonlinear=False,
        snapshot_every=0.1,
    )


WINDOW_CFGS = {
    **{f"{name}-cutoff": (lambda noise=noise: family_cfg(noise)) for name, noise in FAMILIES.items()},
    **{name: (lambda noise=noise: replace(family_cfg(noise), cutoff_radius=None)) for name, noise in FAMILIES.items()},
    "blowup": blowup_ensemble_cfg,
    "ou-n1": ou_cfg,
}


def record_bytes(record):
    return [record.final_field.coeffs.tobytes(), *(u.coeffs.tobytes() for _, u in record.snapshots)]


class TestLedgerWindows:
    """The ledger records a window of steps at once; no window size changes
    a byte of any record."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7, None], ids=["1", "2", "3", "7", "all"])
    @pytest.mark.parametrize("name", sorted(WINDOW_CFGS))
    def test_windows_leave_records_unchanged(self, monkeypatch, name, width):
        cfg = WINDOW_CFGS[name]()
        size = 6 if name == "blowup" else 3
        default = run_ensemble(cfg, size, workers=1)
        widths = []
        ledger = integrator._StepCore.ledger

        def spy(self, *args):
            widths.append(args[-1].shape[2])  # the window's increment columns
            return ledger(self, *args)

        monkeypatch.setattr(integrator._StepCore, "ledger", spy)
        # the bytes of one step's states, noise terms and advections of the chunk
        step_bytes = size * cfg.ctx.lattice.size * 48 * (3 if cfg.nonlinear else 2)
        monkeypatch.setattr(integrator, "_WINDOW_BYTES", step_bytes * (width or cfg.steps))
        records = run_ensemble(cfg, size, workers=1)
        # a cutoff reads each step's H1 norm, so its windows hold one step
        window = 1 if cfg.cutoff_radius is not None else width or cfg.steps
        assert widths == [window] * (cfg.steps // window) + [cfg.steps % window] * (cfg.steps % window > 0)
        if name == "blowup":
            assert [r.complete for r in records] == [False, False, False, True, False, False]
        saved = [record_bytes(r) for r in records]
        for tid, record in enumerate(records):
            assert_records_equal(record, default[tid])
            series, increments, final, complete = scalar_reference(replace(cfg, trajectory_id=tid))
            assert complete == record.complete
            assert_same_block(record.series, series)
            assert_same_block(record.increments, increments)
            assert record.final_field.coeffs.tobytes() == final.tobytes()
        # later runs allocate their own arrays: no record views one of them
        run_ensemble(replace(cfg, seed=cfg.seed + 1), size, workers=1)
        assert [record_bytes(r) for r in records] == saved


class TestTrajectoryRecord:
    def test_named_rows_are_the_block_rows(self):
        record = run_trajectory(family_cfg(FAMILIES["additive"]))
        steps = record.cfg.steps
        assert record.series.shape == (len(SERIES_COLUMNS), steps + 1)
        assert record.increments.shape == (len(INCREMENT_COLUMNS), steps)
        for block, names in ((record.series, SERIES_COLUMNS), (record.increments, INCREMENT_COLUMNS)):
            for row, name in zip(block, names):
                assert_same_block(getattr(record, name), row)
                assert np.shares_memory(getattr(record, name), block)
        assert_same_block(record.norms, record.series[1:5])
        with pytest.raises(AttributeError):
            record.norm_l2 = record.norm_h1

    def test_records_compare_and_hash_by_identity(self):
        cfg = linear_cfg(horizon=0.01, dt=0.005)
        a, b = run_trajectory(cfg), run_trajectory(cfg)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, a, b}) == 2

    def test_records_survive_pickling(self):
        # pool results are unpickled in the parent, halted members' included
        for record in run_ensemble(blowup_ensemble_cfg(), 6, workers=1):
            assert_records_equal(pickle.loads(pickle.dumps(record)), record)


class TestBatchedDraws:
    @pytest.mark.parametrize(
        "noise",
        [
            LinearMultiplicativeNoise(0.1),
            AdditiveNoise(((0, 0, 1), (1, 1, 0), (1, 2, 1)), (0.5, 0.3, 0.2), 4),
            DiagonalSpectralNoise(*decay_modes(4, 300, 0.5, 1.0), 4),
        ],
        ids=["dim1", "dim3", "dim300"],
    )
    def test_increment_block_equals_wiener_increment(self, noise):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=4),
            dt=0.02,
            horizon=0.2,
            noise=noise,
            initial=InitialData(kind="random", amplitude=1.0, seed=1),
            seed=7,
        )
        core = integrator._StepCore(cfg)
        streams = [WienerStream(cfg.seed, tid, noise.dim) for tid in (0, 1, 5)]
        for step_index in (0, 1, 2**40):
            block = core.increments(streams, step_index)
            assert block.shape == (3, noise.dim)
            for row, stream in zip(block, streams):
                assert row.tobytes() == wiener_increment(stream, cfg.dt, step_index).values.tobytes()


AUDIT_CFG = """
[model]
nu = 1.0
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 1

[time]
dt = 0.02
T = 0.1

[noise]
family = additive
modes = 0,0,1:0.2

[initial]
kind = single_mode
mode = 0,0,1
"""


def streamed_blowup_cfg():
    # monitors hit at different steps in each member before it blows up
    monitors = (Monitor("tau_R", 10.0), Monitor("rho_M", 1e3), Monitor("gamma_K", 100.0))
    return replace(blowup_ensemble_cfg(), snapshot_every=None, monitors=monitors)


class TestEnsembleSink:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_csvs_equal_serial_records(self, tmp_path, workers):
        cfg = streamed_blowup_cfg()
        out = tmp_path / "out"
        out.mkdir()
        results = run_ensemble(cfg, 6, workers=workers, sink=TrajectoryCsvSink(out))
        assert [type(r) for r in results] == [NormSeries] * 6
        assert [r.trajectory_id for r in results] == list(range(6))
        assert [r.complete for r in results] == [False, False, False, True, False, False]
        names = [f"traj_{tid:04d}.csv" for tid in range(6)]
        assert sorted(p.name for p in out.iterdir()) == names  # no temporary file is left
        serial = tmp_path / "serial.csv"
        for tid, name in enumerate(names):
            record = run_trajectory(replace(cfg, trajectory_id=tid))
            write_series_csv(record, serial)
            assert (out / name).read_bytes() == serial.read_bytes(), name
            assert_same_block(results[tid].norms, record.norms)
        assert any("1" in line.split(",")[-3:] for line in (out / names[3]).read_text().splitlines()[1:])

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_summary_from_norm_series_equals_full_records(self, tmp_path, p):
        cfg = replace(family_cfg(FAMILIES["diagonal-spectral"]), snapshot_every=None)
        records = run_ensemble(cfg, 5, workers=1)
        slim = run_ensemble(cfg, 5, workers=2, sink=TrajectoryCsvSink(tmp_path))
        write_summary_csv(ensemble_moments(records, p=p), tmp_path / "full.csv")
        write_summary_csv(ensemble_moments(slim, p=p), tmp_path / "slim.csv")
        assert (tmp_path / "full.csv").read_bytes() == (tmp_path / "slim.csv").read_bytes()

    @pytest.mark.parametrize("writer", ["series", "summary", "regime", "incomplete", "noise-audit"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, writer):
        record = run_trajectory(linear_cfg(horizon=0.01, dt=0.005))
        config = tmp_path / "audit.ini"
        config.write_text(AUDIT_CFG)
        out = tmp_path / "out"
        out.mkdir()
        write = {
            "series": lambda: write_series_csv(record, out / "traj_0000.csv"),
            "summary": lambda: write_summary_csv(ensemble_moments([record, record]), out / "summary.csv"),
            "regime": lambda: write_regime_csv([classify_regime(1.0, 1.0)], out / "regime_map.csv"),
            "incomplete": lambda: write_incomplete_marker(out, "trajectories 0, 1 blew up"),
            "noise-audit": lambda: main(["audit-noise", "--config", str(config), "--samples", "2", "--output", str(out)]),
        }[writer]

        def fail(self, text):
            with self.open("w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(type(tmp_path), "write_text", fail)
        with pytest.raises(OSError, match="disk full"):
            write()
        assert list(out.iterdir()) == []

    def test_pool_has_no_more_processes_than_chunks(self, monkeypatch):
        started = []
        pool = integrator.ProcessPoolExecutor

        def counting_pool(max_workers, **kwargs):
            started.append((max_workers, kwargs["initargs"]))
            return pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(integrator, "ProcessPoolExecutor", counting_pool)
        cfg = linear_cfg(horizon=0.01, dt=0.005)
        records = run_ensemble(cfg, 2, workers=6)
        assert [r.trajectory_id for r in records] == [0, 1]
        assert started == [(2, (max(1, (os.cpu_count() or 1) // 2),))]

    @pytest.mark.parametrize(
        "cpus, workers, chunks, shape",
        [(2, 6, 6, (2, 1)), (2, 2, 1, (1, 2)), (8, 3, 10, (3, 2)), (8, 16, 16, (8, 1)), (None, 4, 4, (1, 1))],
    )
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus, workers, chunks, shape):
        monkeypatch.setattr(integrator.os, "cpu_count", lambda: cpus)
        assert integrator._pool_shape(workers, chunks) == shape

    def test_one_cpu_runs_the_chunks_in_this_process(self, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("no pool may start on one CPU")

        monkeypatch.setattr(integrator.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(integrator, "ProcessPoolExecutor", no_pool)
        cfg = linear_cfg(horizon=0.01, dt=0.005)
        records = run_ensemble(cfg, 3, workers=4)
        assert [r.trajectory_id for r in records] == [0, 1, 2]

    def test_default_cap_chunk_sizes(self):
        # the README's figures: the 500-step n = 1 OU ensemble runs two
        # chunks of 32 at two workers, n = 16 holds 4 members a chunk
        # and n = 24 one
        ou = RunConfig(
            ctx=ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=1),
            dt=0.02,
            horizon=10.0,
            noise=AdditiveNoise(((0, 0, 1),), (0.2,), 1),
            initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=0.0),
            nonlinear=False,
        )
        assert [c.size for c in integrator._chunks(ou, 64, 2)] == [32, 32]
        assert [c.size for c in integrator._chunks(ou, 200, 1)] == [66, 67, 67]
        big = replace(ou, ctx=replace(ou.ctx, n=16), noise=LinearMultiplicativeNoise(0.1), horizon=0.5)
        assert [c.size for c in integrator._chunks(big, 4, 2)] == [2, 2]
        assert [c.size for c in integrator._chunks(big, 8, 1)] == [4, 4]
        assert [c.size for c in integrator._chunks(replace(big, ctx=replace(ou.ctx, n=24)), 2, 1)] == [1, 1]


class TestMonitors:
    def test_tau_r_hits_at_zero_when_threshold_below_initial(self):
        cfg = linear_cfg()
        u0_norm = sobolev_norm(initial_state(cfg).u, 1.0)
        cfg = linear_cfg(monitors=(Monitor("tau_R", 0.5 * u0_norm),))
        record = run_trajectory(cfg)
        assert record.hits[0] is not None
        assert record.hits[0].hit_time == 0.0
        assert detect_stopping(record, "tau_R", 0.5 * u0_norm) == 0.0

    def test_monitor_never_triggered(self):
        cfg = linear_cfg(monitors=(Monitor("tau_R", 1e6),))
        record = run_trajectory(cfg)
        assert record.hits[0] is None
        assert detect_stopping(record, "tau_R", 1e6) is None

    def test_gamma_k_constant_series_closed_form(self):
        # sigma = 0, B off, nu tiny: ||u||_{theta2}^2 ~ constant c, so the
        # trapezoidal integral crosses K at the first grid t with c t >= K
        ctx = ModelContext(nu=1e-9, alpha=1.0, theta1=1.0, theta2=1.0, n=2)
        cfg = linear_cfg(ctx=ctx, dt=0.1, horizon=2.0)
        record = run_trajectory(cfg)
        c = record.norm_th2[0] ** 2
        threshold = 0.75 * c  # crossing at t = 0.75 -> first grid time 0.8
        hit = detect_stopping(record, "gamma_K", threshold)
        assert hit == pytest.approx(0.8)

    def test_rho_m_reduces_to_tau_sqrt_m_without_dissipation(self):
        cfg = linear_cfg()
        record = run_trajectory(cfg)
        # build the degenerate functional by hand: zero out the integral
        m_threshold = record.norm_h1[0] ** 2 * 0.81
        tau = detect_stopping(record, "tau_R", math.sqrt(m_threshold))
        rho_series = np.maximum.accumulate(record.norm_h1**2)
        crossed = rho_series >= m_threshold
        rho = float(record.t[int(np.argmax(crossed))]) if crossed.any() else None
        assert rho == tau

    def test_rho_m_online_matches_detect(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.2, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.01,
            horizon=0.5,
            noise=LinearMultiplicativeNoise(0.4),
            initial=InitialData(kind="random", amplitude=1.0, seed=8),
            seed=3,
            monitors=(Monitor("rho_M", 0.9), Monitor("gamma_K", 0.05)),
        )
        record = run_trajectory(cfg)
        for monitor, hit in zip(cfg.monitors, record.hits):
            redo = detect_stopping(record, monitor.kind, monitor.threshold)
            assert (hit.hit_time if hit is not None else None) == redo

    def test_unknown_kind_rejected(self):
        cfg = linear_cfg()
        record = run_trajectory(cfg)
        with pytest.raises(ValueError, match="monitor kind"):
            detect_stopping(record, "sigma_Z", 1.0)
        with pytest.raises(ValueError, match="monitor kind"):
            Monitor("sigma_Z", 1.0)


class TestEnsembles:
    def test_worker_count_invariance(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.02,
            horizon=0.2,
            noise=LinearMultiplicativeNoise(0.3),
            initial=InitialData(kind="random", amplitude=1.0, seed=1),
            seed=99,
        )
        serial = run_ensemble(cfg, 6, workers=1)
        parallel = run_ensemble(cfg, 6, workers=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.norm_l2, b.norm_l2)
            assert np.array_equal(a.final_field.coeffs, b.final_field.coeffs)

    def test_trajectory_ids_assigned_in_order(self):
        cfg = linear_cfg(horizon=0.01, dt=0.005)
        records = run_ensemble(cfg, 3, workers=1)
        assert [r.trajectory_id for r in records] == [0, 1, 2]

    def test_distinct_trajectories_distinct_noise(self):
        cfg = RunConfig(
            ctx=ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=1),
            dt=0.01,
            horizon=0.1,
            noise=AdditiveNoise(((0, 0, 1),), (0.5,), 1),
            initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=0.0),
            seed=12,
            nonlinear=False,
        )
        records = run_ensemble(cfg, 2, workers=1)
        assert not np.array_equal(records[0].norm_l2, records[1].norm_l2)

    @pytest.mark.parametrize(
        "size, workers, message",
        [(0, 1, "size must be >= 1"), (1, 0, "workers must be >= 1"), (1, -1, "workers must be >= 1")],
    )
    def test_empty_ensemble_or_pool_rejected(self, size, workers, message):
        # workers = 0 divided the CPUs by zero, and workers = -1 ran in this process
        with pytest.raises(ValueError, match=message):
            run_ensemble(linear_cfg(horizon=0.01, dt=0.005), size, workers=workers)


class TestConfigValidation:
    def test_dt_bounds(self):
        with pytest.raises(ValueError, match="dt"):
            linear_cfg(dt=0.0)
        with pytest.raises(ValueError, match="horizon"):
            linear_cfg(dt=2.0, horizon=1.0)

    def test_off_grid_times_rejected(self):
        with pytest.raises(ValueError, match="horizon T = 1.0 is not a whole number of steps dt = 0.3"):
            linear_cfg(dt=0.3, horizon=1.0)
        with pytest.raises(ValueError, match="snapshot_every = 0.25 is not a whole number of steps dt = 0.1"):
            linear_cfg(dt=0.1, snapshot_every=0.25)
        with pytest.raises(ValueError, match="snapshot_every = 0.0005 is not a whole number of steps"):
            linear_cfg(snapshot_every=5e-4)
        # within the relative tolerance of 1e-9
        assert linear_cfg(dt=0.1, horizon=0.3, snapshot_every=0.2).steps == 3
        assert linear_cfg(dt=1e-3, horizon=1.0 + 1e-12).steps == 1000

    def test_cutoff_radius_positive(self):
        with pytest.raises(ValueError, match="cutoff"):
            linear_cfg(cutoff_radius=-1.0)

    @pytest.mark.parametrize("family", [AdditiveNoise, DiagonalSpectralNoise])
    def test_noise_of_another_truncation_rejected(self, family):
        # an n = 2 family's rows are other modes of an n = 4 block
        with pytest.raises(RunConfigError, match="noise truncation n=2 does not match the model n=4") as caught:
            linear_cfg(ctx=ModelContext(nu=0.1, alpha=1.0, theta1=1.0, theta2=1.0, n=4),
                       noise=family(((1, 0, 0),), (1.0,), 2))
        assert caught.value.field == "noise"
        linear_cfg(noise=family(((1, 0, 0),), (1.0,), 2))  # n = 2 on both sides

    def test_cutoff_freezes_large_states(self):
        # R far below the state norm: chi = 0, so only dissipation acts
        cfg = RunConfig(
            ctx=ModelContext(nu=0.5, alpha=1.0, theta1=1.0, theta2=1.0, n=3),
            dt=0.01,
            horizon=0.1,
            noise=LinearMultiplicativeNoise(5.0),
            initial=InitialData(kind="random", amplitude=1.0, seed=3),
            seed=8,
            cutoff_radius=1e-6,
        )
        record = run_trajectory(cfg)
        assert np.all(record.chi == 0.0)
        assert np.all(np.diff(record.norm_l2) <= 0)  # pure contraction
