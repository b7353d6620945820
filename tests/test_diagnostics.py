"""Energy ledgers, Monte-Carlo moments, regime classification."""

import math
import pickle
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
    StoppingRecord,
    classify_regime,
    energy_ledger,
    ensemble_moments,
    jackknife_mean,
    moment_exponent,
    run_ensemble,
    run_trajectory,
)
from leray_alpha.diagnostics import VERDICT_ORDER, RegimeVerdict


def ou_cfg(**overrides):
    base = dict(
        ctx=ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=1),
        dt=0.01,
        horizon=0.5,
        noise=AdditiveNoise(((0, 0, 1),), (0.3,), 1),
        initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=0.0),
        seed=5,
        nonlinear=False,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestEnergyLedger:
    def test_deterministic_residual_first_order(self):
        # sigma = 0 nonlinear run: mean |residual| decays at least first order
        ctx = ModelContext(nu=0.5, alpha=1.0, theta1=0.5, theta2=1.0, n=4)
        means = []
        for dt in (0.02, 0.01):
            cfg = RunConfig(
                ctx=ctx,
                dt=dt,
                horizon=0.4,
                noise=LinearMultiplicativeNoise(0.0),
                initial=InitialData(kind="random", amplitude=1.0, seed=2),
                seed=0,
            )
            ledger = energy_ledger(run_trajectory(cfg), "l2")
            means.append(float(np.mean(np.abs(ledger.residual))))
        assert means[1] < means[0]
        assert means[0] / means[1] >= 1.8

    def test_single_mode_dissipation_entries_exact(self):
        cfg = ou_cfg(noise=AdditiveNoise(((0, 0, 1),), (0.0,), 1),
                     initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=1.0))
        record = run_trajectory(cfg)
        ledger = energy_ledger(record, "l2")
        # diagonal formula: 2 nu |k|^{2 theta2} ||u_{m+1}||^2 dt with |k| = 1
        expected = 2.0 * cfg.ctx.nu * record.norm_l2[1:] ** 2 * cfg.dt
        assert np.allclose(ledger.dissipation, expected, rtol=1e-14)

    def test_multiplicative_injection_identity(self):
        cfg = ou_cfg(noise=LinearMultiplicativeNoise(0.3),
                     initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=1.0))
        record = run_trajectory(cfg)
        ledger = energy_ledger(record, "l2")
        assert np.allclose(ledger.injection, 0.3**2 * record.norm_l2[:-1] ** 2 * cfg.dt, rtol=1e-14)

    def test_ledger_closes_by_construction(self):
        cfg = ou_cfg(noise=LinearMultiplicativeNoise(0.2),
                     initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=1.0))
        record = run_trajectory(cfg)
        for which in ("l2", "h1"):
            ledger = energy_ledger(record, which)
            recon = (
                ledger.delta
                + ledger.dissipation
                + ledger.transport
                - ledger.injection
                - ledger.martingale
            )
            assert np.allclose(recon, ledger.residual, atol=1e-18)

    def test_h1_ledger_has_transport_on_nonlinear_runs(self):
        ctx = ModelContext(nu=0.5, alpha=1.0, theta1=0.25, theta2=1.0, n=4)
        cfg = RunConfig(
            ctx=ctx,
            dt=0.01,
            horizon=0.1,
            noise=LinearMultiplicativeNoise(0.1),
            initial=InitialData(kind="random", amplitude=1.0, seed=3),
            seed=1,
        )
        record = run_trajectory(cfg)
        assert np.any(energy_ledger(record, "h1").transport != 0.0)
        assert np.all(energy_ledger(record, "l2").transport == 0.0)

    def test_invalid_selector(self):
        record = run_trajectory(ou_cfg())
        with pytest.raises(ValueError, match="l2.*h1|which"):
            energy_ledger(record, "h2")

    def test_expected_energy_balance_linear_additive(self):
        # aggregate mean of (delta + dissipation - injection) over the
        # ensemble stays within 4 SE of zero: the martingale has mean zero
        cfg = ou_cfg(dt=0.005, horizon=1.0, seed=21)
        records = run_ensemble(cfg, 256, workers=1)
        totals, marts = [], []
        for record in records:
            ledger = energy_ledger(record, "l2")
            totals.append(float(np.sum(ledger.delta + ledger.dissipation - ledger.injection)))
            marts.append(float(np.sum(ledger.martingale)))
        _, mart_se = jackknife_mean(np.array(marts))
        assert abs(np.mean(totals)) <= 4.0 * mart_se


class TestJackknife:
    def test_matches_classic_standard_error_for_mean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        mean, se = jackknife_mean(x)
        assert mean == pytest.approx(float(np.mean(x)), rel=1e-14)
        assert se == pytest.approx(float(np.std(x, ddof=1) / math.sqrt(len(x))), rel=1e-10)

    def test_single_sample(self):
        mean, se = jackknife_mean(np.array([3.5]))
        assert (mean, se) == (3.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jackknife_mean(np.array([]))


class TestEnsembleMoments:
    def test_degenerate_ensemble_zero_se(self):
        cfg = ou_cfg(noise=AdditiveNoise(((0, 0, 1),), (0.0,), 1),
                     initial=InitialData(kind="single_mode", mode=(0, 0, 1), amplitude=1.0))
        records = run_ensemble(cfg, 8, workers=1)
        stats = ensemble_moments(records, p=2.0)
        assert stats.sup_l2[1] == pytest.approx(0.0, abs=1e-18)
        single = float(np.max(records[0].norm_l2 ** 2))
        assert stats.sup_l2[0] == pytest.approx(single, rel=1e-14)

    def test_se_shrinks_with_ensemble_size(self):
        # CLT scaling: doubling the ensemble shrinks the SE by ~ 1/sqrt(2);
        # compare against the average over disjoint halves to damp the
        # sampling noise of the SE estimate itself
        big = run_ensemble(ou_cfg(seed=33), 256, workers=1)
        se_full = ensemble_moments(big, p=2.0).sup_l2[1]
        se_half = 0.5 * (
            ensemble_moments(big[:128], p=2.0).sup_l2[1]
            + ensemble_moments(big[128:], p=2.0).sup_l2[1]
        )
        ratio = se_full / se_half
        assert 0.6 <= ratio <= 0.82

    def test_only_complete_trajectories_count(self):
        records = run_ensemble(ou_cfg(), 4, workers=1)
        halted = replace(
            records[1],
            series=records[1].series[:, :11],
            increments=records[1].increments[:, :10],
            overflow=StoppingRecord("overflow", math.inf, 0.11),
        )
        stats = ensemble_moments([records[0], halted, records[2], records[3]], p=2.0)
        assert stats == ensemble_moments([records[0], records[2], records[3]], p=2.0)
        assert stats.count == 3
        with pytest.raises(ValueError, match="no complete trajectories"):
            ensemble_moments([halted], p=2.0)

    @pytest.mark.parametrize(
        "other, mixed",
        [
            (dict(dt=0.005), True),
            (dict(noise=AdditiveNoise(((0, 0, 1),), (0.4,), 1)), True),
            (dict(noise=DiagonalSpectralNoise(((0, 0, 1),), (0.3,), 1)), True),
            (dict(cutoff_radius=1.0), True),
            (dict(nonlinear=True), True),
            (dict(monitors=(Monitor("tau_R", 1.0),)), True),
            (dict(trajectory_id=3), False),
            (dict(snapshot_every=0.1), False),
            (dict(), False),
        ],
        ids=["dt", "sigma", "family", "cutoff", "nonlinear", "monitor", "trajectory_id", "snapshot_every", "same"],
    )
    def test_mixed_configurations_rejected(self, other, mixed):
        # one setup: configs equal but for trajectory_id and snapshot_every,
        # also after a pickled round trip (pool children return their records)
        a = run_trajectory(ou_cfg())
        b = pickle.loads(pickle.dumps(run_trajectory(ou_cfg(**other))))
        if mixed:
            with pytest.raises(ValueError, match="mixed"):
                ensemble_moments([a, b], p=2.0)
        else:
            assert ensemble_moments([a, b], p=2.0).count == 2

    def test_moment_order_validated(self):
        records = [run_trajectory(ou_cfg())]
        with pytest.raises(ValueError, match="p"):
            ensemble_moments(records, p=1.0)

    def test_higher_moments_finite(self):
        records = run_ensemble(ou_cfg(), 8, workers=1)
        stats = ensemble_moments(records, p=4.0)
        for value, se in (stats.sup_l2, stats.sup_h1, stats.diss_l2, stats.diss_h1):
            assert math.isfinite(value) and math.isfinite(se)


class TestMomentExponent:
    def test_anchor_values(self):
        assert moment_exponent(0.0, 1.5) == 6.0
        assert moment_exponent(1.0, 1.0) == 3.0

    def test_boundary_rejected(self):
        with pytest.raises(ValueError, match="subcritical"):
            moment_exponent(0.0, 1.25)
        with pytest.raises(ValueError, match="subcritical"):
            moment_exponent(0.25, 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            moment_exponent(-0.5, 2.0)
        with pytest.raises(ValueError):
            moment_exponent(1.0, 0.0)

    def test_decreasing_in_theta1_on_first_branch(self):
        theta2 = 1.0
        values = [moment_exponent(t1, theta2) for t1 in (0.3, 0.4, 0.5, 0.6, 0.7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_case_split_on_grid(self):
        for theta1 in np.linspace(0.0, 2.0, 9):
            for theta2 in np.linspace(0.1, 2.0, 9):
                if theta1 + theta2 <= 1.25:
                    continue
                m = moment_exponent(theta1, theta2)
                assert math.isfinite(m) and m > 0
                if theta1 + theta2 / 2.0 < 1.25:
                    assert m == 1.0 + (1.0 + theta2) / (2.0 * (theta1 + theta2 - 1.25))
                else:
                    assert m == 2.0 + 1.0 / theta2


class TestRegimeClassifier:
    def test_classical_model_anchor_points(self):
        assert classify_regime(1.0, 1.0).verdict == "global-H0"
        assert classify_regime(0.0, 1.25).verdict == "global-H0"
        assert classify_regime(0.0, 1.0).verdict == "local-only"
        assert classify_regime(0.25, 1.0).verdict == "global-H0"

    def test_weak_dissipation_needs_h1_data(self):
        assert classify_regime(1.0, 0.25).verdict == "global-H1"
        assert classify_regime(0.9, 0.5).verdict == "global-H1"

    def test_outside_region(self):
        assert classify_regime(0.0, 0.5).verdict == "outside"
        assert classify_regime(0.5, 0.25).verdict == "outside"  # sum = 3/4 exactly, needs >
        assert classify_regime(0.6, 0.25).verdict == "local-only"
        assert classify_regime(0.0, 0.1).verdict == "outside"
        assert classify_regime(1.0, 0.0).verdict == "outside"

    def test_negative_theta1_rejected(self):
        with pytest.raises(ValueError, match="theta1"):
            classify_regime(-0.1, 1.0)

    def test_totality_and_monotonicity(self):
        theta1_grid = np.linspace(0.0, 2.0, 21)
        theta2_grid = np.linspace(0.1, 2.0, 21)
        ranks = np.array(
            [[classify_regime(t1, t2).rank for t2 in theta2_grid] for t1 in theta1_grid]
        )
        assert np.all(ranks >= 0)
        assert np.all(np.diff(ranks, axis=0) >= 0)  # stronger smoothing never hurts
        assert np.all(np.diff(ranks, axis=1) >= 0)  # stronger dissipation never hurts

    def test_rank_order(self):
        assert [RegimeVerdict(0, 1, v).rank for v in VERDICT_ORDER] == [0, 1, 2, 3]
