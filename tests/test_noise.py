"""Wiener increment streams and the shipped noise coefficient families."""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leray_alpha import (
    AdditiveNoise,
    DiagonalSpectralNoise,
    LinearMultiplicativeNoise,
    ModelContext,
    SpectralField,
    WienerStream,
    audit_hypotheses,
    random_field,
    sobolev_norm,
    wiener_increment,
)
from leray_alpha.fields import lattice, polarization
from leray_alpha.noise import decay_modes

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _draw_three(stream):
    return [wiener_increment(stream, 0.01, m) for m in range(3)]


class TestWienerIncrements:
    def test_rejects_bad_dt(self):
        stream = WienerStream(1, 0, 2)
        with pytest.raises(ValueError, match="dt"):
            wiener_increment(stream, 0.0, 0)
        with pytest.raises(ValueError, match="dt"):
            wiener_increment(stream, -1.0, 0)

    def test_deterministic_replay(self):
        stream = WienerStream(42, 7, 3)
        a = wiener_increment(stream, 0.01, 5)
        b = wiener_increment(WienerStream(42, 7, 3), 0.01, 5)
        assert np.array_equal(a, b)

    def test_distinct_steps_and_trajectories_differ(self):
        stream = WienerStream(42, 7, 3)
        a = wiener_increment(stream, 0.01, 5)
        b = wiener_increment(stream, 0.01, 6)
        c = wiener_increment(WienerStream(42, 8, 3), 0.01, 5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("dim", [1, 3, 300])
    def test_reused_generator_equals_fresh_one(self, dim):
        # one Philox per stream, reset per step, draws what a generator built
        # for that step draws, in any step order
        def fresh(step):
            bitgen = np.random.Philox(
                key=np.array([42, 7], dtype=np.uint64), counter=np.array([0, 0, 0, step], dtype=np.uint64)
            )
            return np.random.Generator(bitgen).standard_normal(dim) * math.sqrt(0.01)

        stream = WienerStream(42, 7, dim)
        for step in (0, 1, 2, 2**40, 1, 0, 2**40, 2):
            assert np.array_equal(wiener_increment(stream, 0.01, step), fresh(step))

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
    def test_key_words_outside_uint64_rejected(self, key):
        # a ValueError from the stream, not an OverflowError from numpy
        with pytest.raises(ValueError, match=r">= 0 and < 2\*\*64"):
            WienerStream(*key, 1)

    def test_largest_key_words_draw(self):
        assert np.isfinite(wiener_increment(WienerStream(2**64 - 1, 2**64 - 1, 3), 0.01, 0)).all()

    def test_pickled_stream_draws_in_a_pool(self):
        stream = WienerStream(42, 7, 3)
        expected = [wiener_increment(stream, 0.01, m) for m in range(3)]
        with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
            drawn = pool.submit(_draw_three, stream).result(timeout=60)
        assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))

    def test_moments_match_clt_bounds(self):
        # fixed seed: CLT windows evaluated at test time
        dt = 0.02
        n_draws = 10**5
        stream = WienerStream(2024, 0, 1)
        draws = np.array([wiener_increment(stream, dt, m)[0] for m in range(n_draws)])
        assert abs(np.mean(draws)) <= 4 * math.sqrt(dt / n_draws)
        assert abs(np.var(draws) - dt) <= 0.05 * dt

    def test_cross_trajectory_correlation_small(self):
        dt = 1.0
        n_draws = 10**5
        a = np.array([wiener_increment(WienerStream(9, 0, 1), dt, m)[0] for m in range(n_draws)])
        b = np.array([wiener_increment(WienerStream(9, 1, 1), dt, m)[0] for m in range(n_draws)])
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4 / math.sqrt(n_draws)


class TestFamilies:
    def setup_method(self):
        self.ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)
        self.u = random_field(self.ctx, seed=3)

    def test_linear_multiplicative_scaling_exact(self):
        fam = LinearMultiplicativeNoise(0.3)
        dw = np.array([1.7])
        out = fam.apply(self.u, dw)
        assert np.array_equal(out.coeffs, 0.3 * 1.7 * self.u.coeffs)

    def test_additive_zero_amplitudes(self):
        fam = AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.0, 0.0), 4)
        dw = np.array([2.0, -3.0])
        assert np.max(np.abs(fam.apply(self.u, dw).coeffs)) == 0.0

    def test_additive_unit_norm_fields(self):
        fam = AdditiveNoise(((0, 0, 1),), (1.0,), 4)
        dw = np.array([1.0])
        out = fam.apply(SpectralField.zero(4), dw)
        assert sobolev_norm(out, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert out.divergence_defect() <= 1e-15

    def test_additive_apply_equals_accumulating_into_zeros(self):
        # a negative increment times a zero polarisation component is -0.0;
        # added into the zero field it becomes +0.0, and snapshots keep signs
        fam = AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.3, 0.2), 4)
        dw = np.array([-1.5, -0.5])
        out = fam.apply(SpectralField.zero(4), dw).coeffs
        expected = np.zeros((lattice(4).size, 3), dtype=complex)
        rows = [lattice(4).index_of(k) for k in fam.modes]
        vecs = np.stack([polarization(k) for k in fam.modes]) / math.sqrt(2.0)
        np.add.at(expected, rows, (np.asarray(fam.sigmas) * dw)[:, None] * vecs)
        assert out.tobytes() == expected.tobytes()
        parts = out.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()

    def test_diagonal_disjoint_support_gives_zero(self):
        fam = DiagonalSpectralNoise(((0, 0, 1),), (0.5,), 4)
        # field supported away from the driver mode
        coeffs = np.zeros((lattice(4).size, 3), dtype=complex)
        coeffs[lattice(4).index_of((1, 1, 0))] = [0.5, -0.5, 0.0]
        u = SpectralField(4, coeffs)
        dw = np.array([1.3])
        assert np.max(np.abs(fam.apply(u, dw).coeffs)) == 0.0

    def test_dimension_mismatch_rejected(self):
        fam = AdditiveNoise(((0, 0, 1),), (1.0,), 4)
        with pytest.raises(ValueError, match="dimension"):
            fam.apply(self.u, np.array([1.0, 2.0]))

    def test_mode_outside_truncation_rejected(self):
        with pytest.raises(ValueError, match="outside the truncation"):
            AdditiveNoise(((0, 0, 9),), (1.0,), 4)

    @pytest.mark.parametrize("family", [AdditiveNoise, DiagonalSpectralNoise])
    def test_empty_mode_list_rejected(self, family):
        with pytest.raises(ValueError, match="need at least one noise mode"):
            family((), (), 4)

    def test_duplicate_modes_after_canonicalisation_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AdditiveNoise(((0, 0, 1), (0, 0, -1)), (1.0, 1.0), 4)

    @given(seed=seeds, a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=15)
    def test_linearity_in_increment(self, seed, a, b):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        u = random_field(ctx, seed=seed)
        fam = AdditiveNoise(((0, 0, 1), (1, 0, 0)), (0.4, 0.2), 3)
        w1 = np.array([1.0, -2.0])
        w2 = np.array([0.5, 3.0])
        lhs = fam.apply(u, a * w1 + b * w2)
        rhs = a * fam.apply(u, w1) + b * fam.apply(u, w2)
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=1e-14)

    def test_range_divergence_free(self):
        for fam in (
            AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.3, 0.1), 4),
            LinearMultiplicativeNoise(0.2),
            DiagonalSpectralNoise(((0, 0, 1), (1, 1, 0)), (0.3, 0.1), 4),
        ):
            dw = np.ones(fam.dim)
            out = fam.apply(self.u, dw)
            assert out.divergence_defect() <= 1e-12


class TestHilbertSchmidtNorms:
    def setup_method(self):
        self.ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)
        self.u = random_field(self.ctx, seed=5)

    def test_linear_multiplicative_closed_forms(self):
        fam = LinearMultiplicativeNoise(0.25)
        assert fam.hs_norm_sq(self.u, 0.0) == pytest.approx(
            0.25**2 * sobolev_norm(self.u, 0.0) ** 2, rel=1e-14
        )
        assert fam.hs_norm_sq(self.u, 1.0) == pytest.approx(
            0.25**2 * sobolev_norm(self.u, 1.0) ** 2, rel=1e-14
        )

    def test_additive_independent_of_state_and_sums_modes(self):
        fam = AdditiveNoise(((0, 0, 1), (1, 1, 0), (1, 2, 2)), (0.3, 0.2, 0.1), 4)
        # direct summation oracle: sum_j sigma_j^2 |k_j|^{2s} (unit-norm f_j)
        for s in (0.0, 1.0):
            expected = sum(
                sig**2 * float(sum(c * c for c in k)) ** s
                for k, sig in zip(fam.modes, fam.sigmas)
            )
            assert fam.hs_norm_sq(self.u, s) == pytest.approx(expected, rel=1e-14)
            assert fam.hs_norm_sq(SpectralField.zero(4), s) == pytest.approx(expected, rel=1e-14)

    def test_diagonal_bounded_by_max_amplitude(self):
        fam = DiagonalSpectralNoise(((0, 0, 1), (1, 1, 0)), (0.5, 0.2), 4)
        value = fam.hs_norm_sq(self.u, 0.0)
        assert value <= max(fam.sigmas) ** 2 * sobolev_norm(self.u, 0.0) ** 2 * (1 + 1e-12)

    @pytest.mark.parametrize("family", [AdditiveNoise, DiagonalSpectralNoise])
    def test_state_of_another_truncation_rejected(self, family):
        # a family built for n = 2 would read an n = 4 state's rows as its
        # modes' rows; hs_norm_sq rejects the state as apply does
        fam = family(((1, 0, 0), (0, 1, 1)), (0.5, 0.2), 2)
        message = "state truncation n=4 does not match noise n=2"
        with pytest.raises(ValueError, match=message):
            fam.apply(self.u, np.ones(fam.dim))
        for s in (0.0, 1.0):
            with pytest.raises(ValueError, match=message):
                fam.hs_norm_sq(self.u, s)

    def test_hs_identity_via_driver_sum(self):
        # oracle: sum_j ||g(u) e_j||_s^2 evaluated one driver at a time
        # through apply, which shares nothing with the families' formulas
        modes, sigmas = ((0, 0, 1), (1, 1, 0), (2, 1, 0)), (0.5, 0.2, 0.4)
        for fam in (
            AdditiveNoise(modes, sigmas, 4),
            LinearMultiplicativeNoise(0.3),
            DiagonalSpectralNoise(modes, sigmas, 4),
        ):
            for s in (0.0, 1.0):
                total = sum(sobolev_norm(fam.apply(self.u, e), s) ** 2 for e in np.eye(fam.dim))
                assert fam.hs_norm_sq(self.u, s) == pytest.approx(total, rel=1e-12), (fam.kind, s)

    @pytest.mark.parametrize(
        "family", [LinearMultiplicativeNoise(0.3), DiagonalSpectralNoise(*decay_modes(4, 12, 0.5, 1.0), 4)]
    )
    def test_ledger_norms_of_a_window_block_equal_its_steps(self, family):
        # the integrator's ledger hands a family a (K, W, M, 3) block of
        # states with their ||u||_0, ||u||_1 (K, W, 2); each step's column
        # equals the family's call on that step's (K, M, 3) states, and each
        # state's value hs_norm_sq(u, s)
        block = np.stack([[random_field(self.ctx, seed=10 * k + w).coeffs for w in range(4)] for k in range(3)])
        norms = np.stack([[[sobolev_norm(SpectralField(4, c), s) for s in (0.0, 1.0)] for c in row] for row in block])
        hs = family._hs_norms_sq(block, (0.0, 1.0), norms)
        assert hs.shape == (3, 4, 2)
        for w in range(4):
            alone = family._hs_norms_sq(np.ascontiguousarray(block[:, w]), (0.0, 1.0), norms[:, w])
            assert hs[:, w].tobytes() == alone.tobytes()
        for s, value in zip((0.0, 1.0), np.moveaxis(hs, -1, 0)):
            assert value[2, 3] == family.hs_norm_sq(SpectralField(4, block[2, 3]), s)

    @pytest.mark.parametrize("driver_dim", [0, -1])
    def test_decay_law_needs_a_driver(self, driver_dim):
        with pytest.raises(ValueError, match=f"driver_dim must be >= 1, got {driver_dim}"):
            decay_modes(2, driver_dim, sigma=0.5, gamma=1.0)

    def test_decay_law_modes(self):
        modes, sigmas = decay_modes(4, 5, sigma=0.5, gamma=2.0)
        assert len(modes) == 5
        norms = [sum(c * c for c in k) for k in modes]
        assert norms == sorted(norms)
        for k, s in zip(modes, sigmas):
            assert s == pytest.approx(0.5 * float(sum(c * c for c in k)) ** (-1.0), rel=1e-14)


class TestAudit:
    def setup_method(self):
        self.ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)

    def test_linear_multiplicative_envelopes(self):
        fam = LinearMultiplicativeNoise(0.3)
        audit = audit_hypotheses(fam, self.ctx, samples=4, seed=1)
        assert audit.max_growth_l2 <= 0.3**2 * (1 + 1e-12)
        assert audit.max_lipschitz == pytest.approx(0.3, rel=1e-10)
        assert not audit.flagged

    def test_additive_lipschitz_zero(self):
        fam = AdditiveNoise(((0, 0, 1), (1, 1, 0)), (0.4, 0.2), 4)
        audit = audit_hypotheses(fam, self.ctx, samples=4, seed=2)
        assert audit.max_lipschitz == 0.0
        assert not audit.flagged

    def test_diagonal_growth_bounded_by_max_sigma_sq(self):
        fam = DiagonalSpectralNoise(((0, 0, 1), (1, 1, 0)), (0.5, 0.2), 4)
        audit = audit_hypotheses(fam, self.ctx, samples=4, seed=3)
        assert audit.max_growth_l2 <= 0.5**2 * (1 + 1e-12)
        assert not audit.flagged

    def test_unbounded_family_is_flagged(self):
        class QuadraticNoise(LinearMultiplicativeNoise):
            def apply(self, u, dw):
                scaled = sobolev_norm(u, 0.0) * self.sigma * dw[0]
                return SpectralField(u.n, scaled * u.coeffs)

            def hs_norm_sq(self, u, s=0.0):
                return (self.sigma * sobolev_norm(u, 0.0)) ** 2 * sobolev_norm(u, s) ** 2

        audit = audit_hypotheses(QuadraticNoise(0.3), self.ctx, samples=4, seed=4)
        assert audit.flagged

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="samples"):
            audit_hypotheses(LinearMultiplicativeNoise(0.1), self.ctx, samples=1)

    @pytest.mark.parametrize("scales", [(), (1.0,)])
    def test_scale_count_validated(self, scales):
        # the verdict compares the envelopes at the two largest scales
        with pytest.raises(ValueError, match="at least 2 norm scales"):
            audit_hypotheses(LinearMultiplicativeNoise(0.1), self.ctx, samples=2, scales=scales)

    @pytest.mark.parametrize(
        "scales",
        [(100.0, 10.0, 1.0, 0.1), (0.1, 1.0, 1.0, 10.0), (1.0, 1.0)],
        ids=["descending", "repeated", "equal-pair"],
    )
    def test_scales_must_increase(self, scales):
        # descending, the verdict would compare the two smallest scales and
        # miss an unbounded family; a repeated scale compares one with itself
        with pytest.raises(ValueError, match="norm scales must increase"):
            audit_hypotheses(LinearMultiplicativeNoise(0.1), self.ctx, samples=2, scales=scales)

    def test_render_mentions_family(self):
        fam = LinearMultiplicativeNoise(0.3)
        text = audit_hypotheses(fam, self.ctx, samples=2, seed=5).render()
        assert "linear-multiplicative" in text and "verdict" in text
