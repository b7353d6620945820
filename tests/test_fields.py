"""Spectral core: transforms, projection, diagonal multipliers, norms."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leray_alpha import (
    ModelContext,
    SpectralField,
    from_grid,
    fractional_laplacian,
    helmholtz_filter,
    inner_product,
    leray_project,
    lp_norm,
    random_field,
    sobolev_norm,
    to_grid,
)
from leray_alpha.fields import canonical_mode, energies, inner_products, lattice, next_fft_size, scalar_squares

from oracles import brute_sobolev_norm, reconstruct_complex_grid

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def mode_field(n, k, vec):
    coeffs = np.zeros((lattice(n).size, 3), dtype=complex)
    coeffs[lattice(n).index_of(k)] = vec
    return SpectralField(n, coeffs)


class TestLattice:
    def test_half_lattice_size(self):
        for n in (1, 2, 3, 5):
            assert lattice(n).size == ((2 * n + 1) ** 3 - 1) // 2

    def test_canonical_representatives_exclude_conjugates(self):
        lat = lattice(3)
        seen = set(map(tuple, lat.wavevectors))
        assert (0, 0, 0) not in seen
        for k in seen:
            assert (-k[0], -k[1], -k[2]) not in seen

    def test_lexicographic_order(self):
        lat = lattice(2)
        rows = [tuple(r) for r in lat.wavevectors]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_index_of_finds_every_mode(self, n):
        lat = lattice(n)
        rows = [lat.index_of(tuple(int(c) for c in k)) for k in lat.wavevectors]
        assert rows == list(range(lat.size))

    @pytest.mark.parametrize("k", [(0, 0, 0), (-1, 0, 0), (0, 2, -1), (1, -2, 0), (3, 0, 1), (0, 0, 3), (-4, 0, 0)])
    def test_index_of_rejects_non_lattice_modes(self, k):
        # the zero mode, a non-canonical -k, and k outside the n = 2 cube
        with pytest.raises(ValueError, match=r"is not a canonical mode of n=2"):
            lattice(2).index_of(k)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_canonical_mode_maps_both_members_onto_a_row(self, n):
        lat = lattice(n)
        side = range(-n, n + 1)
        for k in ((a, b, c) for a in side for b in side for c in side if (a, b, c) != (0, 0, 0)):
            row = lat.index_of(canonical_mode(k))
            assert row == lat.index_of(canonical_mode((-k[0], -k[1], -k[2])))
            assert tuple(lat.wavevectors[row]) in (k, (-k[0], -k[1], -k[2]))

    def test_mirror_rows_are_the_kz0_plane(self):
        lat = lattice(2)
        k = lat.row_wavevectors
        assert np.array_equal(k[: lat.size], lat.wavevectors)
        assert np.array_equal(k[lat.size :], -lat.wavevectors[lat.wavevectors[:, 2] == 0])

    def test_next_fft_size(self):
        assert next_fft_size(14) == 15
        assert next_fft_size(50) == 50
        assert next_fft_size(17) == 18

    def test_product_grid_covers_truncation(self):
        # 2/3 band of the product grid must contain the whole cube
        for n in (2, 4, 8, 16):
            lat = lattice(n)
            assert lat.product_ng // 3 >= n
            assert lat.product_ng >= 2 * n + 2


class TestTransforms:
    def test_single_mode_is_cosine(self):
        f = mode_field(2, (1, 0, 0), [0, 0.5, 0])
        ng = 8
        grid = to_grid(f, ng)
        x = 2 * np.pi * np.arange(ng) / ng
        expected = np.cos(x)[:, None, None] * np.ones((ng, ng, ng))
        assert np.allclose(grid[1], expected, atol=1e-14)
        assert np.max(np.abs(grid[0])) == 0
        assert np.max(np.abs(grid[2])) == 0

    def test_round_trip(self, ctx4):
        u = random_field(ctx4, seed=100)
        v = from_grid(to_grid(u), ctx4.n)
        assert np.max(np.abs(v.coeffs - u.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))

    def test_round_trip_large_grid(self, ctx4):
        u = random_field(ctx4, seed=101)
        v = from_grid(to_grid(u, 16), ctx4.n)
        assert np.max(np.abs(v.coeffs - u.coeffs)) <= 1e-12 * np.max(np.abs(u.coeffs))

    def test_zero_field(self):
        assert np.all(to_grid(SpectralField.zero(3)) == 0.0)

    def test_resolution_too_small_rejected(self, ctx4):
        u = random_field(ctx4, seed=102)
        with pytest.raises(ValueError, match="grid size"):
            to_grid(u, 2 * ctx4.n)  # needs >= 2n+1

    @given(seed=seeds)
    @settings(max_examples=15)
    def test_reality_of_reconstruction(self, seed):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        u = random_field(ctx, seed=seed)
        complex_grid = reconstruct_complex_grid(u, 9)
        scale = np.max(np.abs(complex_grid.real)) or 1.0
        assert np.max(np.abs(complex_grid.imag)) <= 1e-12 * scale
        assert np.allclose(complex_grid.real, to_grid(u, 9), atol=1e-12 * scale)


class TestLerayProjection:
    def test_removes_component_along_k(self):
        f = mode_field(2, (1, 0, 0), [1.0, 1.0, 0.0])
        p = leray_project(f)
        assert np.allclose(p.coeffs[lattice(2).index_of((1, 0, 0))], [0.0, 1.0, 0.0])

    def test_oblique_mode_hand_value(self):
        # u - (u.k) k / |k|^2 with u=(1,0,0), k=(1,1,0): dot=1, |k|^2=2
        f = mode_field(2, (1, 1, 0), [1.0, 0.0, 0.0])
        p = leray_project(f)
        assert np.allclose(p.coeffs[lattice(2).index_of((1, 1, 0))], [0.5, -0.5, 0.0])

    def test_divergence_free_input_unchanged(self, ctx4):
        u = random_field(ctx4, seed=103)
        v = leray_project(u)
        assert np.allclose(v.coeffs, u.coeffs, rtol=0, atol=1e-14 * np.max(np.abs(u.coeffs)))

    @pytest.mark.parametrize("n", [2, 5])
    def test_rows_projected_in_parts_equal_one_projection(self, n):
        # the product-grid kernel projects each thread's lattice rows alone;
        # exact zeros of either sign show any change in a row's arithmetic
        lat = lattice(n)
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((lat.size, 3)) + 1j * rng.standard_normal((lat.size, 3))
        raw[rng.random(lat.size) < 0.5] = 0.0
        raw[rng.random((lat.size, 3)) < 0.2] = -0.0
        raw[lat.index_of((0, 0, 1))] = [1.0, -0.0, 0.0]  # a single-mode row
        whole = raw.copy()
        lat.project(whole)
        for cut in (1, lat.size // 3, lat.size - 1):
            parts = raw.copy()
            lat.project(parts, slice(cut, None))
            lat.project(parts, slice(0, cut))
            assert parts.tobytes() == whole.tobytes()

    @given(seed=seeds)
    @settings(max_examples=20)
    def test_idempotent_and_divergence_free(self, seed):
        lat = lattice(3)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((lat.size, 3)) + 1j * rng.standard_normal((lat.size, 3))
        f = SpectralField(3, raw)
        once = leray_project(f)
        twice = leray_project(once)
        scale = np.linalg.norm(once.coeffs, axis=1) * np.sqrt(lat.k_sq) + 1e-300
        assert np.all(
            np.abs(np.einsum("ij,ij->i", once.coeffs, lat.kfloat)) <= 1e-14 * scale
        )
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-14 * np.max(np.abs(once.coeffs))


class TestFractionalLaplacian:
    def test_identity_at_zero_order(self, ctx4):
        u = random_field(ctx4, seed=104)
        assert np.array_equal(fractional_laplacian(u, 0.0).coeffs, u.coeffs)

    def test_integer_multiplier(self):
        f = mode_field(3, (1, 2, 2), [0.5, 0.0, -0.25])
        out = fractional_laplacian(f, 1.0)
        assert np.allclose(out.coeffs, 3.0 * f.coeffs, rtol=1e-15)

    def test_fractional_multiplier_high_precision(self):
        f = mode_field(3, (1, 2, 2), [0.0, 1.0, 0.0])
        out = fractional_laplacian(f, 2.5)
        expected = float(mpmath.mpf(9) ** mpmath.mpf("1.25"))
        row = lattice(3).index_of((1, 2, 2))
        assert out.coeffs[row][1].real == pytest.approx(expected, rel=1e-13)

    def test_negative_order_allowed(self, ctx4):
        u = random_field(ctx4, seed=105)
        v = fractional_laplacian(fractional_laplacian(u, -1.5), 1.5)
        assert np.allclose(v.coeffs, u.coeffs, rtol=1e-12)

    @given(seed=seeds, s1=st.floats(-2, 3), s2=st.floats(-2, 3))
    @settings(max_examples=25)
    def test_semigroup(self, seed, s1, s2):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        u = random_field(ctx, seed=seed)
        a = fractional_laplacian(fractional_laplacian(u, s1), s2)
        b = fractional_laplacian(u, s1 + s2)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(np.abs(b.coeffs))

    def test_preserves_divergence_free(self, ctx4):
        u = random_field(ctx4, seed=106)
        assert fractional_laplacian(u, 1.7).divergence_defect() <= 1e-12


class TestHelmholtzFilter:
    def test_integer_example(self):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        f = mode_field(3, (1, 2, 2), [0.0, 3.0, 0.0])
        out = helmholtz_filter(f, ctx)
        # 1 / (1 + |k|^2) = 1/10
        assert np.allclose(out.coeffs, 0.1 * f.coeffs, rtol=1e-15)

    def test_zero_order_is_half(self, ctx4):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=0.0, theta2=1.0, n=4)
        u = random_field(ctx, seed=107)
        assert np.allclose(helmholtz_filter(u, ctx).coeffs, 0.5 * u.coeffs, rtol=1e-15)

    def test_fractional_example(self):
        ctx = ModelContext(nu=1.0, alpha=0.5, theta1=1.25, theta2=1.0, n=3)
        f = mode_field(3, (1, 2, 2), [1.0, 0.0, 0.0])
        expected = float(1 / (1 + mpmath.mpf(2) ** mpmath.mpf("-2.5") * mpmath.mpf(9) ** mpmath.mpf("1.25")))
        row = lattice(3).index_of((1, 2, 2))
        assert helmholtz_filter(f, ctx).coeffs[row][0].real == pytest.approx(expected, rel=1e-13)

    def test_multiplier_in_unit_interval(self):
        for theta1 in (0.0, 0.25, 1.0, 1.5):
            ctx = ModelContext(nu=1.0, alpha=0.7, theta1=theta1, theta2=1.0, n=5)
            g = ctx.filter_multiplier
            assert np.all(g > 0) and np.all(g <= 1.0)

    @given(seed=seeds, theta1=st.sampled_from([0.0, 0.25, 1.0, 1.5]), s=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=20)
    def test_smoothing_bound_explicit_constant(self, seed, theta1, s):
        ctx = ModelContext(nu=1.0, alpha=0.8, theta1=theta1, theta2=1.0, n=4)
        u = random_field(ctx, seed=seed)
        gu = helmholtz_filter(u, ctx)
        gain = ctx.alpha ** (-2.0 * ctx.theta1)
        assert sobolev_norm(gu, s + 2 * ctx.theta1) <= gain * sobolev_norm(u, s) * (1 + 1e-12)

    def test_general_beta_gain(self):
        ctx = ModelContext(nu=1.0, alpha=0.8, theta1=1.0, theta2=1.0, n=4)
        u = random_field(ctx, seed=108)
        for beta in (0.0, 0.5, 1.0, 2.0):
            # sup_k |k|^beta / (1 + alpha^{2 theta1} |k|^{2 theta1}), the smoother's H^0 -> H^beta norm
            gain = float(np.max(lattice(4).power(beta) * ctx.filter_multiplier))
            assert sobolev_norm(helmholtz_filter(u, ctx), beta) <= gain * sobolev_norm(u, 0.0) * (
                1 + 1e-12
            )

    @given(seed=seeds)
    @settings(max_examples=15)
    def test_diagonal_operators_commute(self, seed):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=0.75, theta2=1.0, n=3)
        lat = lattice(3)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((lat.size, 3)) + 1j * rng.standard_normal((lat.size, 3))
        f = SpectralField(3, raw)
        pairs = [
            (lambda x: helmholtz_filter(x, ctx), lambda x: fractional_laplacian(x, 1.3)),
            (lambda x: helmholtz_filter(x, ctx), leray_project),
            (lambda x: fractional_laplacian(x, 1.3), leray_project),
        ]
        for op1, op2 in pairs:
            a = op1(op2(f))
            b = op2(op1(f))
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * (np.max(np.abs(a.coeffs)) + 1e-300)


class TestNorms:
    def test_single_mode_counts_both_halves(self):
        f = mode_field(2, (1, 0, 0), [0.0, 0.3, 0.0])
        assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(2 * 0.3**2), rel=1e-15)
        assert sobolev_norm(f, 2.0) == pytest.approx(math.sqrt(2 * 0.3**2), rel=1e-15)

    def test_against_brute_force_lattice_sum(self, ctx4):
        u = random_field(ctx4, seed=109)
        for s in (0.0, 0.7, 1.0, 2.25):
            assert sobolev_norm(u, s) == pytest.approx(brute_sobolev_norm(u, s), rel=1e-12)

    @given(seed=seeds, s=st.floats(-1, 2.5))
    @settings(max_examples=20)
    def test_norm_identity(self, seed, s):
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        u = random_field(ctx, seed=seed)
        assert sobolev_norm(u, s) == pytest.approx(
            sobolev_norm(fractional_laplacian(u, s), 0.0), rel=1e-12
        )

    @given(seed=seeds, pair=st.sampled_from([(0.5, 1.0), (1.0, 1.25), (1.25, 2.25)]))
    @settings(max_examples=20)
    def test_interpolation_inequality(self, seed, pair):
        delta, theta = pair
        ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)
        u = random_field(ctx, seed=seed)
        lhs = sobolev_norm(u, delta)
        rhs = sobolev_norm(u, 0.0) ** (1 - delta / theta) * sobolev_norm(u, theta) ** (delta / theta)
        assert lhs <= rhs * (1 + 1e-12)

    def test_inner_product_polarisation(self, ctx4):
        u = random_field(ctx4, seed=110)
        v = random_field(ctx4, seed=111)
        lhs = inner_product(u, v, 0.0)
        rhs = 0.25 * (sobolev_norm(u + v, 0.0) ** 2 - sobolev_norm(u - v, 0.0) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_block_inner_products_equal_one_pair_at_a_time(self, ctx4):
        a = np.stack([random_field(ctx4, seed=s).coeffs for s in (1, 2, 3)])
        b = np.stack([random_field(ctx4, seed=s).coeffs for s in (4, 5, 6)])
        weights = [lattice(4).power(0.0), lattice(4).power(2.0)]
        block = inner_products(a, b, weights)
        for k in range(3):
            for w, s in enumerate((0.0, 1.0)):
                one = inner_product(SpectralField(4, a[k]), SpectralField(4, b[k]), s)
                assert block[k, w].tobytes() == np.float64(one).tobytes()

    def test_block_energies_equal_one_state_at_a_time(self, ctx4):
        block = np.stack([random_field(ctx4, seed=s).coeffs for s in (1, 2, 3)])
        weights = [ctx4.lattice.power(2.0 * s) for s in (0.0, 1.0, 0.5)]
        e = energies(block, weights)
        assert e.shape == (3, 3)
        for k, coeffs in enumerate(block):
            for w, s in enumerate((0.0, 1.0, 0.5)):
                assert math.sqrt(e[k, w]) == sobolev_norm(SpectralField(4, coeffs), s)

    def test_fancy_indexed_block_energies_equal_one_state_at_a_time(self, ctx4):
        # block[:, rows] is not C-ordered, yet each state's rows must be summed
        # as when it is alone: a diagonal-spectral ledger reads such a block
        block = np.stack([random_field(ctx4, seed=s).coeffs for s in (1, 2, 3)])
        rows = np.arange(40, 0, -3)  # 14 rows, past numpy's 8-way unrolled sum
        weights = [ctx4.lattice.power(2.0 * s)[rows] for s in (0.0, 1.0)]
        e = energies(block[:, rows], weights)
        for k in range(3):
            assert e[k].tobytes() == energies(block[k, rows], weights).tobytes()

    def test_scalar_squares_use_the_scalar_power(self):
        # x ** 2 of a Python or numpy scalar calls the C library's pow, which
        # can differ in the last bit from the array square x * x
        values = np.random.default_rng(7).random(10_000) * 10.0 ** np.arange(-5, 5).repeat(1_000)
        assert scalar_squares(values).tobytes() == np.array([float(x) ** 2 for x in values]).tobytes()


class TestLpNorms:
    def test_parseval_consistency_for_cosine(self):
        f = mode_field(2, (1, 0, 0), [0.0, 0.5, 0.0])
        # normalised measure: ||(0, cos x1, 0)||_{L^2} = 1/sqrt(2) = ||.||_0
        assert lp_norm(f, 2) == pytest.approx(sobolev_norm(f, 0.0), rel=1e-12)
        assert lp_norm(f, 2) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_zero_field_all_p(self):
        z = SpectralField.zero(2)
        for p in (1, 2, 6, math.inf):
            assert lp_norm(z, p) == 0.0

    def test_p2_matches_spectral_norm_random(self, ctx4):
        u = random_field(ctx4, seed=112)
        assert lp_norm(u, 2) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-10)

    def test_invalid_p_rejected(self, ctx4):
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(random_field(ctx4, seed=113), 0.5)

    def test_embedding_ratio_bounded_and_stable(self):
        # H^1 -> L^6 embedding: empirical ratio finite, stable in truncation
        maxima = {}
        for n in (4, 8):
            ctx = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=n)
            ratios = []
            for seed in range(100):
                u = random_field(ctx, seed=seed, spectrum_slope=1.5)
                ratios.append(lp_norm(u, 6) / sobolev_norm(u, 1.0))
            maxima[n] = max(ratios)
            assert math.isfinite(maxima[n])
        assert maxima[8] <= 2.0 * maxima[4]


class TestRandomField:
    def test_deterministic_in_seed(self, ctx4):
        a = random_field(ctx4, seed=7)
        b = random_field(ctx4, seed=7)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_projection_invariant(self, ctx4):
        u = random_field(ctx4, seed=8)
        v = leray_project(u)
        assert np.allclose(v.coeffs, u.coeffs, rtol=0, atol=1e-12 * np.max(np.abs(u.coeffs)))

    def test_slope_controls_roughness(self, ctx4):
        ratios = []
        for slope in (1.0, 2.0, 3.0):
            u = random_field(ctx4, seed=9, spectrum_slope=slope)
            # cross-check the generator with the independent lattice sum
            ratios.append(brute_sobolev_norm(u, 2.0) / brute_sobolev_norm(u, 0.0))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_amplitude_sets_l2_norm(self, ctx4):
        u = random_field(ctx4, seed=10, amplitude=2.5)
        assert sobolev_norm(u, 0.0) == pytest.approx(2.5, rel=1e-12)


class TestValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(2, np.zeros((5, 3), dtype=complex))

    def test_non_finite_rejected(self):
        coeffs = np.zeros((lattice(2).size, 3), dtype=complex)
        coeffs[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SpectralField(2, coeffs)

    def test_truncation_mismatch_rejected(self, ctx4):
        u = random_field(ctx4, seed=11)
        ctx3 = ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=3)
        v = random_field(ctx3, seed=11)
        with pytest.raises(ValueError, match="truncation mismatch"):
            _ = u + v

    def test_immutability(self, ctx4):
        u = random_field(ctx4, seed=12)
        with pytest.raises(ValueError):
            u.coeffs[0] = 0.0

    def test_context_validation(self):
        with pytest.raises(ValueError, match="theta2"):
            ModelContext(nu=1.0, alpha=1.0, theta1=1.0, theta2=0.0, n=4)
        with pytest.raises(ValueError, match="nu"):
            ModelContext(nu=-1.0, alpha=1.0, theta1=1.0, theta2=1.0, n=4)

    def test_dealias_band_covers_truncation(self):
        # the 2/3-rule band |k_i| <= ng // 3 of the product grid keeps the
        # whole truncation cube |k_i| <= n, so products are alias-free
        for n in range(1, 41):
            assert lattice(n).product_ng // 3 >= n
