import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from widthlab import (
    CapExceeded,
    DimensionMismatch,
    DkDistribution,
    NotUnitNorm,
    OutOfSupport,
    ParameterOutOfRange,
    RidgeProfile,
    TrigPolynomial,
    UNIFORM_CUBE,
    UnsupportedCombination,
    WeightNotInSupport,
    count_ball,
    enumerate_ball,
    eval_T,
    fit_span,
    h_weight,
    hard_family_ball,
    mixture_expectation,
    phi_K,
    projection_residuals,
    psi,
    psi_K,
    ray_members,
    ridge_profile_of_index,
    sample_average_network,
    tensor_gauss_grid,
    unit_direction,
    width_bound,
)
from widthlab import relu
from widthlab.relu import _design_matrix
from widthlab.quadrature import l2_error

from oracles import CustomDistribution, dk_expectation, mixture_quad

SQRT2 = math.sqrt(2.0)


class TestPsi:
    """Piecewise mixture density for a generic ridge profile."""

    @pytest.mark.parametrize("curvature", [lambda z: np.zeros_like(z), lambda z: 0.0],
                             ids=["array", "constant"])
    def test_linear_profile_pieces(self, curvature):
        """phi(z) = z in d = 1: pieces are -20, 28, 0, 0; a constant curvature
        broadcasts over the core."""
        profile = RidgeProfile(-1.0, 1.0, curvature)
        assert_allclose(psi(profile, 1, -1.8), -20.0, rtol=1e-14)
        assert_allclose(psi(profile, 1, -1.2), 28.0, rtol=1e-14)
        assert psi(profile, 1, 0.5) == 0.0
        assert psi(profile, 1, 1.5) == 0.0
        vals = psi(profile, 1, np.array([-1.8, -1.2, -0.3, 0.0, 0.5, 1.5]))
        assert vals.tolist() == [psi(profile, 1, v) for v in (-1.8, -1.2, -0.3, 0.0, 0.5, 1.5)]

    def test_piece_boundaries_half_open(self):
        """Intervals close on the right of -1.5 sqrt(d) and -sqrt(d)."""
        profile = RidgeProfile(-1.0, 1.0, lambda z: np.full_like(z, 9.0))
        assert_allclose(psi(profile, 1, -1.5), 28.0, rtol=1e-14)
        assert_allclose(psi(profile, 1, -1.0), 36.0, rtol=1e-14)  # 4 sqrt(d) * 9

    def test_out_of_support(self):
        profile = RidgeProfile(0.0, 0.0, lambda z: np.zeros_like(z))
        with pytest.raises(OutOfSupport):
            psi(profile, 1, 2.5)
        with pytest.raises(OutOfSupport):
            psi(profile, 4, -4.1)

    def test_vector_bias(self):
        profile = RidgeProfile(-1.0, 1.0, lambda z: np.zeros_like(z))
        vals = psi(profile, 1, np.array([-1.8, -1.2, 0.0, 1.5]))
        assert_allclose(vals, [-20.0, 28.0, 0.0, 0.0], rtol=1e-14)

    def test_reconstructs_generic_profile(self):
        """(1/(4 sqrt(d))) int psi(b) relu(z - b) db = phi(z) on [-sqrt(d), sqrt(d)].

        Checked for phi(z) = sin(1.3 z) with adaptive quadrature as the
        integrator, so the identity is exercised end to end.
        """
        omega = 1.3
        profile = RidgeProfile(
            math.sin(-omega), omega * math.cos(-omega),
            lambda z: -omega**2 * np.sin(omega * np.asarray(z, dtype=float)),
        )
        for z in np.linspace(-1.0, 1.0, 9):
            got = mixture_quad(lambda b: psi(profile, 1, float(b)), 1, float(z))
            assert_allclose(got, math.sin(omega * z), atol=1e-9)


class TestRidgeProfiles:
    """Closed-form profiles of the trig basis along their own directions."""

    def test_zero_index(self):
        p = ridge_profile_of_index((0, 0), 0.5, 2)
        assert p.value_left == 1.0
        assert p.slope_left == 0.0
        assert_allclose(p.curvature(np.array([0.3])), [0.0])

    def test_sin_index_values(self):
        """Profile of T_(1,) at rho = 1 in d = 1: sqrt(2) sin(pi z)."""
        p = ridge_profile_of_index((1,), 1.0, 1)
        assert_allclose(p.value_left, SQRT2 * math.sin(-math.pi), atol=1e-14)
        assert_allclose(p.slope_left, SQRT2 * math.pi * math.cos(-math.pi), rtol=1e-14)
        assert_allclose(p.curvature(0.25), -SQRT2 * math.pi**2 * math.sin(math.pi / 4),
                        rtol=1e-14)

    def test_ridge_identity(self):
        """T_K(rho x) = phi_K(<K/|K|, x>) at random cube points."""
        rng = np.random.default_rng(42)
        for K in [(1, 0), (-2, 1), (1, 1), (0, -3)]:
            w = unit_direction(K, 2)
            X = rng.uniform(-1, 1, size=(25, 2))
            assert_allclose(phi_K(K, 0.5, X @ w), np.asarray(eval_T(K, 0.5 * X)),
                            atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ParameterOutOfRange):
            ridge_profile_of_index((1,), 0.0, 1)


_LEGENDRE_64 = np.polynomial.legendre.leggauss(64)


def _mixture_piece_by_piece(K, rho, d, z: float) -> float:
    """The mixture at one ``z``, one 64-node Gauss-Legendre piece and one
    ``psi_K`` call at a time, the pieces added in cut order."""
    root = math.sqrt(d)
    top = min(z, 2.0 * root)
    cuts = sorted(c for c in {-2.0 * root, -1.5 * root, -root, root, top} if c <= top)
    t, u = _LEGENDRE_64
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        b = mid + half * t
        total += float(half * np.sum(u * (psi_K(K, rho, d, b) * (z - b))))
    return total / (4.0 * root)


class TestPsiK:
    """Densities for basis ridges and their magnitude envelope."""

    def test_zero_index_pieces(self):
        assert_allclose(psi_K((0,), 1.0, 1, -1.8), 16.0, rtol=1e-14)
        assert_allclose(psi_K((0,), 1.0, 1, -1.2), -16.0, rtol=1e-14)
        assert psi_K((0,), 1.0, 1, 0.0) == 0.0

    def test_magnitude_envelope(self):
        """|psi_K(b)| <= 60 sqrt(d) (||K||^2 + 1) for rho <= 1."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            K = tuple(int(v) for v in rng.integers(-3, 4, size=d))
            rho = float(rng.uniform(0.1, 1.0))
            b = rng.uniform(-2 * math.sqrt(d), 2 * math.sqrt(d), size=20)
            bound = 60.0 * math.sqrt(d) * (sum(c * c for c in K) + 1.0)
            assert np.max(np.abs(psi_K(K, rho, d, b))) <= bound

    def test_mixture_reconstructs_basis_ridge(self):
        """E_b[psi_K(b) relu(z - b)] = phi_K(z) for z in the inner interval."""
        for K, d in [((1,), 1), ((-2,), 1), ((1, 1), 2), ((-1, 2), 2)]:
            root = math.sqrt(d)
            for z in np.linspace(-root, root, 7):
                got = mixture_expectation(K, 0.5, d, float(z))
                assert_allclose(got, phi_K(K, 0.5, float(z)), atol=1e-12)

    def test_mixture_matches_adaptive_quadrature(self):
        """Piecewise Gauss rule agrees with scipy's adaptive integrator."""
        for K, d, z in [((2,), 1, 0.4), ((1, -1), 2, -0.9), ((0, 0), 2, 1.0)]:
            got = mixture_expectation(K, 1.0, d, z)
            ref = mixture_quad(lambda b: psi_K(K, 1.0, d, float(b)), d, z)
            assert_allclose(got, ref, atol=1e-10)

    def test_scalar_path_matches_vector_path(self):
        """A scalar bias takes its own path; it agrees with the array path to 1e-15."""
        for d in (1, 2, 3):
            root = math.sqrt(d)
            b = np.concatenate([np.linspace(-2.0 * root, 2.0 * root, 41),
                                [-1.5 * root, -root, root]])
            for K in enumerate_ball(2, d):
                for rho in (0.5, 1.0):
                    vector = psi_K(K, rho, d, b)
                    scalar = [psi_K(K, rho, d, float(v)) for v in b]
                    assert all(isinstance(v, float) for v in scalar)
                    assert_allclose(scalar, vector, rtol=1e-15, atol=0.0)
        with pytest.raises(OutOfSupport):
            psi_K((1,), 1.0, 1, 2.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixture_over_an_array_has_the_bits_of_scalar_calls(self, d):
        """Every piece of every z in one psi_K call, each row summed alone and
        the pieces added in cut order: the bits of one call per z, signed
        zeros included.  The z run past both ends of the support."""
        root = math.sqrt(d)
        ends = [-3.0 * root, -2.0 * root, -1.5 * root, -root, root, 2.0 * root, 3.0 * root]
        for z_count in (2, 9, 41):
            zs = np.concatenate([np.linspace(-root, root, z_count), ends])
            for K in enumerate_ball(2, d):
                for rho in (0.5, 1.0):
                    got = mixture_expectation(K, rho, d, zs)
                    want = np.array([_mixture_piece_by_piece(K, rho, d, float(z)) for z in zs])
                    assert got.shape == zs.shape
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (K, rho)
                    assert mixture_expectation(K, rho, d, float(zs[0])) == want[0]

    def test_mixture_of_one_z_is_a_float(self):
        assert isinstance(mixture_expectation((1, 0), 0.5, 2, 0.3), float)
        assert mixture_expectation((1,), 0.5, 1, -5.0) == 0.0

    def test_mixture_expectation_reuses_its_gauss_rule(self, monkeypatch):
        before = mixture_expectation((1, 0), 0.5, 2, 0.3)

        def rebuilt(order):
            raise AssertionError("the Gauss-Legendre rule was rebuilt")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
        assert mixture_expectation((1, 0), 0.5, 2, 0.3) == before


class TestFeatureAlgebra:
    """Feature arrays where they enter, and direction helpers."""

    @staticmethod
    def _entry_points(W, b, grid):
        """Every way a ``(W, b)`` pair enters the package, at dimension 2."""
        rows = iter(W)
        dist = CustomDistribution(2, lambda rng: 0.0, lambda rng: next(rows))
        return {
            "fit_span": lambda: fit_span(W, b, lambda X: X[:, 0], grid),
            "projection_residuals": lambda: projection_residuals(W, b, hard_family_ball(1, 2),
                                                                 grid),
            "CustomDistribution": lambda: dist.sample_batch(np.random.default_rng(0), len(b)),
        }

    @pytest.mark.parametrize("entry", ["fit_span", "projection_residuals", "CustomDistribution"])
    def test_unit_norm_enforced(self, entry, cube_grid_2d):
        W = np.array([[1.0, 0.0], [0.6, 0.8 + 1e-11]])
        with pytest.raises(NotUnitNorm, match="1.0000000000"):
            self._entry_points(W, np.zeros(2), cube_grid_2d)[entry]()
        self._entry_points(W[:1], np.zeros(1), cube_grid_2d)[entry]()

    @pytest.mark.parametrize("entry", ["fit_span", "projection_residuals", "CustomDistribution"])
    def test_weight_dimension_enforced(self, entry, cube_grid_2d):
        """A 3-long unit weight at d = 2 is refused before any product is formed."""
        W = np.array([[1.0, 0.0, 0.0]] * 3)
        with pytest.raises(DimensionMismatch, match=r"\(3, 3\), expected \(3, 2\)"):
            self._entry_points(W, np.zeros(3), cube_grid_2d)[entry]()

    def test_one_weight_row_per_bias(self, cube_grid_2d):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        for entry in ("fit_span", "projection_residuals"):
            with pytest.raises(DimensionMismatch):
                self._entry_points(W, np.zeros(3), cube_grid_2d)[entry]()

    def test_unit_direction_values(self):
        assert_allclose(unit_direction((3, 4), 2), [0.6, 0.8])
        assert_allclose(unit_direction((0, 0, 0, 0), 4), np.full(4, 0.5))

    def test_unit_direction_dimension_check(self):
        with pytest.raises(ParameterOutOfRange):
            unit_direction((1, 0), 3)


class TestDkDistribution:
    """Index-uniform directions with uniform bias."""

    def test_k_zero_gives_diagonal(self):
        rng = np.random.default_rng(42)
        dist = DkDistribution(k=0, dimension=4)
        w, bias = dist.sample_feature(rng)
        assert_allclose(w, np.full(4, 0.5))
        assert -4.0 <= bias <= 4.0

    def test_bias_range(self):
        rng = np.random.default_rng(42)
        dist = DkDistribution(k=2, dimension=2)
        biases = dist.sample_batch(rng, 500)[1]
        root2 = 2.0 * math.sqrt(2.0)
        assert min(biases) >= -root2 and max(biases) <= root2
        assert min(biases) < -0.8 * root2 and max(biases) > 0.8 * root2

    def test_direction_frequencies(self):
        """Sampled directions follow the index-uniform ray weights."""
        rng = np.random.default_rng(42)
        d, k = 2, 2
        ball = enumerate_ball(k, d)
        dirs = {}
        for K in ball:
            key = tuple(np.round(unit_direction(K, d), 12))
            dirs[key] = dirs.get(key, 0) + 1
        dist = DkDistribution(k=k, dimension=d)
        n = 2600
        counts = dict.fromkeys(dirs, 0)
        for w in dist.sample_batch(rng, n)[0]:
            counts[tuple(np.round(w, 12))] += 1
        chi2 = sum(
            (counts[key] - n * m / len(ball)) ** 2 / (n * m / len(ball))
            for key, m in dirs.items()
        )
        assert chi2 <= stats.chi2.ppf(0.9999, df=len(dirs) - 1)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_directions_have_the_bits_of_unit_direction(self, d):
        for k in range(4):
            dist = DkDistribution(k=k, dimension=d)
            rows = np.array([unit_direction(K, d) for K in enumerate_ball(k, d)])
            assert np.array_equal(dist.directions.view(np.uint64), rows.view(np.uint64)), k

    def test_batch_is_sequential_draws_and_prefix_of_wider_batch(self):
        for k, d in [(2, 2), (2.5, 3), (0, 4)]:
            dist = DkDistribution(k=k, dimension=d)
            for K, row in zip(enumerate_ball(k, d), dist.directions):
                assert np.array_equal(row, unit_direction(K, d))
            for seed, t in [(7, 0), (7, 3), (123, 1)]:
                W_max, b_max = dist.sample_batch(np.random.default_rng([seed, t]), 50)
                for r in (1, 5, 50):
                    rng = np.random.default_rng([seed, t])
                    feats = [dist.sample_feature(rng) for _ in range(r)]
                    W, b = dist.sample_batch(np.random.default_rng([seed, t]), r)
                    assert np.array_equal(W, np.array([w for w, _ in feats]))
                    assert np.array_equal(b, np.array([bias for _, bias in feats]))
                    assert np.array_equal(W, W_max[:r]) and np.array_equal(b, b_max[:r])

    def test_custom_distribution_sampling(self):
        """Each feature draws its bias, then its weight, from the one generator."""
        unit = lambda v: v / np.linalg.norm(v)
        dist = CustomDistribution(
            dimension=3,
            bias_sampler=lambda r: r.uniform(-1, 1),
            weight_sampler=lambda r: unit(r.normal(size=3)),
        )
        W, b = dist.sample_batch(np.random.default_rng(42), 5)
        rng = np.random.default_rng(42)
        for w, bias in zip(W, b):
            assert bias == rng.uniform(-1, 1)
            assert np.array_equal(w, unit(rng.normal(size=3)))
        assert W.shape == (5, 3) and b.shape == (5,)
        W0, b0 = dist.sample_batch(np.random.default_rng(42), 0)
        assert W0.shape == (0, 3) and b0.shape == (0,)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            DkDistribution(k=-1, dimension=2)
        with pytest.raises(ParameterOutOfRange):
            DkDistribution(k=1, dimension=0)


def _scalar_draws(rng, Q, half, r):
    """The reference stream: one ``integers(Q)`` then one ``uniform`` per feature."""
    idx, b = [], []
    for _ in range(r):
        idx.append(int(rng.integers(Q)))
        b.append(float(rng.uniform(-half, half)))
    return np.array(idx, dtype=np.intp), np.array(b)


def _same_stream(draw, make_rng, Q, half, r):
    """``draw`` gives the reference's indices, biases and following draws, bit for bit."""
    mine, ref = make_rng(), make_rng()
    idx, b = draw(mine, r)
    ref_idx, ref_b = _scalar_draws(ref, Q, half, r)
    assert idx.dtype == np.intp and b.dtype == np.float64
    assert np.array_equal(idx, ref_idx) and np.array_equal(b, ref_b)
    after = [[int(g.integers(Q)), int(g.integers(2**20)), *g.random(3).tolist(),
              int(g.integers(2**40))] for g in (mine, ref)]
    assert after[0] == after[1]  # a buffered half-word goes first, then fresh words


class TestVectorDraw:
    """``relu._draw_features`` repeats the scalar draw loop bit for bit, fallbacks included."""

    @pytest.fixture
    def loop_widths(self, monkeypatch):
        widths = []
        loop = relu._draw_loop

        def spy(rng, Q, half, r):
            widths.append(r)
            return loop(rng, Q, half, r)

        monkeypatch.setattr(relu, "_draw_loop", spy)
        return widths

    @pytest.mark.parametrize("r", [1, 7, 8, 9, 64, 65, 4096])
    @pytest.mark.parametrize("k,d", [(0, 3), (2, 2), (6, 3)])
    def test_distribution_draw_is_the_scalar_stream(self, k, d, r, loop_widths):
        dist = DkDistribution(k=k, dimension=d)
        Q, half = count_ball(k, d), 2.0 * math.sqrt(d)
        for seed in (0, 17, 2**40 + 3):
            _same_stream(dist.sample_indices, lambda: np.random.default_rng([seed, r]), Q,
                         half, r)
        if Q >= 2 and r >= relu._VECTOR_FROM:
            assert set(loop_widths) <= {1}  # only an odd last feature ran the loop

    @pytest.mark.parametrize("Q", [2, 99991, 2**31 + 11, 2**32 - 1])
    @pytest.mark.parametrize("r", [8, 65])
    def test_large_and_small_ranges(self, Q, r):
        draw = lambda rng, n: relu._draw_features(rng, Q, 1.5, n)
        for seed in range(5):
            _same_stream(draw, lambda: np.random.default_rng(seed), Q, 1.5, r)

    def test_rejected_lemire_draw_restores_and_runs_the_loop(self, loop_widths):
        # Q = 3 * 2**30 rejects a quarter of all half-words, so 64 draws reject.
        Q = 3 * 2**30
        draw = lambda rng, n: relu._draw_features(rng, Q, 2.0, n)
        _same_stream(draw, lambda: np.random.default_rng(4), Q, 2.0, 64)
        assert loop_widths == [64]

    def test_other_generators_and_a_buffered_half_run_the_loop(self, loop_widths):
        draw = lambda rng, n: relu._draw_features(rng, 13, 2.0, n)
        _same_stream(draw, lambda: np.random.Generator(np.random.MT19937(5)), 13, 2.0, 64)

        def buffered():
            rng = np.random.default_rng(6)
            rng.integers(13)  # leaves the high half of a word buffered
            return rng

        _same_stream(draw, buffered, 13, 2.0, 64)
        assert loop_widths == [64, 64]


class TestRayMembers:
    """Lattice rays: ball indices sharing one direction."""

    def test_one_dimensional_rays(self):
        assert ray_members(np.array([1.0]), 1, 1) == [(0,), (1,)]
        assert ray_members(np.array([-1.0]), 1, 1) == [(-1,)]

    def test_axis_ray(self):
        assert ray_members(np.array([1.0, 0.0]), 2, 2) == [(1, 0), (2, 0)]

    def test_diagonal_ray_contains_zero(self):
        members = ray_members(np.full(2, 1.0 / SQRT2), 2, 2)
        assert members == [(0, 0), (1, 1)]

    def test_non_lattice_direction_empty(self):
        assert ray_members(np.array([0.6, 0.8]), 2, 2) == []

    def test_rays_partition_the_ball(self):
        """Every ball index lies in exactly one ray; sizes add up to Q."""
        for k, d in [(2, 2), (3, 2), (2, 3)]:
            ball = enumerate_ball(k, d)
            seen = {}
            for K in ball:
                key = tuple(np.round(unit_direction(K, d), 12))
                seen.setdefault(key, set())
            total = 0
            for key in seen:
                members = ray_members(np.asarray(key), k, d)
                assert len(members) == len(set(members))
                total += len(members)
                for K in members:
                    assert tuple(np.round(unit_direction(K, d), 12)) == key
            assert total == count_ball(k, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 2.5, 4])
    def test_compiled_rays_equal_ray_members(self, k, d):
        dist = DkDistribution(k=k, dimension=d)
        ray_of, rays = dist.rays
        assert sum(len(members) for members in rays) == count_ball(k, d)
        for K, w, ray in zip(enumerate_ball(k, d), dist.directions, ray_of):
            assert K in rays[ray]
            assert rays[ray] == ray_members(w, k, d)


class TestHWeight:
    """Importance weights h(b, w) and their defining expectation identity."""

    def test_single_term_closed_form(self):
        P = TrigPolynomial({(2, 0): 0.7})
        b = -0.9
        got = h_weight(b, np.array([1.0, 0.0]), P, 2, 2)
        expected = (13 / 2) * 0.7 * psi_K((2, 0), 1.0, 2, b)
        assert_allclose(got, expected, rtol=1e-13)

    def test_linear_in_polynomial(self):
        P1 = TrigPolynomial({(1, 0): 0.5})
        P2 = TrigPolynomial({(2, 0): -0.25})
        P12 = TrigPolynomial({(1, 0): 0.5, (2, 0): -0.25})
        w, b = np.array([1.0, 0.0]), 0.3
        assert_allclose(
            h_weight(b, w, P12, 2, 2),
            h_weight(b, w, P1, 2, 2) + h_weight(b, w, P2, 2, 2),
            rtol=1e-13,
        )

    def test_zero_polynomial(self):
        P = TrigPolynomial({}, dimension=2)
        assert h_weight(0.0, np.array([1.0, 0.0]), P, 2, 2) == 0.0

    def test_unsupported_direction(self):
        P = TrigPolynomial({(1, 0): 1.0})
        with pytest.raises(WeightNotInSupport):
            h_weight(0.0, np.array([0.6, 0.8]), P, 2, 2)

    def test_ball_past_the_cap_is_counted_not_built(self, monkeypatch):
        P = TrigPolynomial({(2, 0): 0.7})
        expected = h_weight(-0.9, np.array([1.0, 0.0]), P, 2, 2)
        monkeypatch.setenv("WIDTHLAB_CAP", "5")  # the radius-2 ball in d = 2 has 13 indices
        assert h_weight(-0.9, np.array([1.0, 0.0]), P, 2, 2) == expected

    def test_polynomial_outside_ball(self):
        P = TrigPolynomial({(3, 0): 1.0})
        with pytest.raises(ParameterOutOfRange):
            h_weight(0.0, np.array([1.0, 0.0]), P, 2, 2)

    def test_expectation_identity_1d(self):
        """E_{(b,w) ~ D_k}[h relu(<w,x> - b)] = P(x), with frozen digits.

        The expectation is computed semi-analytically: exhaustive over the
        three-member d = 1 ball and piecewise Gauss in the bias.
        """
        P = TrigPolynomial({(1,): 0.7})
        rays = [(np.array([1.0]), 2), (np.array([-1.0]), 1)]
        h = lambda b, w: h_weight(b, w, P, 1, 1)
        got = dk_expectation(h, rays, Q=3, d=1, x=np.array([0.3]))
        assert_allclose(got, 0.7 * float(eval_T((1,), np.array([0.3]))), atol=1e-9)
        assert_allclose(got, 0.8008859639, atol=1e-9)
        got_neg = dk_expectation(h, rays, Q=3, d=1, x=np.array([-0.8]))
        assert_allclose(got_neg, -0.5818777129, atol=1e-9)

    def test_expectation_identity_2d(self):
        """Same identity in d = 2 over the full radius-2 ball."""
        rng = np.random.default_rng(42)
        ball = enumerate_ball(2, 2)
        P = TrigPolynomial({K: rng.normal() * 0.3 for K in ball})
        rays = {}
        for K in ball:
            key = tuple(np.round(unit_direction(K, 2), 12))
            rays[key] = rays.get(key, 0) + 1
        ray_list = [(np.asarray(key), count) for key, count in rays.items()]
        h = lambda b, w: h_weight(b, w, P, 2, 2)
        for x in rng.uniform(-1, 1, size=(3, 2)):
            got = dk_expectation(h, ray_list, Q=13, d=2, x=x)
            assert_allclose(got, P(x), atol=1e-8)


class TestWidthBound:
    """Sufficient-width formula."""

    def test_zero_polynomial_floor(self):
        assert width_bound(0.0, 2, 2, 13, 0.1, 0.5) == 1

    def test_half_delta_amplification(self):
        """At delta = 1/2 the tail factor is (1 + sqrt(2 ln 2))^2."""
        amp = (1.0 + math.sqrt(2.0 * math.log(2.0))) ** 2
        got = width_bound(1.0, 1, 1.0, 3, 1.0, 0.5)
        assert got == math.ceil(360.0**2 * 9 * amp)

    def test_quartic_in_radius(self):
        small = width_bound(1.0, 2, 1.0, 5, 1e-3, 0.25)
        large = width_bound(1.0, 2, 2.0, 5, 1e-3, 0.25)
        assert_allclose(large / small, 16.0, rtol=1e-6)

    def test_monotone_in_delta(self):
        assert width_bound(1.0, 1, 1.0, 3, 0.5, 0.01) > width_bound(1.0, 1, 1.0, 3, 0.5, 0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterOutOfRange):
            width_bound(1.0, 1, 1.0, 3, 0.0, 0.5)
        with pytest.raises(ParameterOutOfRange):
            width_bound(1.0, 1, 1.0, 3, 0.5, 0.6)
        with pytest.raises(ParameterOutOfRange):
            width_bound(-1.0, 1, 1.0, 3, 0.5, 0.5)

    def test_a_tiny_epsilon_is_a_bound_past_the_float_range(self):
        """``epsilon^2`` underflows to 0 at 1e-308; the bound squares ``beta_bar / epsilon``,
        and a bound past the float range is past the cap."""
        with pytest.raises(CapExceeded, match="exceeds the float range"):
            width_bound(1.0, 2, 2.0, 13, 1e-308, 0.1)
        # a ratio inside the range keeps its bound when epsilon^2 alone underflows
        amp = (1.0 + math.sqrt(2.0 * math.log(2.0))) ** 2
        assert_allclose(float(width_bound(1e-150, 1, 1.0, 3, 1e-200, 0.5)),
                        360.0**2 * 9 * amp * 1e100, rtol=1e-12)


def _assert_network_within_rounding(got, W, b, c, nodes):
    """``got`` against ``_design_matrix(W, b, nodes) @ c`` within both routes' rounding.

    Either sums at most ``r`` products ``c_i (t_i - b_i)`` after a ``d``-term
    ``t_i = <w_i, x>``, so each is off the exact value by at most
    ``(r + d + 4) eps sum_i |c_i| (|t_i| + |b_i|)`` to first order, and the
    two by at most twice that.
    """
    want = _design_matrix(W, b, nodes) @ c
    size = (np.abs(nodes @ W.T) + np.abs(b)) @ np.abs(c)
    bound = 2 * (len(b) + W.shape[1] + 4) * np.finfo(float).eps * size
    assert np.all(np.abs(got - want) <= bound)


class TestSampleAverageNetwork:
    """Monte Carlo width-r networks with importance weights."""

    def test_zero_polynomial_exact(self, cube_grid_1d):
        P = TrigPolynomial({}, dimension=1)
        span = sample_average_network(P, 4, DkDistribution(k=1, dimension=1),
                                      seed=42, grid=cube_grid_1d)
        assert_allclose(span.coefficients, np.zeros(4))
        assert span.l2_error <= 1e-15

    def test_reproducible(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        dist = DkDistribution(k=1, dimension=1)
        a = sample_average_network(P, 32, dist, seed=7, grid=cube_grid_1d)
        b = sample_average_network(P, 32, dist, seed=7, grid=cube_grid_1d)
        assert a.l2_error == b.l2_error
        assert_allclose(a.coefficients, b.coefficients)

    def test_does_not_import_numpy_ma(self):
        """Grouping features by ray needs no ``np.unique``, whose first call
        imports ``numpy.ma`` (about 15 ms of every process's set-up)."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(relu.__file__).resolve().parents[1]),
             *filter(None, [os.environ.get("PYTHONPATH")])])}

        def ma_loaded(code):
            out = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                                  "print('numpy.ma' in sys.modules)"],
                                 env=env, capture_output=True, text=True, timeout=60)
            assert out.returncode == 0, out.stderr
            return out.stdout.strip() == "True"

        if ma_loaded("import numpy"):
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert not ma_loaded(
            "from widthlab import DkDistribution, TrigPolynomial, UNIFORM_CUBE, "
            "sample_average_network, tensor_gauss_grid\n"
            "P = TrigPolynomial({(1, 0): 0.5, (0, 1): -0.25, (1, 1): 0.125})\n"
            "sample_average_network(P, 64, DkDistribution(k=2, dimension=2), 3,"
            " tensor_gauss_grid(UNIFORM_CUBE, 2, 8))")

    def test_span_metadata(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        span = sample_average_network(P, 8, DkDistribution(k=1, dimension=1),
                                      seed=3, grid=cube_grid_1d)
        assert span.W.shape == (8, 1) and span.b.shape == (8,)
        assert span.coefficients.shape == (8,)
        assert span.grid_id == cube_grid_1d.spec.label()

    @pytest.mark.parametrize("d, k, terms", [
        (1, 2, {(0,): 0.3, (1,): 0.7, (2,): -0.4, (-1,): 0.2}),
        (2, 2, {(0, 0): 0.5, (1, 1): -0.3, (1, 0): 0.8, (2, 0): 0.6, (0, -1): -0.5,
                (-1, 1): 0.4}),
    ])
    def test_coefficients_match_per_feature_h_weight(self, d, k, terms):
        """Rays compiled once give the weights h_weight gives feature by feature."""
        P = TrigPolynomial(terms, dimension=d)
        dist = DkDistribution(k=k, dimension=d)
        grid = tensor_gauss_grid(UNIFORM_CUBE, d, 8)
        r = 400
        span = sample_average_network(P, r, dist, seed=[5, d], grid=grid)
        oracle = [h_weight(bias, w, P, k, d) / r for bias, w in zip(span.b, span.W)]
        assert_allclose(span.coefficients, oracle, rtol=1e-12, atol=0.0)
        W, b = dist.sample_batch(np.random.default_rng([5, d]), r)
        assert np.array_equal(span.b, b) and np.array_equal(span.W, W)

    @pytest.mark.parametrize("r, nodes_per_dim", [(4096, 25), (64, 24)])
    def test_grouped_values_match_one_design_matrix(self, r, nodes_per_dim):
        """One drawn ball index at a time gives the values one (n, r) design
        matrix gives, within the first-order rounding of the two routes."""
        grid = tensor_gauss_grid(UNIFORM_CUBE, 2, nodes_per_dim)
        P = TrigPolynomial({(0, 0): 0.3, (1, 2): 0.5, (-2, 1): -0.4, (0, -4): 0.1})
        dist = DkDistribution(k=4, dimension=2)
        span = sample_average_network(P, r, dist, seed=9, grid=grid)
        idx, b = dist.sample_indices(np.random.default_rng(9), r)
        assert np.array_equal(span.b, b) and np.array_equal(span.W, dist.directions[idx])
        got = relu._network_values(dist.directions, idx, b, span.coefficients, grid.nodes)
        _assert_network_within_rounding(got, span.W, b, span.coefficients, grid.nodes)
        assert span.l2_error == l2_error(P.evaluate, lambda nodes: got, grid)

    def test_a_bias_tied_with_t_adds_nothing(self):
        """A bias equal to ``<w, x>`` at a node leaves its feature out there,
        as ``relu(0) = 0`` does."""
        nodes = tensor_gauss_grid(UNIFORM_CUBE, 1, 7).nodes
        dist = DkDistribution(k=1, dimension=1)  # directions -1, +1 (the zero index) and +1
        assert dist.directions.ravel().tolist() == [-1.0, 1.0, 1.0]
        x = nodes[:, 0]
        idx = np.array([2, 2, 0, 1, 2, 0, 1])
        b = np.array([x[3], x[5], -x[5], 0.0, x[1], -x[1], x[6]])
        c = np.array([0.7, -1.3, 0.4, 2.0, -0.6, 1.1, 0.9])
        got = relu._network_values(dist.directions, idx, b, c, nodes)
        _assert_network_within_rounding(got, dist.directions[idx], b, c, nodes)
        alone = relu._network_values(dist.directions, idx[:1], b[:1], c[:1], nodes)
        assert alone[3] == 0.0 and np.all(alone[:4] == 0.0) and np.all(alone[4:] > 0.0)

    def test_traced_peak_stays_small(self, cube_grid_2d):
        """At r = 4096 on a 24^2 grid one design buffer alone would take 18.9 MB;
        one ball index at a time needs arrays of n and r entries."""
        P = TrigPolynomial({(0, 0): 0.3, (1, 2): 0.5, (-2, 1): -0.4, (0, -4): 0.1})
        dist = DkDistribution(k=4, dimension=2)
        tracemalloc.start()
        try:
            sample_average_network(P, 4096, dist, seed=9, grid=cube_grid_2d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_polynomial_outside_ball_rejected(self, cube_grid_1d):
        P = TrigPolynomial({(3,): 1.0})
        with pytest.raises(ParameterOutOfRange):
            sample_average_network(P, 4, DkDistribution(k=2, dimension=1), seed=1,
                                   grid=cube_grid_1d)

    def test_requires_dk_distribution(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        dist = CustomDistribution(
            dimension=1,
            bias_sampler=lambda r: 0.0,
            weight_sampler=lambda r: np.array([1.0]),
        )
        with pytest.raises(UnsupportedCombination):
            sample_average_network(P, 4, dist, seed=1, grid=cube_grid_1d)
