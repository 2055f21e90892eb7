import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    GAUSSIAN,
    MONTE_CARLO,
    UNIFORM_CUBE,
    DkDistribution,
    FunctionFamily,
    Grid,
    NotUnitNorm,
    PackingFailed,
    ParameterOutOfRange,
    QuadratureSpec,
    WrongMeasure,
    classify,
    coherence,
    count_ball,
    enumerate_ball,
    eval_T,
    evaluate_on,
    explicit_hard_function,
    fit_span,
    gaussian_hard_family,
    hard_family_ball,
    hard_family_symmetric,
    lb_parameters,
    make_grid,
    projection_residuals,
    randict_bound,
    tensor_gauss_grid,
)
from widthlab.fitter import width_residuals
from widthlab import quadrature
from widthlab.lowerbound import _value_matrix
from widthlab.relu import ReluParamDist

from oracles import relu_columns

SQRT2 = math.sqrt(2.0)


def _relu_features(rng, n, d):
    return DkDistribution(k=2, dimension=d).sample_batch(rng, n)


class TestCoherence:
    """Root-sum-square of off-diagonal Gram entries."""

    def test_orthonormal_family_is_incoherent(self, cube_grid_2d):
        fam = hard_family_ball(2, 2)
        assert coherence(fam, cube_grid_2d) <= 1e-9

    def test_duplicate_member_coherence(self, cube_grid_1d):
        member = lambda nodes: np.asarray(eval_T((1,), nodes))
        fam = FunctionFamily(labels=[0, 1], members=[member, member], dimension=1)
        assert_allclose(coherence(fam, cube_grid_1d), SQRT2, rtol=1e-9)

    def test_requires_unit_norms(self, cube_grid_1d):
        fam = FunctionFamily(labels=[0], members=[
            lambda nodes: 2.0 * np.asarray(eval_T((1,), nodes))
        ], dimension=1)
        with pytest.raises(NotUnitNorm):
            coherence(fam, cube_grid_1d)

    def test_nan_gram_is_not_unit_norm(self, cube_grid_1d):
        fam = FunctionFamily(labels=[0], members=[
            lambda nodes: np.where(nodes[:, 0] > 0.5, np.nan, np.asarray(eval_T((1,), nodes)))
        ], dimension=1)
        with pytest.raises(NotUnitNorm):
            coherence(fam, cube_grid_1d)


class TestRandictBound:
    """1 - r (1 + kappa) / N."""

    def test_values(self):
        assert randict_bound(1, 4, 0.0) == 0.75
        assert randict_bound(0, 7, 0.3) == 1.0
        assert_allclose(randict_bound(2, 8, 0.5), 1.0 - 2 * 1.5 / 8)

    def test_can_go_negative(self):
        assert randict_bound(10, 4, 0.0) == -1.5

    def test_monotone_in_coherence(self):
        assert randict_bound(2, 6, 0.1) < randict_bound(2, 6, 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterOutOfRange):
            randict_bound(1, 0, 0.0)
        with pytest.raises(ParameterOutOfRange):
            randict_bound(-1, 4, 0.0)


class TestProjectionResiduals:
    """Per-member squared residuals against a feature span."""

    def test_empty_span_gives_norms(self, cube_grid_2d):
        fam = hard_family_ball(2, 2)
        report = projection_residuals(np.empty((0, 2)), np.empty(0), fam, cube_grid_2d)
        assert report.r == 0 and report.N == 13
        assert_allclose(report.residuals, np.ones(13), atol=1e-12)
        assert_allclose(report.mean_residual, 1.0, atol=1e-12)
        assert report.bound == 1.0

    def test_matches_per_member_fits(self, cube_grid_2d):
        """Multi-target least squares equals member-by-member fit_span."""
        rng = np.random.default_rng(42)
        W, b = _relu_features(rng, 3, 2)
        fam = hard_family_ball(2, 2)
        report = projection_residuals(W, b, fam, cube_grid_2d)
        for i, member in enumerate(fam.members):
            single = fit_span(W, b, member, cube_grid_2d)
            assert_allclose(report.residuals[i], single.l2_error**2, atol=1e-10)

    def test_mean_residual_respects_bound(self, cube_grid_2d):
        """Deterministic form of the bound: holds for every draw, not just
        in expectation, because the span has rank at most r."""
        rng = np.random.default_rng(42)
        fam = hard_family_ball(2, 2)
        for r in (1, 3, 6):
            report = projection_residuals(*_relu_features(rng, r, 2), fam, cube_grid_2d)
            assert report.mean_residual >= report.bound - 1e-9

    @pytest.mark.parametrize("d, widths", [(2, (1, 2, 5, 12)), (3, (4, 20))])
    def test_captured_energy_rank_bound(self, d, widths, request):
        """Bessel's inequality per draw: an orthonormal family (kappa = 0) has
        ``sum_i |Pi phi_i|^2 <= rank <= r``, with ``rank`` that of the weighted
        design (its dead columns are zero and add nothing).  Some draws lose
        rank to dead or affine features, so the bound is sharper than ``r``."""
        grid = request.getfixturevalue(f"cube_grid_{d}d")
        rng = np.random.default_rng(42)
        fam = hard_family_ball(2, d)
        root_w = np.sqrt(grid.weights)[:, None]
        ranks = []
        for r in widths:
            W, b = _relu_features(rng, r, d)
            report = projection_residuals(W, b, fam, grid)
            rank = np.linalg.matrix_rank(relu_columns(W, b, grid.nodes) * root_w)
            captured = float(np.sum(1.0 - report.residuals))
            assert captured <= rank + 1e-6 and rank <= r, (r, rank, captured)
            ranks.append(rank)
        assert any(rank < r for rank, r in zip(ranks, widths))


class _Moved(ReluParamDist):
    """D_k features with every weight row moved by ``G``: ``W @ G``."""

    def __init__(self, base: DkDistribution, G: np.ndarray):
        self.base, self.G = base, G
        self.dimension = base.dimension

    def sample_batch(self, rng, r):
        W, b = self.base.sample_batch(rng, r)
        return W @ self.G, b


class TestSignedPermutationSymmetry:
    """A signed permutation ``G`` of the coordinates maps the tensor Gauss grid and
    the ball family onto themselves, so moving the features by ``G`` moves each
    member's residual to its image: ``J = G^T K``, or ``-J`` where ``J`` changes
    class (sine and cosine members of the ball carry ``K`` and ``-K``).
    """

    d, trials = 3, 20

    @pytest.fixture(scope="class")
    def setting(self):
        grid = tensor_gauss_grid(UNIFORM_CUBE, self.d, 12)
        fam = hard_family_ball(2, self.d)
        rng = np.random.default_rng(0)
        moves = [np.eye(self.d)[rng.permutation(self.d)] * rng.choice([-1.0, 1.0], size=self.d)
                 for _ in range(self.trials)]
        return grid, fam, moves

    @staticmethod
    def _image(fam, G, K):
        J = tuple(int(c) for c in G.T @ np.array(K))
        return fam.labels.index(J if classify(J) == classify(K) else tuple(-c for c in J))

    def _mismatch(self, fam, base, moved, image_of):
        perm = [self._image(fam, image_of, K) for K in fam.labels]
        return float(np.max(np.abs(moved[..., perm] - base)))

    def test_projection_residuals(self, setting):
        grid, fam, moves = setting
        dist = DkDistribution(k=2, dimension=self.d)
        rng = np.random.default_rng(1)
        worst = mutant = 0.0
        for G in moves:
            W, b = dist.sample_batch(rng, 10)
            base = projection_residuals(W, b, fam, grid).residuals
            moved = projection_residuals(W @ G, b, fam, grid).residuals
            worst = max(worst, self._mismatch(fam, base, moved, G))
            mutant = max(mutant, self._mismatch(fam, base, moved, G.T))  # maps by G^-1
        assert worst <= 1e-12
        assert mutant > 1e-2

    def test_width_residuals(self, setting):
        grid, fam, moves = setting
        targets = _value_matrix(fam, grid)
        base_dist = DkDistribution(k=2, dimension=self.d)
        base = width_residuals(targets, grid, base_dist, [1, 4, 10], 5, trials=3)
        worst = mutant = 0.0
        for G in moves[:5]:
            moved = width_residuals(targets, grid, _Moved(base_dist, G), [1, 4, 10], 5, trials=3)
            worst = max(worst, self._mismatch(fam, base, moved, G))
            mutant = max(mutant, self._mismatch(fam, base, moved, G.T))
        assert worst <= 1e-12
        assert mutant > 1e-2


class TestHardFamilies:
    """Cube-side hard instances."""

    def test_ball_family_size_and_flags(self):
        fam = hard_family_ball(1, 2)
        assert len(fam) == 5
        assert fam.coherence == 0.0
        assert fam.labels == enumerate_ball(1, 2)

    def test_ball_family_members_are_basis(self, cube_grid_2d):
        fam = hard_family_ball(1, 2)
        X = cube_grid_2d.nodes[:10]
        for K, member in zip(fam.labels, fam.members):
            assert_allclose(member(X), np.asarray(eval_T(K, X)), atol=1e-14)

    def test_symmetric_family_counts(self):
        assert len(hard_family_symmetric(2, 4)) == 6
        assert len(hard_family_symmetric(3, 3)) == 1

    def test_symmetric_member_values(self):
        """Member for subset S is sqrt(2) sin(pi sum_{i in S} x_i)."""
        fam = hard_family_symmetric(2, 3)
        x = np.array([[0.3, -0.2, 0.5]])
        idx = fam.labels.index((0, 2))
        assert_allclose(fam.members[idx](x),
                        SQRT2 * math.sin(math.pi * (0.3 + 0.5)), rtol=1e-12)

    def test_symmetric_family_orthonormal(self, cube_grid_3d):
        fam = hard_family_symmetric(2, 3)
        assert coherence(fam, cube_grid_3d) <= 1e-9

    def test_symmetric_relabels_under_permutation(self):
        """Swapping coordinates permutes members exactly."""
        rng = np.random.default_rng(42)
        fam = hard_family_symmetric(2, 3)
        X = rng.uniform(-1, 1, size=(20, 3))
        Xsw = X[:, [1, 0, 2]]
        for S, member in zip(fam.labels, fam.members):
            swapped_S = tuple(sorted({0: 1, 1: 0, 2: 2}[i] for i in S))
            partner = fam.members[fam.labels.index(swapped_S)]
            assert_allclose(member(Xsw), partner(X), atol=1e-12)

    def test_symmetric_rejects_bad_ell(self):
        with pytest.raises(ParameterOutOfRange):
            hard_family_symmetric(0, 3)
        with pytest.raises(ParameterOutOfRange):
            hard_family_symmetric(4, 3)


class TestExplicitHard:
    """The scaled sine 4 sqrt(2) eps sin(pi (x_1 + ... + x_ell))."""

    def test_pointwise_value(self):
        f = explicit_hard_function(1.0, 1, 1)
        assert_allclose(f(np.array([0.25])), 4.0 * SQRT2 * math.sin(math.pi * 0.25),
                        rtol=1e-13)

    def test_lip_bound_value(self):
        assert_allclose(explicit_hard_function(1.0, 1, 1).lip_bound, 4.0 * math.pi * SQRT2,
                        rtol=1e-15)

    def test_norm_is_four_epsilon(self, cube_grid_2d):
        f = explicit_hard_function(0.3, 2, 2)
        assert_allclose(cube_grid_2d.norm(f.evaluate(cube_grid_2d.nodes)), 1.2, rtol=1e-10)

    def test_is_scaled_family_member(self):
        rng = np.random.default_rng(42)
        eps, ell, d = 0.1, 2, 4
        f = explicit_hard_function(eps, ell, d)
        fam = hard_family_symmetric(ell, d)
        first = fam.members[fam.labels.index((0, 1))]
        X = rng.uniform(-1, 1, size=(30, d))
        assert_allclose(f(X), 4.0 * eps * np.asarray(first(X)), rtol=1e-12)

    def test_measured_lipschitz_quotient(self):
        rng = np.random.default_rng(42)
        f = explicit_hard_function(0.25, 2, 3)
        A = rng.uniform(-1, 1, size=(300, 3))
        B = rng.uniform(-1, 1, size=(300, 3))
        quotients = np.abs(f(A) - f(B)) / np.linalg.norm(A - B, axis=1)
        assert np.max(quotients) <= f.lip_bound + 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            explicit_hard_function(0.0, 1, 1)
        with pytest.raises(ParameterOutOfRange):
            explicit_hard_function(0.1, 3, 2)


class TestLbParameters:
    """Instance-size formulas for Lipschitz and Sobolev targets."""

    def test_lipschitz_example(self):
        params = lb_parameters(18.0, 1.0, 4)
        assert params.ell == 1
        assert_allclose(params.k_nonexplicit, 1.0, rtol=1e-15)
        assert not params.degenerate

    def test_degenerate_regime_flagged(self):
        params = lb_parameters(1.0, 1.0, 100)
        assert params.ell == 0 and params.degenerate

    def test_doubling_lipschitz_quadruples_ell(self):
        base = lb_parameters(18.0, 1.0, 10**6).ell
        doubled = lb_parameters(36.0, 1.0, 10**6).ell
        assert doubled == 4 * base


# Per dimension, a tensor grid with fewer nodes per axis than the 2k + 1 rows of a
# radius-k table (k >= 1), and the benchmark-sized one.
_VALUE_GRIDS = [(d, n) for d, big in {1: 24, 2: 12, 3: 8, 4: 6}.items() for n in (2, big)]


def _bits(values):
    """A uint64 view, so that array_equal tells +0 from -0."""
    return np.ascontiguousarray(values).view(np.uint64)


class TestValueMatrix:
    """One (n, N) array of every member's values; T_K from per-axis tables on tensor grids."""

    @pytest.mark.parametrize("d, nodes_per_dim", _VALUE_GRIDS)
    def test_tables_match_eval_T(self, d, nodes_per_dim):
        grid = tensor_gauss_grid(UNIFORM_CUBE, d, nodes_per_dim)
        families = ([hard_family_ball(k, d) for k in range(4)]
                    + [hard_family_symmetric(ell, d) for ell in range(1, d + 1)])
        for family in families:
            values = _value_matrix(family, grid)
            assert values.flags.f_contiguous
            assert values.shape == (grid.nodes.shape[0], len(family))
            for K, column in zip(family.indices, values.T):
                assert np.max(np.abs(column - eval_T(K, grid.nodes))) <= 1e-14, K

    def test_values_are_kept_read_only_and_keyed_by_the_axes(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MEMO", quadrature._Memo(quadrature._MEMO_BYTES))
        grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 6)
        family = hard_family_ball(2, 2)
        values = _value_matrix(family, grid)
        assert not values.flags.writeable
        assert _value_matrix(hard_family_ball(2, 2), grid) is values
        assert _value_matrix(hard_family_symmetric(1, 2), grid) is not values
        # a hand-built grid with the spec of another but its own nodes gets its own values
        moved = Grid(spec=grid.spec, nodes=grid.nodes / 2.0, weights=grid.weights)
        other = _value_matrix(family, moved)
        for K, column in zip(family.indices, other.T):
            assert np.max(np.abs(column - eval_T(K, moved.nodes))) <= 1e-14, K

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monte_carlo_grids_keep_the_bits_of_evaluate_on(self, d):
        """A d = 1 grid has axes, but only tensor grids take the tables."""
        grid = make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, d, sample_count=200, seed=d))
        assert (grid.axes is not None) == (d == 1)
        for family in (hard_family_ball(2, d), hard_family_symmetric(1, d)):
            values = _value_matrix(family, grid)
            direct = np.column_stack([evaluate_on(m, grid.nodes) for m in family.members])
            assert np.array_equal(_bits(values), _bits(direct))
            assert values.flags.c_contiguous

    def test_the_gaussian_family_keeps_the_bits_of_evaluate_on(self, gauss_grid_2d):
        family = gaussian_hard_family(2.0, 5, 2, seed=3, grid=gauss_grid_2d)
        assert family.indices is None
        values = _value_matrix(family, gauss_grid_2d)
        direct = np.column_stack([evaluate_on(m, gauss_grid_2d.nodes) for m in family.members])
        assert np.array_equal(_bits(values), _bits(direct))
        assert values.flags.c_contiguous

    def test_families_name_their_basis_indices(self):
        assert hard_family_ball(1.5, 2).indices == enumerate_ball(1.5, 2)
        assert hard_family_symmetric(2, 3).indices == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        with pytest.raises(ParameterOutOfRange, match="one index per member"):
            FunctionFamily(labels=[0], members=[np.sin], dimension=1, indices=[(1,), (2,)])


class TestGaussianFamily:
    """Greedy axial packing of ridge sines in Gaussian space."""

    def test_single_member(self, gauss_grid_2d):
        fam = gaussian_hard_family(2.0, 1, 2, seed=42, grid=gauss_grid_2d)
        assert len(fam) == 1 and fam.coherence == 0.0
        assert_allclose(gauss_grid_2d.norm(evaluate_on(fam.members[0], gauss_grid_2d.nodes)),
                        1.0, rtol=1e-9)

    def test_members_normalized_and_kappa_measured(self, gauss_grid_2d):
        fam = gaussian_hard_family(2.0, 4, 2, seed=42, grid=gauss_grid_2d)
        assert fam.coherence is not None and fam.coherence >= 0.0
        assert_allclose(fam.coherence, coherence(fam, gauss_grid_2d), rtol=1e-12)

    def test_members_not_finite_on_the_grid_fail_the_packing(self, gauss_grid_2d):
        """At L = 1e308, L <v, x> overflows and its sine is NaN at most nodes."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PackingFailed, match="not finite"):
                gaussian_hard_family(1e308, 2, 2, 3, gauss_grid_2d)

    def test_deterministic_in_seed(self, gauss_grid_2d):
        a = gaussian_hard_family(2.0, 3, 2, seed=7, grid=gauss_grid_2d)
        b = gaussian_hard_family(2.0, 3, 2, seed=7, grid=gauss_grid_2d)
        X = gauss_grid_2d.nodes[:5]
        for ma, mb in zip(a.members, b.members):
            assert_allclose(ma(X), mb(X), atol=1e-15)
        assert a.coherence == b.coherence

    def test_axis_directions_nearly_orthogonal(self, gauss_grid_2d):
        """Hand-built axis family: cross terms vanish by independence."""
        L = 2.0
        members = []
        for i in range(2):
            raw = lambda nodes, _i=i: np.sin(L * np.asarray(nodes)[:, _i])
            norm = math.sqrt(float(np.sum(gauss_grid_2d.weights
                                          * raw(gauss_grid_2d.nodes) ** 2)))
            members.append(lambda nodes, _r=raw, _n=norm: _r(nodes) / _n)
        fam = FunctionFamily(labels=[0, 1], members=members, dimension=2)
        assert coherence(fam, gauss_grid_2d) <= 1e-6

    @pytest.mark.parametrize("d, N, seed", [(2, 6, 42), (3, 20, 1), (3, 40, 7), (5, 25, 3)])
    def test_running_minimum_picks_the_quadratic_rule_directions(self, d, N, seed):
        """The greedy packing with all separations recomputed at every step."""
        grid = tensor_gauss_grid(GAUSSIAN, d, 3)
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((max(N * 32, 64), d))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        chosen = [pool[0]]
        for _ in range(1, N):
            separation = np.min(1.0 - np.abs(pool @ np.array(chosen).T), axis=1)
            chosen.append(pool[int(np.argmax(separation))])
        fam = gaussian_hard_family(2.0, N, d, seed, grid)
        for v, member in zip(chosen, fam.members):
            raw = np.sin(2.0 * (grid.nodes @ v))
            norm = math.sqrt(float(np.sum(grid.weights * raw**2)))
            assert np.array_equal(member(grid.nodes), raw / norm)

    def test_packing_failure_in_one_dimension(self, gauss_grid_1d):
        """d = 1 admits a single axial direction; asking for two fails."""
        with pytest.raises(PackingFailed):
            gaussian_hard_family(2.0, 2, 1, seed=42, grid=gauss_grid_1d)

    def test_wrong_measure(self, cube_grid_2d):
        with pytest.raises(WrongMeasure):
            gaussian_hard_family(2.0, 2, 2, seed=42, grid=cube_grid_2d)

    def test_bound_reflects_coherence(self, gauss_grid_2d):
        fam = gaussian_hard_family(2.0, 5, 2, seed=42, grid=gauss_grid_2d)
        assert randict_bound(2, len(fam), fam.coherence) <= randict_bound(2, len(fam), 0.0)


class TestFamilyValidation:
    def test_label_member_count_mismatch(self):
        with pytest.raises(ParameterOutOfRange):
            FunctionFamily(labels=[0], members=[], dimension=1)

    def test_negative_coherence_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            FunctionFamily(labels=[], members=[], dimension=1, coherence=-0.1)

    def test_count_consistency(self):
        assert len(hard_family_ball(2, 2)) == count_ball(2, 2)
