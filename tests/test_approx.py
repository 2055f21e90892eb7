import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    MONTE_CARLO,
    UNIFORM_CUBE,
    CapExceeded,
    Grid,
    ParameterOutOfRange,
    QuadratureSpec,
    ScaleNotUnit,
    TrigPolynomial,
    WrongMeasure,
    c_ks,
    enumerate_ball,
    eval_T,
    evaluate_on,
    l2_error,
    make_grid,
    partial_derivative,
    reflect_and_truncate,
    shift_polynomial_to_half_scale,
    sobolev_norm_from_coeffs,
    tensor_gauss_grid,
    trig_coefficient,
    truncate_periodic,
    truncate_sobolev,
)
from widthlab import approx
from widthlab.approx import _shifted_on_axes

from oracles import product_grid, sum_rounding

SQRT2 = math.sqrt(2.0)
_EPS = np.finfo(float).eps


def brute_c_ks(K, s):
    """Direct enumeration of sum_{|M| <= s} prod (pi K_i)^(2 M_i)."""
    d = len(K)
    total = 0.0
    for M in itertools.product(range(s + 1), repeat=d):
        if sum(M) <= s:
            total += math.prod((math.pi * k) ** (2 * m) for k, m in zip(K, M))
    return total


class TestTruncatePeriodic:
    """Cutoff at radius L / (2 eps) for periodic Lipschitz functions."""

    def test_exact_recovery_inside_ball(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7, (-2,): 0.3})
        report = truncate_periodic(P.evaluate, 8.0, 1.0, cube_grid_1d)
        assert report.degree_radius == 4.0
        assert report.residual_estimate <= 1e-12
        assert_allclose(report.polynomial.terms[(1,)], 0.7, atol=1e-12)
        assert_allclose(report.polynomial.terms[(-2,)], 0.3, atol=1e-12)

    def test_residual_equals_dropped_mass(self, cube_grid_1d):
        """A single out-of-ball term survives untouched in the residual."""
        P = TrigPolynomial({(1,): 0.5, (5,): 0.25})
        report = truncate_periodic(P.evaluate, 8.0, 1.0, cube_grid_1d)
        assert (5,) not in report.polynomial.terms
        assert_allclose(report.residual_estimate, 0.25, rtol=1e-10)
        assert_allclose(report.max_coefficient, 0.5, rtol=1e-10)

    def test_ratio_precondition(self, cube_grid_1d):
        with pytest.raises(ParameterOutOfRange):
            truncate_periodic(lambda X: X[:, 0], 1.0, 1.0, cube_grid_1d)
        with pytest.raises(ParameterOutOfRange):
            truncate_periodic(lambda X: X[:, 0], -1.0, 0.5, cube_grid_1d)

    def test_cap_passthrough(self, cube_grid_2d, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "10")
        with pytest.raises(CapExceeded):
            truncate_periodic(lambda X: X[:, 0], 20.0, 1.0, cube_grid_2d)


class TestShiftPolynomial:
    """Exact rewrite of P(nu (x+1)/2) as a half-scale polynomial."""

    def test_pointwise_identity_random(self):
        """Q(x) = P(nu (x+1)/2) at random points, for every orthant."""
        rng = np.random.default_rng(42)
        members = enumerate_ball(2, 2)
        P = TrigPolynomial({K: rng.normal() for K in members})
        X = rng.uniform(-1, 1, size=(40, 2))
        for nu in itertools.product((-1, 1), repeat=2):
            Q = shift_polynomial_to_half_scale(P, nu)
            mapped = np.asarray(nu, dtype=float) * (X + 1.0) / 2.0
            assert_allclose(Q(X), P(mapped), atol=1e-10)
            assert Q.scale == 0.5

    def test_constant_passthrough(self):
        P = TrigPolynomial({(0, 0): 1.25})
        Q = shift_polynomial_to_half_scale(P, (1, -1))
        assert Q.terms == {(0, 0): 1.25}

    def test_single_sine_shift(self):
        """T_(1,)(nu (x+1)/2) with nu=+1 is sqrt(2) cos(pi x / 2) shifted."""
        P = TrigPolynomial({(1,): 1.0})
        Q = shift_polynomial_to_half_scale(P, (1,))
        x = np.array([0.3])
        assert_allclose(Q(x), SQRT2 * math.sin(math.pi * (0.3 + 1.0) / 2.0), rtol=1e-14)

    def test_requires_unit_scale(self):
        P = TrigPolynomial({(1,): 1.0}, scale=0.5)
        with pytest.raises(ScaleNotUnit):
            shift_polynomial_to_half_scale(P, (1,))

    def test_rejects_bad_orthant(self):
        P = TrigPolynomial({(1, 0): 1.0})
        with pytest.raises(ParameterOutOfRange):
            shift_polynomial_to_half_scale(P, (1,))
        with pytest.raises(ParameterOutOfRange):
            shift_polynomial_to_half_scale(P, (1, 0))


class TestReflectAndTruncate:
    """Reflection pipeline for non-periodic Lipschitz targets."""

    def test_absolute_value(self, cube_grid_1d):
        """|x| keeps the constant and one cosine harmonic inside radius 4.

        The triangle-wave expansion puts 1/2 at index 0 and -2 sqrt(2)/pi^2
        at index -2 after the orthant shift; the Gauss grid sees the kink, so
        coefficient tolerances stay at the observed quadrature noise level.
        """
        f = lambda X: np.abs(X[:, 0])
        report = reflect_and_truncate(f, 1.0, 0.25, cube_grid_1d)
        P = report.polynomial
        assert P.scale == 0.5
        assert report.orthant in ((1,), (-1,))
        assert report.degree_radius == 4.0
        assert_allclose(P.terms[(0,)], 0.5, atol=2e-2)
        assert_allclose(P.terms[(-2,)], -2.0 * SQRT2 / math.pi**2, atol=2e-2)
        # analysis promises eps = 0.25; the true tail is about 0.035
        assert report.residual_estimate <= 0.25

    def test_absolute_value_pointwise(self, cube_grid_1d):
        """Away from the kink the approximation tracks |x| closely."""
        f = lambda X: np.abs(X[:, 0])
        report = reflect_and_truncate(f, 1.0, 0.25, cube_grid_1d)
        x = np.linspace(-0.95, 0.95, 101)[:, None]
        err = np.abs(report.polynomial(x) - np.abs(x[:, 0]))
        assert np.max(err) <= 0.12

    def test_smooth_target_small_residual(self, cube_grid_2d):
        """A gentle smooth function is captured well inside radius 6."""
        f = lambda X: np.sin(1.5 * X[:, 0]) * np.cos(X[:, 1])
        report = reflect_and_truncate(f, 2.0, 1.0 / 3.0, cube_grid_2d)
        assert report.degree_radius == 6.0
        assert report.residual_estimate <= 1.0 / 3.0

    def test_ratio_precondition(self, cube_grid_1d):
        with pytest.raises(ParameterOutOfRange):
            reflect_and_truncate(lambda X: X[:, 0], 0.5, 1.0, cube_grid_1d)

    def test_orthant_dim_cap(self, monkeypatch):
        """At d = 21 the scan's 2^21 x 43 indices x 1 node pass a cap of 10^9, but
        its dimension does not; ``validate`` refuses it too (tests/test_cli.py)."""
        grid = make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 21, sample_count=1, seed=1))
        monkeypatch.setenv("WIDTHLAB_CAP", str(10**9))
        with pytest.raises(CapExceeded, match="orthant scan over 2\\^21 orthants exceeds "
                                              "the d <= 20 cap"):
            reflect_and_truncate(lambda X: np.abs(X[:, 0]), 1.0, 1.0, grid)


class TestTruncateSobolev:
    """Cutoff radius sqrt(s) gamma^(1/s) / (2 eps)^(1/s)."""

    def test_radius_value(self, cube_grid_1d):
        report = truncate_sobolev(lambda X: X[:, 0], 1, 8.0, 1.0, cube_grid_1d)
        assert_allclose(report.degree_radius, 4.0, rtol=1e-15)

    def test_exact_recovery(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 1.0, (-3,): -0.5})
        report = truncate_sobolev(P.evaluate, 1, 8.0, 1.0, cube_grid_1d)
        assert report.residual_estimate <= 1e-12
        assert_allclose(report.polynomial.terms[(-3,)], -0.5, atol=1e-12)

    def test_tail_outside_radius(self, cube_grid_1d):
        P = TrigPolynomial({(5,): 1.0})
        report = truncate_sobolev(P.evaluate, 1, 8.0, 1.0, cube_grid_1d)
        assert report.max_coefficient <= 1e-12
        assert_allclose(report.residual_estimate, 1.0, rtol=1e-10)

    def test_invalid_order(self, cube_grid_1d):
        with pytest.raises(ParameterOutOfRange):
            truncate_sobolev(lambda X: X[:, 0], 0, 8.0, 1.0, cube_grid_1d)


class CountingTarget:
    """A target that records the nodes of every call it gets."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, X):
        self.calls.append(np.array(X, dtype=float))
        return self.f(X)


def _vector_target(X):
    return np.sin(1.5 * X[:, 0]) * np.cos(X[:, -1]) + 0.3 * np.abs(X[:, 0])


def _scalar_target(p):
    # math.cos of a row fails on a batch, which sends evaluate_on to its row loop
    return math.cos(p[0]) * abs(p[1]) + 0.25 * p[0]


_MC_GRID = make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 2, sample_count=500, seed=3))
_MC_GRID_1D = make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 1, sample_count=300, seed=4))
_UNEQUAL_GRID = product_grid((np.linspace(-0.9, 0.95, 9), np.linspace(-1.0, 1.0, 12)))
# d = 3 tensor grids; the odd count puts a node at the origin
_D3_GRIDS = {"d3_even": tensor_gauss_grid(UNIFORM_CUBE, 3, 6),
             "d3_odd": tensor_gauss_grid(UNIFORM_CUBE, 3, 5)}
# (truncation, its arguments between f and the grid); both keep the radius-3 ball
_TRUNCATIONS = [(truncate_periodic, (6.0, 1.0)), (truncate_sobolev, (1, 6.0, 1.0))]


def _kept_per_index(f, ball, grid) -> dict:
    """The per-index coefficients above the rounding bound of their sums, in ball order."""
    fw = grid.weights * evaluate_on(f, grid.nodes)
    kept = {}
    for K in ball:
        beta = trig_coefficient(f, K, grid)
        if abs(beta) > sum_rounding(grid.axes or (), fw * eval_T(K, grid.nodes)):
            kept[K] = beta
    return kept


class TestOnePassTruncation:
    """One evaluation of the target serves every coefficient and the residual."""

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    def test_target_evaluated_once(self, truncate, args, cube_grid_2d):
        target = CountingTarget(_vector_target)
        report = truncate(target, *args, cube_grid_2d)
        assert report.degree_radius == 3.0
        assert len(target.calls) == 1

    def test_reflection_evaluates_folded_nodes_then_nodes(self, cube_grid_2d):
        target = CountingTarget(_vector_target)
        reflect_and_truncate(target, 2.0, 0.5, cube_grid_2d)
        assert len(target.calls) == 2
        folded, nodes = target.calls
        assert np.array_equal(folded, 2.0 * np.abs(cube_grid_2d.nodes) - 1.0)
        assert np.array_equal(nodes, cube_grid_2d.nodes)

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    @pytest.mark.parametrize("f, grid_name", [
        (_vector_target, "mc"), (_scalar_target, "mc"),
        (_vector_target, "d3_even"), (_vector_target, "d3_odd"),
    ], ids=["monte_carlo", "monte_carlo_scalar_only", "d3_even_nodes", "d3_odd_nodes"])
    def test_bitwise_equal_to_per_index_coefficients(self, truncate, args, f, grid_name):
        """Where the per-index loop runs: on a grid without axes, and on tensor
        grids whose 5 or 6 nodes per axis are fewer than the 2 * 3 + 1 rows a
        radius-3 table would have.  Only the coefficients above the rounding
        bound of their sums are kept."""
        grid = {"mc": _MC_GRID, **_D3_GRIDS}[grid_name]
        assert grid.axes is None or grid.axes[0].size < 7
        report = truncate(f, *args, grid)
        terms = report.polynomial.terms
        ball = enumerate_ball(report.degree_radius, grid.dimension)
        assert list(terms.items()) == list(_kept_per_index(f, ball, grid).items())
        assert report.residual_estimate == l2_error(f, report.polynomial.evaluate, grid)

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    @pytest.mark.parametrize("f, grid_name", [
        (_vector_target, "d2"), (_scalar_target, "d2"), (_vector_target, "d3"),
        (_vector_target, "d1_monte_carlo"), (_vector_target, "unequal_axes"),
    ])
    def test_contraction_matches_per_index_coefficients(self, truncate, args, f, grid_name,
                                                        cube_grid_2d, cube_grid_3d):
        """Every ball coefficient within the rounding of its n-term sum of the
        per-index route, the terms in ball order, and the residual within what
        those differences and the rounding of the truncation's values allow."""
        grid = {"d2": cube_grid_2d, "d3": cube_grid_3d, "d1_monte_carlo": _MC_GRID_1D,
                "unequal_axes": _UNEQUAL_GRID}[grid_name]
        report = truncate(f, *args, grid)
        terms = report.polynomial.terms
        ball = enumerate_ball(report.degree_radius, grid.dimension)
        assert list(terms) == [K for K in ball if K in terms]
        fw = grid.weights * evaluate_on(f, grid.nodes)
        # |K_j| <= 3 and |x_j| <= 1: each route's phase is off by at most about
        # 3 pi ulps per axis
        phase_ulps = 2 * 3 * math.pi * grid.dimension
        chain = len(ball) + sum(axis.size for axis in grid.axes) + phase_ulps
        slack = np.zeros(grid.nodes.shape[0])
        for K in ball:
            column = eval_T(K, grid.nodes)
            tol = sum_rounding(grid.axes, fw * column, phase_ulps)
            beta = terms.get(K, 0.0)
            assert abs(beta - trig_coefficient(f, K, grid)) <= tol, K
            slack += (tol + chain * _EPS * abs(beta)) * np.abs(column)
        direct = l2_error(f, report.polynomial.evaluate, grid)
        assert abs(report.residual_estimate - direct) <= math.sqrt(
            float(np.sum(grid.weights * slack**2)))

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    def test_grid_off_symmetry_by_one_ulp_uses_every_node(self, truncate, args):
        symmetric = _D3_GRIDS["d3_odd"]
        nodes = symmetric.nodes.copy()
        nodes[7, 1] = np.nextafter(nodes[7, 1], 2.0)
        grid = Grid(spec=symmetric.spec, nodes=nodes, weights=symmetric.weights)
        report = truncate(_vector_target, *args, grid)
        ball = enumerate_ball(report.degree_radius, 3)
        assert report.polynomial.terms == _kept_per_index(_vector_target, ball, grid)
        assert report.residual_estimate == l2_error(_vector_target,
                                                    report.polynomial.evaluate, grid)

    def test_every_orthant_shifts_the_per_index_polynomial_up_to_rounding(self, cube_grid_2d):
        """All four orthants tie on a symmetric grid, so which one the scan keeps
        rests on rounding; each shifts the contraction's truncation of the folded
        target to the per-index one's shift, coefficient by coefficient, within
        the rounding of their sums."""
        grid = cube_grid_2d
        ftilde = lambda X: _vector_target(2.0 * np.abs(X) - 1.0)
        report = reflect_and_truncate(_vector_target, 2.0, 0.5, grid)
        inner = truncate_periodic(ftilde, 4.0, 0.5, grid).polynomial
        ball = enumerate_ball(report.degree_radius, 2)
        per_index = TrigPolynomial({K: trig_coefficient(ftilde, K, grid) for K in ball})
        fw = grid.weights * ftilde(grid.nodes)
        # |K_j| <= 4: each route's phase is off by at most about 4 pi ulps per axis
        tol = max(sum_rounding(grid.axes, fw * eval_T(K, grid.nodes), 2 * 4 * math.pi * 2)
                  for K in ball)
        for nu in itertools.product((-1, 1), repeat=2):
            got = shift_polynomial_to_half_scale(inner, nu).terms
            want = shift_polynomial_to_half_scale(per_index, nu).terms
            for K in set(got) | set(want):
                assert abs(got.get(K, 0.0) - want.get(K, 0.0)) <= tol, (nu, K)
        assert report.polynomial.terms == shift_polynomial_to_half_scale(
            inner, report.orthant).terms

    @pytest.mark.parametrize("f", [_vector_target, _scalar_target],
                             ids=["vectorized", "scalar_only"])
    def test_reflection_residual_bitwise_equal_to_l2_error(self, f, cube_grid_2d):
        report = reflect_and_truncate(f, 2.0, 0.5, cube_grid_2d)
        assert report.residual_estimate == l2_error(f, report.polynomial.evaluate,
                                                    cube_grid_2d)

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    def test_gaussian_grid_is_the_wrong_measure(self, truncate, args, gauss_grid_2d):
        target = CountingTarget(_vector_target)
        with pytest.raises(WrongMeasure):
            truncate(target, *args, gauss_grid_2d)
        assert target.calls == []


_BASE_2D = {(1, 0): 0.8, (0, -1): -0.5, (1, 1): 0.3, (-1, 1): 0.4}
_BASE_3D = {(1, 0, 0): 0.7, (0, 1, -1): -0.5, (-1, 1, 1): 0.4, (0, 0, 2): 0.3, (0, 0, 0): 0.1}


class TestSignificance:
    """A coefficient within the rounding bound of its sum is exactly 0."""

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    @pytest.mark.parametrize("terms", [_BASE_2D, _BASE_3D], ids=["d2", "d3"])
    def test_trig_polynomial_keeps_exactly_its_support(self, truncate, args, terms,
                                                       cube_grid_2d, cube_grid_3d):
        P = TrigPolynomial(terms)
        grid = cube_grid_2d if P.dimension == 2 else cube_grid_3d
        report = truncate(P.evaluate, *args, grid)
        assert len(enumerate_ball(report.degree_radius, P.dimension)) > 2 * len(terms)
        assert set(report.polynomial.terms) == set(terms)
        assert_allclose([report.polynomial.terms[K] for K in terms], list(terms.values()),
                        rtol=0, atol=1e-13)

    def test_reflected_abs_keeps_five_terms(self, cube_grid_2d):
        """|2|x_1| - 1| is even and constant in x_2: of the 49 radius-4
        indices only (m, 0) with m = 0, -1, .., -4 carry it."""
        report = reflect_and_truncate(lambda X: np.abs(X[:, 0]), 1.0, 0.25, cube_grid_2d)
        assert report.degree_radius == 4.0
        assert len(report.polynomial.terms) == 5
        inner = truncate_periodic(lambda X: np.abs(2.0 * np.abs(X[:, 0]) - 1.0), 2.0, 0.25,
                                  cube_grid_2d)
        assert sorted(inner.polynomial.terms) == [(-m, 0) for m in range(4, -1, -1)]

    @pytest.mark.parametrize("truncate, args", _TRUNCATIONS)
    @pytest.mark.parametrize("grid_name", ["d2", "d3", "d1_monte_carlo"])
    def test_dropped_contraction_coefficients_are_within_their_bound(
            self, truncate, args, grid_name, cube_grid_2d, cube_grid_3d):
        """On the contraction route each ``beta_K`` sums ``w f`` times a factor
        of modulus ``sqrt(2)`` (1 at zero), so a dropped one is at most the
        bound on ``sqrt(2) sum |w f|``; its per-index sum is within that bound
        and the rounding between the two routes."""
        grid = {"d2": cube_grid_2d, "d3": cube_grid_3d, "d1_monte_carlo": _MC_GRID_1D}[grid_name]
        f = lambda X: np.cos(np.pi * X[:, 0]) * (1.0 + X[:, -1] ** 2) + np.abs(X[:, 0])
        report = truncate(f, *args, grid)
        ball = enumerate_ball(report.degree_radius, grid.dimension)
        fw = grid.weights * evaluate_on(f, grid.nodes)
        phase_ulps = 2 * 3 * math.pi * grid.dimension
        dropped = [K for K in ball if K not in report.polynomial.terms]
        if grid_name != "d1_monte_carlo":
            assert len(dropped) > len(ball) // 2
        for K in dropped:
            factor = 1.0 if not any(K) else SQRT2
            bound = sum_rounding(grid.axes, factor * fw)
            tol = sum_rounding(grid.axes, fw * eval_T(K, grid.nodes), phase_ulps)
            assert abs(trig_coefficient(f, K, grid)) <= bound + tol, K


class TestOrthantScan:
    """Each orthant's values come from one contraction on grids with axes."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_orthant_values_match_evaluate_within_rounding(self, d):
        rng = np.random.default_rng(d)
        axes = [np.sort(rng.uniform(-1.0, 1.0, size=7 + j)) for j in range(d)]
        grid = product_grid(axes)
        ball = enumerate_ball(3, d)
        poly = TrigPolynomial({K: float(rng.normal()) for K in ball[::2]}, dimension=d)
        shifted = _shifted_on_axes(poly, grid.axes)
        top = max(max(abs(c) for c in K) for K in poly.terms)
        box_axes = [np.arange(-top, top + 1)] * d
        size = np.array([abs(beta) * (SQRT2 if any(K) else 1.0)
                         for K, beta in poly.terms.items()])
        # the direct route adds the terms in order; each phase is off by about
        # top pi ulps per axis
        tol = sum_rounding(box_axes, size, len(poly.terms) + 2 * top * math.pi * d)
        for nu in itertools.product((-1, 1), repeat=d):
            want = poly.evaluate(np.asarray(nu, dtype=float) * (grid.nodes + 1.0) / 2.0)
            assert np.max(np.abs(shifted(nu) - want)) <= tol, nu

    @pytest.mark.parametrize("grid_name", ["d2", "unequal_axes"])
    def test_kept_orthant_is_within_rounding_of_the_best(self, grid_name, cube_grid_2d):
        grid = {"d2": cube_grid_2d, "unequal_axes": _UNEQUAL_GRID}[grid_name]
        f = lambda X: np.abs(X[:, 0] - 0.2) + 0.5 * np.sin(X[:, 1]) * X[:, 0]
        report = reflect_and_truncate(f, 2.0, 0.5, grid)
        ftilde = lambda X: f(2.0 * np.abs(X) - 1.0)
        ptilde = truncate_periodic(ftilde, 4.0, 0.5, grid).polynomial
        f_vals = f(grid.nodes)
        errors, spread = {}, 0.0
        for nu in itertools.product((-1, 1), repeat=2):
            mapped = np.asarray(nu, dtype=float) * (grid.nodes + 1.0) / 2.0
            diff = ptilde.evaluate(mapped) - f_vals
            errors[nu] = np.sum(grid.weights * diff**2)
            spread = max(spread, float(np.sum(grid.weights * np.abs(diff))))
        # each value within tol of the direct one moves each error by at most
        # 2 tol sum(w |diff|), to first order; the kept and the best may both move
        size = [abs(b) * SQRT2 for b in ptilde.terms.values()]
        tol = sum_rounding([np.arange(-4, 5)] * 2, np.array(size),
                           len(size) + 2 * 4 * math.pi * 2)
        assert errors[report.orthant] <= min(errors.values()) + 4.0 * tol * spread
        assert report.polynomial.terms == shift_polynomial_to_half_scale(
            ptilde, report.orthant).terms

    def test_axes_shorter_than_the_box_score_by_evaluate(self, monkeypatch):
        """With 4 nodes per axis and radius 4 a box of 9^d orders would outgrow
        the grid: the scan evaluates the polynomial, as on grids without axes."""
        grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 4)
        f = lambda X: np.abs(X[:, 0])

        def no_box(poly, axes):
            raise AssertionError("the orthant scan contracted a box larger than the grid")

        monkeypatch.setattr(approx, "_shifted_on_axes", no_box)
        report = reflect_and_truncate(f, 1.0, 0.25, grid)
        assert report.residual_estimate == l2_error(f, report.polynomial.evaluate, grid)

    def test_scan_past_the_cap_is_refused(self, monkeypatch):
        grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 4)
        # 13 radius-2 indices at 16 nodes fit a cap of 500; four orthants of them do not
        monkeypatch.setenv("WIDTHLAB_CAP", "500")
        with pytest.raises(CapExceeded, match="orthant scan of 2\\^2 orthants x 13 indices"):
            reflect_and_truncate(lambda X: np.abs(X[:, 0]), 1.0, 0.5, grid)


class TestDerivativeEnergy:
    """The constant c_{K,s} and the Sobolev norm built from it."""

    def test_known_value(self):
        assert_allclose(c_ks((1, 0), 1), 1.0 + math.pi**2, rtol=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 4))
            K = tuple(int(v) for v in rng.integers(-3, 4, size=d))
            assert_allclose(c_ks(K, s), brute_c_ks(K, s), rtol=1e-12)

    def test_lower_bound(self):
        """c_{K,s} >= (pi^2 ||K||^2)^s / s! for random indices."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            s = int(rng.integers(1, 5))
            K = tuple(int(v) for v in rng.integers(-4, 5, size=d))
            nsq = sum(c * c for c in K)
            lower = (math.pi**2 * nsq) ** s / math.factorial(s)
            assert c_ks(K, s) >= lower - 1e-9 * abs(lower)

    def test_norm_matches_derivative_norms(self, cube_grid_2d):
        """sqrt(sum beta^2 c_{K,s}) equals the summed grid norms of D^M P."""
        rng = np.random.default_rng(42)
        P = TrigPolynomial({K: rng.normal() for K in enumerate_ball(2, 2)})
        s = 1
        total = 0.0
        for M in [(0, 0), (1, 0), (0, 1)]:
            derived = {}
            for K, beta in P.terms.items():
                coeff, Kp = partial_derivative(K, M)
                if coeff != 0.0:
                    derived[Kp] = derived.get(Kp, 0.0) + beta * coeff
            vals = np.zeros(cube_grid_2d.nodes.shape[0])
            for Kp, b in derived.items():
                vals += b * np.asarray(eval_T(Kp, cube_grid_2d.nodes))
            total += float(np.sum(cube_grid_2d.weights * vals * vals))
        assert_allclose(sobolev_norm_from_coeffs(P, s), math.sqrt(total), rtol=1e-10)

    def test_norm_requires_unit_scale(self):
        P = TrigPolynomial({(1,): 1.0}, scale=0.5)
        with pytest.raises(ScaleNotUnit):
            sobolev_norm_from_coeffs(P, 1)
