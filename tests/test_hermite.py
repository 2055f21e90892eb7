import itertools
import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    GAUSSIAN,
    MONTE_CARLO,
    CapExceeded,
    DegreeCap,
    DimensionMismatch,
    HermitePolynomial,
    NegativeIndex,
    ParameterOutOfRange,
    QuadratureSpec,
    WrongMeasure,
    h_univariate,
    H_multivariate,
    hermite_partial,
    hermite_truncate,
    make_grid,
    tensor_gauss_grid,
    term_by_term_coeffs,
)
from widthlab.hermite import _univariate_table

from oracles import sum_rounding

SQRT2 = math.sqrt(2.0)
_MC_GRID_1D = make_grid(QuadratureSpec(GAUSSIAN, MONTE_CARLO, 1, sample_count=300, seed=4))
_MC_GRID_3D = make_grid(QuadratureSpec(GAUSSIAN, MONTE_CARLO, 3, sample_count=500, seed=5))
_FEW_NODES_3D = tensor_gauss_grid(GAUSSIAN, 3, 4)


class TestUnivariate:
    """Normalized Hermite values and the three-term recurrence."""

    def test_low_degrees(self):
        assert h_univariate(0, 1.7) == 1.0
        assert h_univariate(1, 1.7) == 1.7
        # h_2(z) = (z^2 - 1)/sqrt(2)
        assert_allclose(h_univariate(2, 2.0), 3.0 / SQRT2, rtol=1e-14)

    def test_recurrence_holds(self):
        """sqrt(n+1) h_{n+1} = z h_n - sqrt(n) h_{n-1} at random points."""
        rng = np.random.default_rng(42)
        z = rng.uniform(-2, 2, size=50)
        for n in range(1, 30):
            lhs = math.sqrt(n + 1) * h_univariate(n + 1, z)
            rhs = z * h_univariate(n, z) - math.sqrt(n) * h_univariate(n - 1, z)
            assert_allclose(lhs, rhs, atol=1e-10)

    def test_derivative_identity(self):
        """h_n' = sqrt(n) h_{n-1}, checked by central differences."""
        rng = np.random.default_rng(42)
        h = 1e-5
        for n in range(1, 21):
            for z in rng.uniform(-2, 2, size=5):
                numeric = (h_univariate(n, z + h) - h_univariate(n, z - h)) / (2 * h)
                exact = math.sqrt(n) * h_univariate(n - 1, z)
                assert_allclose(numeric, exact, atol=1e-6, rtol=1e-7)

    def test_vectorized(self):
        z = np.linspace(-1, 1, 7)
        assert h_univariate(3, z).shape == (7,)

    def test_degree_cap(self):
        with pytest.raises(DegreeCap):
            h_univariate(201, 0.0)
        h_univariate(200, 0.0)  # boundary accepted

    def test_negative_degree(self):
        with pytest.raises(NegativeIndex):
            h_univariate(-1, 0.0)

    def test_orthonormal_under_gaussian(self, gauss_grid_1d):
        """E[h_m h_n] = delta_mn for degrees within the grid's exactness."""
        z = gauss_grid_1d.nodes[:, 0]
        w = gauss_grid_1d.weights
        vals = np.column_stack([h_univariate(n, z) for n in range(12)])
        gram = vals.T @ (w[:, None] * vals)
        assert_allclose(gram, np.eye(12), atol=1e-8)


class TestMultivariate:
    """Coordinate-product basis functions."""

    def test_zero_index_is_one(self):
        assert H_multivariate((0, 0), np.array([0.3, -1.2])) == 1.0

    def test_product_structure(self):
        x = np.array([0.7, -0.4])
        assert_allclose(
            H_multivariate((1, 1), x), 0.7 * (-0.4), rtol=1e-14
        )
        assert_allclose(
            H_multivariate((2, 1), x),
            h_univariate(2, 0.7) * (-0.4), rtol=1e-14,
        )

    def test_batch(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(9, 3))
        vals = H_multivariate((1, 0, 2), X)
        assert vals.shape == (9,)
        assert_allclose(vals, X[:, 0] * h_univariate(2, X[:, 2]), rtol=1e-13)

    def test_negative_index(self):
        with pytest.raises(NegativeIndex):
            H_multivariate((1, -1), np.array([0.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            H_multivariate((1, 1), np.array([0.0, 0.0, 0.0]))

    def test_orthonormal_under_gaussian(self, gauss_grid_2d):
        indices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
        V = np.column_stack([H_multivariate(K, gauss_grid_2d.nodes) for K in indices])
        gram = V.T @ (gauss_grid_2d.weights[:, None] * V)
        assert_allclose(gram, np.eye(len(indices)), atol=1e-8)


class TestHermitePartial:
    """Index-space differentiation."""

    def test_basic_rule(self):
        coeff, down = hermite_partial((2, 0), 0)
        assert down == (1, 0)
        assert_allclose(coeff, SQRT2, rtol=1e-15)

    def test_zero_component_kills_term(self):
        coeff, down = hermite_partial((2, 0), 1)
        assert coeff == 0.0 and down == (2, 0)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParameterOutOfRange):
            hermite_partial((1, 1), 2)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for K in [(1, 0), (2, 1), (0, 3), (2, 2)]:
            for i in (0, 1):
                coeff, down = hermite_partial(K, i)
                for _ in range(3):
                    x = rng.uniform(-1.5, 1.5, size=2)
                    e = np.zeros(2)
                    e[i] = h
                    numeric = (H_multivariate(K, x + e) - H_multivariate(K, x - e)) / (2 * h)
                    exact = coeff * H_multivariate(down, x)
                    assert_allclose(numeric, exact, atol=5e-6)


class TestHermitePolynomial:
    """Sparse expansions: evaluation, norm, serialization, differentiation."""

    def test_evaluate_matches_terms(self):
        rng = np.random.default_rng(42)
        P = HermitePolynomial({(1, 0): 0.5, (0, 2): -1.0, (0, 0): 0.25})
        X = rng.normal(size=(20, 2))
        expected = (0.5 * H_multivariate((1, 0), X)
                    - 1.0 * H_multivariate((0, 2), X) + 0.25)
        assert_allclose(P(X), expected, rtol=1e-13)

    def test_norm_by_orthonormality(self, gauss_grid_2d):
        """sqrt(sum alpha^2) equals the measured Gaussian L2 norm."""
        rng = np.random.default_rng(42)
        terms = {(i, j): rng.normal() for i in range(3) for j in range(3)}
        P = HermitePolynomial(terms)
        vals = P(gauss_grid_2d.nodes)
        measured = math.sqrt(float(np.sum(gauss_grid_2d.weights * vals**2)))
        assert_allclose(P.norm(), measured, rtol=1e-9)

    def test_zero_coefficients_dropped(self):
        P = HermitePolynomial({(1, 0): 0.0, (0, 1): 2.0})
        assert (1, 0) not in P.terms

    def test_negative_index_rejected(self):
        with pytest.raises(NegativeIndex):
            HermitePolynomial({(-1, 0): 1.0})

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            HermitePolynomial({(1,): 1.0, (1, 0): 2.0})

    def test_json_round_trip(self):
        P = HermitePolynomial({(2, 0): 0.75, (0, 1): -0.5})
        doc = P.to_json_dict()
        assert doc["basis"] == "hermite"
        Q = HermitePolynomial.from_json_dict(doc)
        assert Q.terms == P.terms and Q.dimension == P.dimension

    def test_from_json_requires_basis_tag(self):
        with pytest.raises(ParameterOutOfRange):
            HermitePolynomial.from_json_dict({"terms": []})

    def test_term_by_term_derivative(self):
        """d/dx_0 of alpha H_(2,0) is alpha sqrt(2) H_(1,0)."""
        P = HermitePolynomial({(2, 0): 1.0})
        D = term_by_term_coeffs(P, 0)
        assert set(D.terms) == {(1, 0)}
        assert_allclose(D.terms[(1, 0)], SQRT2, rtol=1e-15)

    def test_term_by_term_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        P = HermitePolynomial({(1, 0): 0.3, (2, 1): -0.7, (0, 2): 1.1})
        D = term_by_term_coeffs(P, 1)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=2)
            e = np.array([0.0, h])
            numeric = (P(x + e) - P(x - e)) / (2 * h)
            assert_allclose(numeric, D(x), atol=5e-6)

    def test_constant_derivative_is_empty(self):
        P = HermitePolynomial({(0, 0): 5.0})
        D = term_by_term_coeffs(P, 0)
        assert D.terms == {}
        assert D.dimension == 2


class TestHermiteTruncate:
    """Simplex truncation |K|_1 <= ceil(L^2 / eps^2) on Gaussian grids."""

    def test_exact_recovery_of_low_degree(self, gauss_grid_2d):
        P = HermitePolynomial({(1, 0): 1.0, (0, 2): -0.5, (1, 1): 0.25})
        report = hermite_truncate(P.evaluate, 2.0, 1.0, gauss_grid_2d)
        assert report.degree_budget == 4
        assert report.residual_estimate <= 1e-8
        assert_allclose(report.polynomial.terms[(0, 2)], -0.5, atol=1e-9)
        assert_allclose(report.polynomial.terms[(1, 1)], 0.25, atol=1e-9)

    def test_tail_outside_budget(self, gauss_grid_1d):
        """h_{k+1} is orthogonal to the kept simplex: residual 1."""
        f = lambda X: h_univariate(5, X[:, 0])
        report = hermite_truncate(f, 2.0, 1.0, gauss_grid_1d)
        assert report.degree_budget == 4
        assert_allclose(report.residual_estimate, 1.0, rtol=1e-8)
        assert report.max_coefficient <= 1e-8

    def test_budget_formula(self, gauss_grid_1d):
        report = hermite_truncate(lambda X: X[:, 0], 3.0, 2.0, gauss_grid_1d)
        assert report.degree_budget == math.ceil(9.0 / 4.0)

    def test_projection_pythagoras(self, gauss_grid_1d):
        """Kept norm^2 + residual^2 = target norm^2 for a projection."""
        f = lambda X: np.sin(2.0 * X[:, 0])
        report = hermite_truncate(f, 2.0, 1.0, gauss_grid_1d)
        w, z = gauss_grid_1d.weights, gauss_grid_1d.nodes
        f_norm_sq = float(np.sum(w * f(z) ** 2))
        kept_sq = report.polynomial.norm() ** 2
        assert_allclose(kept_sq + report.residual_estimate**2, f_norm_sq, atol=1e-9)

    def test_sine_tail_energy(self, gauss_grid_1d):
        """For f = sin(2z): E[f^2] = (1 - e^-8)/2, and the degree-4 simplex
        already captures most of it."""
        f = lambda X: np.sin(2.0 * X[:, 0])
        report = hermite_truncate(f, 2.0, 1.0, gauss_grid_1d)
        f_norm = math.sqrt(0.49983226868604874)
        assert report.residual_estimate <= f_norm
        assert report.polynomial.terms[(1,)] != 0.0

    def test_wrong_measure(self, cube_grid_1d):
        with pytest.raises(WrongMeasure):
            hermite_truncate(lambda X: X[:, 0], 2.0, 1.0, cube_grid_1d)

    def test_degree_cap(self, gauss_grid_1d):
        with pytest.raises(DegreeCap):
            hermite_truncate(lambda X: X[:, 0], 20.0, 1.0, gauss_grid_1d)

    def test_simplex_cap(self, gauss_grid_3d, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "10")
        with pytest.raises(CapExceeded):
            hermite_truncate(lambda X: X[:, 0], 3.0, 1.0, gauss_grid_3d)

    @pytest.mark.parametrize("grid", [_MC_GRID_3D, _FEW_NODES_3D],
                             ids=["monte_carlo", "tensor_fewer_nodes_than_degrees"])
    def test_walk_matches_recursion_over_coordinates_bit_for_bit(self, grid):
        """The index simplex in lexicographic order, one product per coordinate,
        where the walk runs: on a grid without axes, and on a tensor grid whose
        4 nodes per axis are fewer than the 5 table rows of degree budget 4.
        Only the coefficients above the rounding bound of their sums are kept."""
        f = lambda X: np.sin(X[:, 0] + 0.5 * X[:, 1]) * np.cos(X[:, 2])
        report = hermite_truncate(f, 2.0, 1.0, grid)
        assert report.degree_budget == 4
        assert grid.axes is None or grid.axes[0].size < 5
        nodes, w = grid.nodes, grid.weights
        weighted = w * f(nodes)
        tables = [_univariate_table(4, nodes[:, j]) for j in range(3)]
        terms, approx = {}, np.zeros(len(nodes))

        def descend(j, budget, prefix, prod):
            if j == 3:
                alpha = float(np.sum(weighted * prod))
                if abs(alpha) > sum_rounding(grid.axes or (), weighted * prod):
                    terms[prefix] = alpha
                    np.add(approx, alpha * prod, out=approx)
                return
            for deg in range(budget + 1):
                descend(j + 1, budget - deg, prefix + (deg,), prod * tables[j][deg])

        descend(0, 4, (), np.ones(len(nodes)))
        assert list(report.polynomial.terms.items()) == list(terms.items())
        diff = f(nodes) - approx
        assert report.residual_estimate == float(np.sqrt(np.sum(w * diff * diff)))

    @pytest.mark.parametrize("grid_name", ["d1", "d2", "d3", "d1_monte_carlo"])
    def test_contraction_matches_per_index_quadrature(self, grid_name, gauss_grid_1d,
                                                      gauss_grid_2d, gauss_grid_3d):
        """On grids with axes of more than ``k`` nodes: every simplex coefficient
        within the rounding of its n-term sum of ``w f H_K``, the simplex in
        lexicographic order, and the residual within what those differences and
        the rounding of the truncation's values allow."""
        grid = {"d1": gauss_grid_1d, "d2": gauss_grid_2d, "d3": gauss_grid_3d,
                "d1_monte_carlo": _MC_GRID_1D}[grid_name]
        d = grid.dimension
        f = lambda X: np.sin(X[:, 0] + 0.5 * X[:, -1]) * np.cos(X[:, -1]) + np.abs(X[:, 0])
        report = hermite_truncate(f, 2.0, 0.7, grid)
        k = report.degree_budget
        assert k == 9 and all(axis.size > k for axis in grid.axes)
        simplex = [K for K in itertools.product(range(k + 1), repeat=d) if sum(K) <= k]
        terms = report.polynomial.terms
        assert list(terms) == [K for K in simplex if K in terms]
        weighted = grid.weights * f(grid.nodes)
        # the same tables on the same coordinates: only the d-fold products and
        # the order of the sums differ
        chain = len(simplex) + sum(axis.size for axis in grid.axes) + 2 * d
        approx, slack = np.zeros(grid.nodes.shape[0]), np.zeros(grid.nodes.shape[0])
        for K in simplex:
            column = H_multivariate(K, grid.nodes)
            tol = sum_rounding(grid.axes, weighted * column, 2 * d)
            alpha = terms.get(K, 0.0)
            assert abs(alpha - float(np.sum(weighted * column))) <= tol, K
            approx += alpha * column
            slack += (tol + chain * np.finfo(float).eps * abs(alpha)) * np.abs(column)
        direct = math.sqrt(float(np.sum(grid.weights * (f(grid.nodes) - approx) ** 2)))
        assert abs(report.residual_estimate - direct) <= math.sqrt(
            float(np.sum(grid.weights * slack**2)))

    @pytest.mark.parametrize("grid_name", ["d2", "d3"])
    def test_hermite_polynomial_keeps_exactly_its_support(self, grid_name, gauss_grid_2d,
                                                          gauss_grid_3d):
        terms = {(1, 0): 1.0, (0, 2): -0.5, (1, 1): 0.25, (0, 0): 0.125}
        if grid_name == "d3":
            terms = {K + (j,): a for j, (K, a) in enumerate(terms.items())}
        grid = {"d2": gauss_grid_2d, "d3": gauss_grid_3d}[grid_name]
        P = HermitePolynomial(terms)
        report = hermite_truncate(P.evaluate, 2.0, 1.0, grid)
        assert report.degree_budget == 4
        assert set(report.polynomial.terms) == set(terms)
        assert_allclose([report.polynomial.terms[K] for K in terms], list(terms.values()),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grid_name", ["d2", "d3", "d1_monte_carlo"])
    def test_dropped_contraction_coefficients_are_within_their_bound(
            self, grid_name, gauss_grid_2d, gauss_grid_3d):
        """A dropped ``alpha_K`` is at most the bound on ``sum |w f H_K|``, which
        the contraction forms from the tables' magnitudes; its per-index sum is
        within that bound and the rounding between the two routes."""
        grid = {"d2": gauss_grid_2d, "d3": gauss_grid_3d, "d1_monte_carlo": _MC_GRID_1D}[grid_name]
        d = grid.dimension
        f = lambda X: np.cos(X[:, 0]) * (1.0 + X[:, -1] ** 2) + np.abs(X[:, 0])
        report = hermite_truncate(f, 2.0, 0.7, grid)
        k = report.degree_budget
        assert all(axis.size > k for axis in grid.axes)
        simplex = [K for K in itertools.product(range(k + 1), repeat=d) if sum(K) <= k]
        dropped = [K for K in simplex if K not in report.polynomial.terms]
        if grid_name != "d1_monte_carlo":
            assert len(dropped) > len(simplex) // 2
        weighted = grid.weights * f(grid.nodes)
        for K in dropped:
            products = weighted * H_multivariate(K, grid.nodes)
            bound = sum_rounding(grid.axes, products, 2 * d)
            assert abs(float(np.sum(products))) <= 2 * bound, K

    def test_dimension_past_the_recursion_limit(self):
        """Budget 1 in more dimensions than Python frames: the constant and every
        ``x_j``, with the residual of those ``1 + d`` terms."""
        d = sys.getrecursionlimit() + 200
        grid = make_grid(QuadratureSpec(GAUSSIAN, MONTE_CARLO, d, sample_count=50, seed=3))
        f = lambda X: np.abs(X[:, 0]) + np.sum(X[:, :3], axis=1)
        report = hermite_truncate(f, 1.0, 1.0, grid)
        assert report.degree_budget == 1
        assert len(report.polynomial.terms) == 1 + d
        X, w = grid.nodes, grid.weights
        constant, linear = float(np.sum(w * f(X))), (w * f(X)) @ X
        assert_allclose(report.polynomial.terms[(0,) * d], constant, rtol=1e-13)
        assert_allclose([report.polynomial.terms[tuple(np.eye(d, dtype=int)[j])]
                         for j in range(d)], linear, rtol=1e-12)
        direct = math.sqrt(float(np.sum(w * (f(X) - constant - X @ linear) ** 2)))
        assert_allclose(report.residual_estimate, direct, rtol=1e-10)
