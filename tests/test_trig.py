import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    DimensionMismatch,
    IndexClass,
    ParameterOutOfRange,
    TrigPolynomial,
    classify,
    enumerate_ball,
    eval_T,
    partial_derivative,
)

from oracles import finite_difference

SQRT2 = math.sqrt(2.0)


class TestEvalT:
    """Pointwise values of the basis functions."""

    def test_constant(self):
        assert eval_T((0, 0), np.array([0.3, -0.7])) == 1.0

    def test_sin_class(self):
        """First nonzero entry positive: sqrt(2) sin(pi <K, x>)."""
        x = np.array([0.25])
        assert_allclose(eval_T((1,), x), SQRT2 * math.sin(math.pi * 0.25), rtol=1e-15)
        x2 = np.array([0.1, 0.2])
        assert_allclose(
            eval_T((2, -1), x2), SQRT2 * math.sin(math.pi * (0.2 - 0.2)), atol=1e-15
        )

    def test_cos_class(self):
        """First nonzero entry negative: sqrt(2) cos(pi <K, x>)."""
        x = np.array([0.25])
        assert_allclose(eval_T((-1,), x), SQRT2 * math.cos(math.pi * 0.25), rtol=1e-15)

    def test_batch_shape(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(17, 3))
        vals = eval_T((1, 0, -2), pts)
        assert vals.shape == (17,)

    def test_bounded_by_sqrt2(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1, 1, size=(500, 2))
        for K in [(1, 2), (-3, 0), (0, -1)]:
            assert np.max(np.abs(eval_T(K, pts))) <= SQRT2 + 1e-12


class TestOrthonormality:
    """The family is orthonormal for the uniform measure on the cube."""

    def test_gram_is_identity(self, cube_grid_2d):
        members = enumerate_ball(2, 2)
        V = np.column_stack([np.asarray(eval_T(K, cube_grid_2d.nodes)) for K in members])
        G = V.T @ (cube_grid_2d.weights[:, None] * V)
        assert_allclose(G, np.eye(len(members)), atol=1e-12)


class TestPartialDerivative:
    """Closed-form mixed partials D^M T_K = coeff * T_index."""

    def test_cos_class_single_derivative(self):
        """d/dx of sqrt(2) cos(pi x) is -pi * sqrt(2) sin(pi x)."""
        coeff, index = partial_derivative((-1,), (1,))
        assert index == (1,)
        assert_allclose(coeff, -math.pi, rtol=1e-15)

    def test_sin_class_single_derivative(self):
        coeff, index = partial_derivative((1,), (1,))
        assert index == (-1,)
        assert_allclose(coeff, math.pi, rtol=1e-15)

    def test_zero_order(self):
        assert partial_derivative((2, -1), (0, 0)) == (1.0, (2, -1))

    def test_vanishing_direction(self):
        """Differentiating along a zero component kills the term."""
        coeff, _ = partial_derivative((0, 3), (1, 0))
        assert coeff == 0.0

    def test_against_finite_differences(self):
        """Exact rule matches numerical derivatives for |M| <= 2."""
        rng = np.random.default_rng(42)
        indices = [(1, 0), (-1, 2), (2, -1), (0, -3), (-2, -2)]
        orders = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
        for K in indices:
            f = lambda x: float(eval_T(K, x))
            for M in orders:
                coeff, Kp = partial_derivative(K, M)
                for _ in range(3):
                    x = rng.uniform(-1, 1, size=2)
                    exact = coeff * float(eval_T(Kp, x))
                    approx = finite_difference(f, x, M, h=1e-4)
                    assert_allclose(approx, exact, atol=2e-4, rtol=1e-5)

    def test_second_derivative_sign(self):
        """Two derivatives in one coordinate give -pi^2 K_i^2 T_K."""
        coeff, index = partial_derivative((2, 1), (2, 0))
        assert index == (2, 1)
        assert_allclose(coeff, -(math.pi**2) * 4, rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_derivative((1, 0), (1,))

    def test_negative_order(self):
        with pytest.raises(ParameterOutOfRange):
            partial_derivative((1, 0), (-1, 0))


class TestTrigPolynomial:
    """Container semantics: evaluation, norms, serialization."""

    def test_evaluate_matches_terms(self):
        rng = np.random.default_rng(42)
        P = TrigPolynomial({(1, 0): 0.5, (-1, 1): -2.0, (0, 0): 0.25})
        x = rng.uniform(-1, 1, size=2)
        expected = 0.5 * eval_T((1, 0), x) - 2.0 * eval_T((-1, 1), x) + 0.25
        assert_allclose(P(x), expected, rtol=1e-14)

    def test_scale_applied_inside(self):
        P = TrigPolynomial({(1,): 1.0}, scale=0.5)
        assert_allclose(P(np.array([0.5])), SQRT2 * math.sin(math.pi * 0.25), rtol=1e-14)

    def test_zero_coefficients_dropped(self):
        P = TrigPolynomial({(1, 0): 0.0, (0, 1): 1.0})
        assert (1, 0) not in P.terms

    def test_parseval_matches_grid_norm(self, cube_grid_2d):
        rng = np.random.default_rng(42)
        members = enumerate_ball(2, 2)
        P = TrigPolynomial({K: rng.normal() for K in members})
        vals = np.asarray(P(cube_grid_2d.nodes))
        grid_norm = math.sqrt(float(np.sum(cube_grid_2d.weights * vals * vals)))
        parseval = math.sqrt(sum(beta * beta for beta in P.terms.values()))
        assert_allclose(parseval, grid_norm, rtol=1e-12)

    def test_json_round_trip(self):
        P = TrigPolynomial({(1, -2): 0.75, (0, 0): -1.5}, scale=0.5)
        Q = TrigPolynomial.from_json_dict(P.to_json_dict())
        assert Q.terms == P.terms
        assert Q.scale == P.scale
        assert Q.dimension == P.dimension

    def test_max_coefficient_and_max_norm_sq(self):
        P = TrigPolynomial({(1, 0): 0.5, (-2, 2): -3.0})
        assert P.max_coefficient() == 3.0
        assert P.max_norm_sq == 8

    def test_scale_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            TrigPolynomial({(1,): 1.0}, scale=1.5)

    def test_classify_consistency(self):
        """Every nonzero ball index lands in exactly one trig class."""
        for K in enumerate_ball(2, 2):
            if K == (0, 0):
                assert classify(K) is IndexClass.ZERO
            else:
                assert classify(K) in (IndexClass.SIN, IndexClass.COS)
