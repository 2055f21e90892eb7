import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    CapExceeded,
    DimensionMismatch,
    DkDistribution,
    EmptyFeatureList,
    FittedSpan,
    NotUnitNorm,
    ParameterOutOfRange,
    TrigPolynomial,
    estimate_minwidth,
    fit_span,
    l2_norm,
    success_probability,
    wilson_interval,
)
from widthlab import fitter
from widthlab.fitter import width_residuals
from widthlab.relu import _design_matrix

from oracles import relu_columns


def _features(rng, n, d):
    return DkDistribution(k=2, dimension=d).sample_batch(rng, n)


class TestFitSpan:
    """Weighted least-squares projection onto a feature span."""

    def test_fits_own_span_exactly(self, cube_grid_1d):
        """A function already in the span has residual ~ 0."""
        rng = np.random.default_rng(42)
        W, b = _features(rng, 5, 1)
        truth = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        f = lambda X: relu_columns(W, b, X) @ truth
        span = fit_span(W, b, f, cube_grid_1d)
        assert span.l2_error <= 1e-10

    def test_projection_never_exceeds_norm(self, cube_grid_1d):
        rng = np.random.default_rng(42)
        W, b = _features(rng, 3, 1)
        f = lambda X: np.sin(2.0 * X[:, 0])
        span = fit_span(W, b, f, cube_grid_1d)
        assert span.l2_error <= l2_norm(f, cube_grid_1d) + 1e-12

    def test_pythagoras(self, cube_grid_1d):
        """||f||^2 = ||fit||^2 + residual^2 for an L2 projection."""
        rng = np.random.default_rng(42)
        W, b = _features(rng, 4, 1)
        f = lambda X: np.cos(X[:, 0])
        span = fit_span(W, b, f, cube_grid_1d)
        fit_norm = l2_norm(lambda X: span.evaluate(X), cube_grid_1d)
        assert_allclose(fit_norm**2 + span.l2_error**2,
                        l2_norm(f, cube_grid_1d) ** 2, rtol=1e-10)

    def test_residual_invariant_to_order_and_duplicates(self, cube_grid_1d):
        rng = np.random.default_rng(42)
        W, b = _features(rng, 4, 1)
        f = lambda X: np.abs(X[:, 0]) - 0.5
        base = fit_span(W, b, f, cube_grid_1d).l2_error
        shuffled = fit_span(W[::-1], b[::-1], f, cube_grid_1d).l2_error
        doubled = fit_span(np.vstack([W, W[:2]]), np.concatenate([b, b[:2]]), f,
                           cube_grid_1d).l2_error
        assert_allclose(shuffled, base, atol=1e-10)
        assert_allclose(doubled, base, atol=1e-10)

    def test_scaling_equivariance(self, cube_grid_1d):
        """Scaling the target scales the residual by the same factor."""
        rng = np.random.default_rng(42)
        W, b = _features(rng, 3, 1)
        f = lambda X: np.sin(3.0 * X[:, 0])
        g = lambda X: 4.0 * np.sin(3.0 * X[:, 0])
        assert_allclose(fit_span(W, b, g, cube_grid_1d).l2_error,
                        4.0 * fit_span(W, b, f, cube_grid_1d).l2_error, rtol=1e-9)

    def test_empty_feature_list(self, cube_grid_1d):
        with pytest.raises(EmptyFeatureList):
            fit_span(np.empty((0, 1)), np.empty(0), lambda X: X[:, 0], cube_grid_1d)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])  # 1e200: its square overflows
    def test_non_finite_targets_raise(self, value, cube_grid_1d):
        f = lambda X: np.where(X[:, 0] > 0.5, value, 1.0)
        W, b = _features(np.random.default_rng(2), 3, 1)
        with pytest.raises(FloatingPointError, match="not finite"):
            fit_span(W, b, f, cube_grid_1d)
        dist = DkDistribution(k=2, dimension=1)
        with pytest.raises(FloatingPointError, match="not finite"):
            width_residuals(f(cube_grid_1d.nodes), cube_grid_1d, dist, [2], 1, trials=2)
        with pytest.raises(FloatingPointError, match="not finite"):
            estimate_minwidth(f, 0.1, 0.5, dist, cube_grid_1d, trials=2, r_max=4, seed=1)

    def test_coefficient_count_enforced(self):
        """``W``, ``b`` and the coefficients must have one entry per feature."""
        for rows, biases, coefficients in [(1, 1, 2), (2, 1, 2), (2, 2, 1)]:
            with pytest.raises(ParameterOutOfRange):
                FittedSpan(W=np.ones((rows, 1)), b=np.zeros(biases),
                           coefficients=np.zeros(coefficients), l2_error=0.0, grid_id="g")
        with pytest.raises(DimensionMismatch):  # one weight row per feature, not a vector
            FittedSpan(W=np.ones(2), b=np.zeros(2), coefficients=np.zeros(2), l2_error=0.0,
                       grid_id="g")

    def test_unit_rows_enforced(self):
        W = np.array([[0.6, 0.8], [0.6, 0.8 + 1e-11], [1.0, 0.0]])
        with pytest.raises(NotUnitNorm, match="1.0000000000"):
            FittedSpan(W=W, b=np.zeros(3), coefficients=np.zeros(3), l2_error=0.0,
                       grid_id="g")
        FittedSpan(W=W[[0, 2]], b=np.zeros(2), coefficients=np.zeros(2), l2_error=0.0,
                   grid_id="g")

    def test_holds_the_features_as_arrays(self, cube_grid_1d):
        W, b = _features(np.random.default_rng(42), 5, 1)
        span = fit_span(W, b, lambda X: np.sin(2.0 * X[:, 0]), cube_grid_1d)
        assert np.array_equal(span.W, W)
        assert np.array_equal(span.b, b)
        X = cube_grid_1d.nodes
        columns = relu_columns(W, b, X)
        assert_allclose(span.evaluate(X), columns @ span.coefficients, rtol=0.0, atol=1e-14)
        assert span.evaluate(X[3]) == span.evaluate(X)[3]

    def test_json_round_trippable_fields(self, cube_grid_1d):
        rng = np.random.default_rng(42)
        W, b = _features(rng, 2, 1)
        span = fit_span(W, b, lambda X: X[:, 0], cube_grid_1d)
        doc = span.to_json_dict()
        assert doc["features"] == [{"bias": float(bias), "weight": w.tolist()}
                                   for w, bias in zip(W, b)]
        assert len(doc["coefficients"]) == 2
        assert doc["grid_id"] == cube_grid_1d.spec.label()


class TestWilsonInterval:
    """Score intervals for binomial proportions, frozen against direct roots."""

    def test_frozen_values(self):
        assert_allclose(wilson_interval(8, 10),
                        (0.4901568467207234, 0.9433190520193068), rtol=1e-13)
        assert_allclose(wilson_interval(100, 200),
                        (0.4313596220903453, 0.5686403779096547), rtol=1e-13)

    def test_edge_counts_clamped(self):
        lo, hi = wilson_interval(0, 5)
        assert lo == 0.0
        assert_allclose(hi, 0.43449149475208104, rtol=1e-13)
        lo, hi = wilson_interval(5, 5)
        assert hi == 1.0
        assert_allclose(lo, 0.5655085052479187, rtol=1e-13)

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            s = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterOutOfRange):
            wilson_interval(3, 0)
        with pytest.raises(ParameterOutOfRange):
            wilson_interval(7, 5)


class TestSuccessProbability:
    """Monte Carlo success curves."""

    def test_certain_success_for_huge_epsilon(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.5})
        est = success_probability(P.evaluate, 10.0, DkDistribution(k=1, dimension=1),
                                  r=1, trials=20, grid=cube_grid_1d, seed=42)
        assert est.probability == 1.0
        assert est.ci_hi == 1.0
        assert est.r == 1 and est.trials == 20

    def test_certain_failure_for_tiny_epsilon(self, cube_grid_1d):
        f = lambda X: np.abs(X[:, 0])
        est = success_probability(f, 1e-12, DkDistribution(k=1, dimension=1),
                                  r=2, trials=20, grid=cube_grid_1d, seed=42)
        assert est.probability == 0.0

    def test_coupled_monotone_in_width(self, cube_grid_1d):
        """Success never drops as width grows: trial draws are nested."""
        P = TrigPolynomial({(1,): 0.7})
        dist = DkDistribution(k=1, dimension=1)
        probs = [
            success_probability(P.evaluate, 0.25, dist, r=r, trials=25,
                                grid=cube_grid_1d, seed=42).probability
            for r in (1, 2, 4, 8, 16)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_interval_brackets_probability(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        est = success_probability(P.evaluate, 0.25, DkDistribution(k=1, dimension=1),
                                  r=4, trials=40, grid=cube_grid_1d, seed=5)
        assert est.ci_lo <= est.probability <= est.ci_hi

    def test_rejects_bad_parameters(self, cube_grid_1d):
        dist = DkDistribution(k=1, dimension=1)
        with pytest.raises(ParameterOutOfRange):
            success_probability(lambda X: X[:, 0], 0.1, dist, r=0, trials=5,
                                grid=cube_grid_1d, seed=1)
        with pytest.raises(ParameterOutOfRange):
            success_probability(lambda X: X[:, 0], 0.1, dist, r=1, trials=0,
                                grid=cube_grid_1d, seed=1)
        with pytest.raises(ParameterOutOfRange):
            success_probability(lambda X: X[:, 0], -0.1, dist, r=1, trials=5,
                                grid=cube_grid_1d, seed=1)


class TestTrialResiduals:
    """The one trial engine at one width: seeds and shapes."""

    def test_one_row_per_trial_matching_fit_span(self, cube_grid_1d):
        a = np.abs(cube_grid_1d.nodes[:, 0])
        b = np.cos(3.0 * cube_grid_1d.nodes[:, 0])
        dist = DkDistribution(k=2, dimension=1)
        single = width_residuals(a, cube_grid_1d, dist, [3], 9, trials=4)[:, 0]
        many = width_residuals(np.column_stack([a, b]), cube_grid_1d, dist, [3], 9,
                               trials=4)[:, 0]
        assert single.shape == (4,) and many.shape == (4, 2)
        assert_allclose(many[:, 0], single, rtol=1e-12)
        for t in range(4):
            W, b = _features(np.random.default_rng([9, t]), 3, 1)
            span = fit_span(W, b, lambda X: np.cos(3.0 * X[:, 0]), cube_grid_1d)
            assert_allclose(many[t, 1], span.l2_error, rtol=1e-12)

    def test_design_matrix_matches_feature_by_feature_columns(self, cube_grid_2d):
        W, b = _features(np.random.default_rng([4, 1]), 30, 2)
        nodes = cube_grid_2d.nodes
        design = _design_matrix(W, b, nodes)
        assert design.shape == (len(nodes), 30)
        columns = relu_columns(W, b, nodes)
        assert_allclose(design, columns, rtol=0.0, atol=1e-15)


class TestInPlaceQR:
    """``fitter._qr_in_place`` calls numpy's ``lapack_lite`` bindings, a private API;
    these pin it to ``np.linalg.qr`` bit for bit on the shapes the solves factor."""

    @pytest.mark.parametrize("n, w, m", [
        (20_736, 4, 1),   # targets joined, tall
        (13_824, 8, 33),  # many targets, tall
        (24, 32, 1),      # wide: more columns than nodes
        (24, 32, 40),
        (500, 1, 1),      # one column, the BLAS vector edge
        (6, 4, 3),        # joined, with fewer nodes than columns
        (576, 200, 1),    # past LAPACK's crossover of 128: blocked, so lwork matters
    ], ids=["joined_tall", "many_tall", "wide_joined", "wide_many", "one_column",
            "n_below_w_plus_m", "blocked"])
    @pytest.mark.parametrize("form_q", [False, True], ids=["r", "q"])
    def test_bits_of_numpy_qr(self, n, w, m, form_q):
        cols = w + m if m < w else w  # the columns _factor's branch factors
        rng = np.random.default_rng([n, cols])
        A = rng.standard_normal((3, n, cols))
        A[:, :, -1] = A[:, :, 0]  # a dependent column, as duplicate draws give
        stack = np.swapaxes(A, -1, -2).copy()  # each slot column-major
        R = fitter._qr_in_place(stack, form_q)
        assert np.array_equal(R, np.linalg.qr(A, mode="r"))
        if form_q:
            k = min(n, cols)
            Q = np.linalg.qr(A)[0]
            assert np.array_equal(stack[:, :k], np.swapaxes(Q, -1, -2))

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
    def test_nonzero_info_raises(self, routine, monkeypatch, cube_grid_1d):
        binding = getattr(fitter.lapack_lite, routine)

        def failing(*args):
            if args[-2] == -1:  # the workspace query
                return binding(*args)
            return {"info": -1}

        monkeypatch.setattr(fitter.lapack_lite, routine, failing)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            fitter._qr_in_place(np.ones((2, 3, 10)), form_q=True)
        # one feature and one target take the branch that forms Q
        W, b = _features(np.random.default_rng(3), 1, 1)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            fit_span(W, b, lambda X: X[:, 0], cube_grid_1d)


class TestEstimateMinwidth:
    """Doubling + bisection width search."""

    def test_zero_target_needs_width_one(self, cube_grid_1d):
        est = estimate_minwidth(lambda X: np.zeros(X.shape[0]), 0.1, 0.1,
                                DkDistribution(k=1, dimension=1), cube_grid_1d,
                                trials=10, r_max=64, seed=42)
        assert est.r_hat == 1
        assert est.success_prob_at_r_hat == 1.0
        assert est.search_trace[0][0] == 1

    def test_reproducible(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        dist = DkDistribution(k=1, dimension=1)
        kwargs = dict(trials=20, r_max=256, seed=42)
        a = estimate_minwidth(P.evaluate, 0.2, 0.25, dist, cube_grid_1d, **kwargs)
        b = estimate_minwidth(P.evaluate, 0.2, 0.25, dist, cube_grid_1d, **kwargs)
        assert a.r_hat == b.r_hat
        assert a.search_trace == b.search_trace

    def test_trace_records_probes_and_passing_width(self, cube_grid_1d):
        P = TrigPolynomial({(1,): 0.7})
        est = estimate_minwidth(P.evaluate, 0.2, 0.25, DkDistribution(k=1, dimension=1),
                                cube_grid_1d, trials=20, r_max=256, seed=42)
        probed = dict(est.search_trace)
        assert est.r_hat in probed
        assert probed[est.r_hat] >= 0.75
        # every strictly smaller probed width failed, up to the bisection gap
        smaller = [r for r in probed if r < est.r_hat]
        if smaller:
            assert probed[max(smaller)] < 0.75

    def test_cap_exceeded(self, cube_grid_1d):
        f = lambda X: np.abs(X[:, 0])
        with pytest.raises(CapExceeded):
            estimate_minwidth(f, 1e-9, 0.25, DkDistribution(k=1, dimension=1),
                              cube_grid_1d, trials=5, r_max=8, seed=42)

    def test_rejects_bad_delta(self, cube_grid_1d):
        with pytest.raises(ParameterOutOfRange):
            estimate_minwidth(lambda X: X[:, 0], 0.1, 0.0,
                              DkDistribution(k=1, dimension=1), cube_grid_1d,
                              trials=5, r_max=8, seed=42)

    def test_result_is_json_friendly(self, cube_grid_1d):
        est = estimate_minwidth(lambda X: np.zeros(X.shape[0]), 0.1, 0.1,
                                DkDistribution(k=1, dimension=1), cube_grid_1d,
                                trials=5, r_max=8, seed=42)
        doc = est.to_json_dict()
        assert isinstance(doc["search_trace"], list)
        assert doc["r_hat"] == 1
