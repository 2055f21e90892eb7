import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    UNIFORM_CUBE,
    CapExceeded,
    DimensionMismatch,
    DkDistribution,
    EmptyFeatureList,
    FittedSpan,
    NotUnitNorm,
    ParameterOutOfRange,
    SuccessEstimate,
    TrigPolynomial,
    estimate_minwidth,
    evaluate_on,
    fit_span,
    hard_family_ball,
    projection_residuals,
    success_probability,
    tensor_gauss_grid,
    wilson_interval,
)
from widthlab import fitter
from widthlab.fitter import width_residuals
from widthlab.relu import _design_matrix

from oracles import MemberDistribution, relu_columns


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
        assert span.l2_error <= cube_grid_1d.norm(evaluate_on(f, cube_grid_1d.nodes)) + 1e-12

    def test_pythagoras(self, cube_grid_1d):
        """||f||^2 = ||fit||^2 + residual^2 for an L2 projection."""
        rng = np.random.default_rng(42)
        W, b = _features(rng, 4, 1)
        f = lambda X: np.cos(X[:, 0])
        span = fit_span(W, b, f, cube_grid_1d)
        nodes = cube_grid_1d.nodes
        fit_norm = cube_grid_1d.norm(span.evaluate(nodes))
        assert_allclose(fit_norm**2 + span.l2_error**2,
                        cube_grid_1d.norm(evaluate_on(f, nodes)) ** 2, rtol=1e-10)

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

    @pytest.mark.parametrize("entry", [
        lambda W, b, grid: fit_span(W, b, lambda X: np.cos(X[:, 0]), grid),
        lambda W, b, grid: projection_residuals(W, b, hard_family_ball(1, 1), grid),
        lambda W, b, grid: FittedSpan(W=W, b=b, coefficients=np.zeros(len(b)), l2_error=0.0,
                                      grid_id="g"),
    ], ids=["fit_span", "projection_residuals", "FittedSpan"])
    @pytest.mark.parametrize("weight, bias, error", [
        (np.nan, 0.5, NotUnitNorm),
        (1.0, np.nan, ParameterOutOfRange),
        (1.0, np.inf, ParameterOutOfRange),
        (1.0, -np.inf, ParameterOutOfRange),
    ], ids=["nan_row", "nan_bias", "inf_bias", "minus_inf_bias"])
    def test_non_finite_features_are_refused(self, entry, weight, bias, error, cube_grid_1d):
        """A NaN weight row has no unit norm, and a bias must be finite."""
        W, b = np.array([[1.0], [weight]]), np.array([0.25, bias])
        with pytest.raises(error):
            entry(W, b, cube_grid_1d)

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


class TestSamplingCap:
    """``fitter.check_sampling_cap``, the CLI's rule, in every trial entry."""

    @pytest.mark.parametrize("trials, widest, message", [
        (2, 100, "design matrix of 24 grid nodes x 100 features exceeds the cap 1000; "
                  "the widest width that fits is 41"),
        (100, 20, "trials x max(r) = 100 x 20 exceeds the cap 1000; "
                  "the widest width that fits is 10"),
    ], ids=["design", "draws"])
    @pytest.mark.parametrize("entry", ["success_probability", "width_residuals",
                                       "estimate_minwidth"])
    def test_sampling_past_the_cap_is_refused_before_a_draw(self, monkeypatch, entry, trials,
                                                            widest, message):
        """The trial entries refuse what the CLI refuses (``fitter.check_sampling_cap``),
        with its message, before they draw."""
        grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 24)
        dist = DkDistribution(k=2, dimension=1)
        f = lambda X: np.abs(X[:, 0])
        draws = []
        monkeypatch.setattr(fitter, "_draw", lambda *args: draws.append(args))
        monkeypatch.setenv("WIDTHLAB_CAP", "1000")
        calls = {
            "success_probability": lambda: success_probability(f, 0.1, dist, widest, trials,
                                                               grid, 1),
            "width_residuals": lambda: width_residuals(f(grid.nodes), grid, dist, [widest], 1,
                                                       trials),
            "estimate_minwidth": lambda: estimate_minwidth(f, 0.1, 0.5, dist, grid, trials,
                                                           widest, 1),
        }
        with pytest.raises(CapExceeded) as raised:
            calls[entry]()
        assert str(raised.value) == message
        assert draws == []


_BAD_ARGUMENTS = {  # (widths, trials, epsilon)
    "a_negative_width_beside_a_positive_one": ([2, -3], 4, 0.1),
    "one_negative_width": ([-1], 4, 0.1), "no_width": ([], 4, 0.1),
    "negative_trials": ([2], -1, 0.1), "no_trial": ([2], 0, 0.1), "zero_epsilon": ([2], 4, 0.0),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ("success_probability", "width_residuals", "estimate_minwidth")
    for case in _BAD_ARGUMENTS if (entry, case) != ("width_residuals", "zero_epsilon")])
def test_the_trial_entries_share_one_argument_check(monkeypatch, entry, case):
    """Each trial entry refuses a width below its least (0 for ``width_residuals``, 1
    for the others; the search's ``r_max`` stands for its widths), no width, fewer
    than one trial and a nonpositive ``epsilon`` before it draws; ``width_residuals``
    takes no ``epsilon``."""
    widths, trials, epsilon = _BAD_ARGUMENTS[case]
    grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 24)
    dist = DkDistribution(k=2, dimension=1)
    f = lambda X: np.abs(X[:, 0])

    def refuse(*args):
        raise AssertionError("drawn before the arguments were checked")

    monkeypatch.setattr(fitter, "_draw", refuse)
    calls = {
        "success_probability": lambda: success_probability(f, epsilon, dist, widths, trials,
                                                           grid, 1),
        "width_residuals": lambda: width_residuals(f(grid.nodes), grid, dist, widths, 1,
                                                   trials),
        "estimate_minwidth": lambda: estimate_minwidth(f, epsilon, 0.5, dist, grid, trials,
                                                       min(widths, default=0), 1),
    }
    with pytest.raises(ParameterOutOfRange):
        calls[entry]()


def _success_from_residuals(f, epsilon, dist, widths, trials, grid, seed):
    """:func:`success_probability` with each trial decided by ``width_residuals <= epsilon``."""
    residuals = width_residuals(evaluate_on(f, grid.nodes), grid, dist, widths, seed, trials)
    estimates = []
    for width, passed in zip(widths, (residuals <= epsilon).T):
        successes = int(np.count_nonzero(passed))
        lo, hi = wilson_interval(successes, trials)
        estimates.append(SuccessEstimate(successes / trials, lo, hi, trials, width, epsilon))
    return estimates


def _minwidth_from_residuals(f, epsilon, delta, dist, grid, trials, r_max, seed):
    """``(r_hat, search_trace)`` of :func:`estimate_minwidth`, replayed from every trial's
    first width whose ``width_residuals`` is within ``epsilon``."""
    widths = range(1, r_max + 1)
    passed = width_residuals(evaluate_on(f, grid.nodes), grid, dist, widths, seed,
                             trials) <= epsilon
    # the search takes a trial that passes at a width to pass at every wider one
    assert np.all(passed[:, :-1] <= passed[:, 1:])
    first = np.where(passed[:, -1], np.argmax(passed, axis=1) + 1, r_max + 1)
    threshold, trace = 1.0 - delta, []

    def probe(r):
        trace.append((r, int(np.count_nonzero(first <= r)) / trials))
        return trace[-1][1]

    r, last_fail = 1, 0
    while probe(r) < threshold:
        assert r < r_max
        last_fail, r = r, min(2 * r, r_max)
    lo, hi = last_fail, r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return hi, trace


def _member_case():
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 24)
    family = hard_family_ball(2, 2)
    N = len(family)
    return (family.members[5], 0.5, MemberDistribution(family), grid, [1, 5, N, 3 * N],
            0.3, 8 * N)


# (target, epsilon, dist, grid, widths, delta, r_max): D_k at d = 1 on 8 nodes, so that
# widths past 8 cut rank in their blocks, D_k at d = 2, and the members of an
# orthonormal family as features.
_CASES = {
    "dk_d1_past_the_nodes": lambda: (
        TrigPolynomial({(1,): 0.7, (3,): 0.3}).evaluate, 0.1, DkDistribution(k=1, dimension=1),
        tensor_gauss_grid(UNIFORM_CUBE, 1, 8), list(range(1, 25)), 0.25, 32),
    "dk_d2": lambda: (
        TrigPolynomial({(1, 0): 0.7, (1, 1): 0.3}).evaluate, 0.3,
        DkDistribution(k=1, dimension=2), tensor_gauss_grid(UNIFORM_CUBE, 2, 12),
        [1, 3, 8, 20, 40], 0.5, 64),
    "members": _member_case,
}
_TRIALS, _SEED = 16, 3


def _mismatches(case):
    """What :func:`success_probability` and :func:`estimate_minwidth` report differently
    from deciding every trial by ``width_residuals <= epsilon``."""
    f, epsilon, dist, grid, widths, delta, r_max = _CASES[case]()
    out = []
    got = success_probability(f, epsilon, dist, widths, _TRIALS, grid, _SEED)
    want = _success_from_residuals(f, epsilon, dist, widths, _TRIALS, grid, _SEED)
    out += [(g, w) for g, w in zip(got, want) if g != w]
    est = estimate_minwidth(f, epsilon, delta, dist, grid, _TRIALS, r_max, _SEED)
    r_hat, trace = _minwidth_from_residuals(f, epsilon, delta, dist, grid, _TRIALS, r_max,
                                            _SEED)
    if (est.r_hat, est.search_trace) != (r_hat, trace):
        out.append(((est.r_hat, est.search_trace), (r_hat, trace)))
    return out


class TestPasses:
    """``_Factors.passes`` decides ``norms <= epsilon`` and solves only the open blocks."""

    @pytest.mark.parametrize("case", list(_CASES))
    def test_same_decisions_as_the_residuals(self, case):
        assert _mismatches(case) == []

    @pytest.mark.parametrize("case", list(_CASES))
    def test_a_block_whose_part_outside_exceeds_epsilon_is_not_solved(self, case,
                                                                       monkeypatch):
        """Every block that reaches the solve could pass: its part outside, the
        ``tail`` the solve adds its sum of squares to, is within ``epsilon``."""
        f, epsilon, dist, grid, widths, delta, r_max = _CASES[case]()
        tails = []
        solve = fitter._solve_block

        def recording(R, head, tail, *args, **kwargs):
            tails.append(tail[:, 0].copy())
            return solve(R, head, tail, *args, **kwargs)

        monkeypatch.setattr(fitter, "_solve_block", recording)
        success_probability(f, epsilon, dist, widths, _TRIALS, grid, _SEED)
        estimate_minwidth(f, epsilon, delta, dist, grid, _TRIALS, r_max, _SEED)
        solved = np.concatenate(tails)
        assert solved.size and np.all(np.sqrt(solved) <= epsilon)

    def test_a_pass_taken_from_the_bound_alone_is_caught(self, monkeypatch):
        """On 8 nodes, wider blocks cut rank: the solve rejects trials whose part outside
        is within ``epsilon``, so a ``passes`` that trusts that part alone gives other
        estimates than the residuals."""

        def trusting(self, ids, counts):
            k = np.minimum(counts, self.R.shape[1])
            return np.where(counts == 0, self.target_norms[0] <= self.epsilon,
                            np.sqrt(self.tails[ids, k, 0]) <= self.epsilon)

        monkeypatch.setattr(fitter._Factors, "passes", trusting)
        assert _mismatches("dk_d1_past_the_nodes")
