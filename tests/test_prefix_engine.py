"""The trial engine's one factorization per trial, against independent solves.

``fitter.width_residuals`` factors each trial's widest design once and reads
the residual at every narrower width from a leading block of that factor;
``estimate_minwidth`` replays its doubling and bisection from each trial's
first passing width.  These tests hold both to what a solve per width gives:
``np.linalg.lstsq`` on the weighted prefix design, and a search that calls
``success_probability`` at every probe.
"""

from __future__ import annotations

import collections
import functools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    UNIFORM_CUBE,
    CapExceeded,
    DkDistribution,
    TrigPolynomial,
    estimate_minwidth,
    fit_span,
    success_probability,
    tensor_gauss_grid,
    wilson_interval,
)
from widthlab.cli import emit_curve, run_config
from widthlab import fitter, relu
from widthlab.fitter import width_residuals
from widthlab.lowerbound import (
    _value_matrix,
    explicit_hard_function,
    hard_family_ball,
    hard_family_symmetric,
    projection_residuals,
)
from widthlab.quadrature import MONTE_CARLO, QuadratureSpec, evaluate_on, make_grid
from widthlab.relu import ReluParamDist

from oracles import CustomDistribution, factored_features


def _lstsq_residuals(W, b, grid, targets, r=None, rcond=1e-10):
    """Oracle: weighted lstsq on the first ``r`` features (all by default), one norm
    per target."""
    root_w = np.sqrt(grid.weights)
    design = np.maximum(grid.nodes @ W[:r].T - b[:r], 0.0) * root_w[:, None]
    rhs = targets * root_w[:, None]
    coeffs = np.linalg.lstsq(design, rhs, rcond=rcond)[0]
    return np.linalg.norm(design @ coeffs - rhs, axis=0)


def _targets(nodes, m):
    x = nodes
    columns = [np.abs(x[:, 0]), np.cos(np.pi * x.sum(axis=1)), np.sin(2.0 * x[:, -1]) * x[:, 0],
               np.exp(-np.sum(x**2, axis=1)), x[:, 0] ** 3, np.sign(x[:, -1])]
    return np.column_stack(columns[:m])


class _Doubled(ReluParamDist):
    """D_k features, each drawn once and used twice in a row."""

    def __init__(self, base: DkDistribution):
        self.base = base
        self.dimension = base.dimension

    def sample_batch(self, rng, r):
        W, b = self.base.sample_batch(rng, (r + 1) // 2)
        return np.repeat(W, 2, axis=0)[:r], np.repeat(b, 2)[:r]


def _draws(dist, w, seed, trials):
    return [dist.sample_batch(np.random.default_rng([seed, t]), w) for t in range(trials)]


def _factored(W, b, grid, tau=relu._AFFINE_TAU):
    """The oracle's mask of the features a solve factors; ``tau = inf`` applies
    only the dead rule."""
    return factored_features(W, b, np.max(np.abs(grid.nodes), axis=0), tau)


def _grid(d, nodes):
    """A tensor Gauss grid with ``nodes`` per dimension, or ``"mc<n>"`` Monte Carlo nodes."""
    if isinstance(nodes, int):
        return tensor_gauss_grid(UNIFORM_CUBE, d, nodes)
    return make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, d,
                                    sample_count=int(nodes[2:]), seed=d))


# (d, nodes per dimension, widest width, targets, seeds, doubled): the d = 1
# case has more features (32) than grid nodes (24); the d = 2 case with six
# targets and four features takes the many-targets factorization.  On the
# Monte Carlo grids no node reaches the corner bound that decides which
# features are live, so some live features are zero at every node.  The
# doubled cases draw each D_k feature twice in a row (_Doubled), so the
# first d + 1 always-active features of a draw repeat one and the surplus
# affine rule declines; in the others it drops columns.
_CASES = [(1, 24, 32, 3, 1, False), (1, 24, 32, 1, 2, False), (2, 24, 40, 3, 3, False),
          (2, 24, 4, 6, 4, False), (2, 10, 48, 2, 5, False), (3, 8, 24, 3, 6, False),
          (2, "mc150", 40, 2, 11, False), (3, "mc200", 24, 3, 12, False),
          (2, 24, 40, 3, 13, True), (3, "mc200", 24, 2, 14, True)]


def _case_dist(d, doubled):
    dist = DkDistribution(k=2, dimension=d)
    return _Doubled(dist) if doubled else dist


@pytest.mark.parametrize("d,nodes,w,m,seed,doubled", _CASES,
                         ids=["-".join(map(str, case[:5])) + "-doubled" * case[5]
                              for case in _CASES])
def test_prefix_residuals_match_lstsq_at_every_width(d, nodes, w, m, seed, doubled):
    grid = _grid(d, nodes)
    dist = _case_dist(d, doubled)
    targets = _targets(grid.nodes, m)
    trials = 5
    widths = list(range(1, w + 1))
    got = width_residuals(targets, grid, dist, widths, seed, trials)
    assert got.shape == (trials, w, m)
    for t, (W, b) in enumerate(_draws(dist, w, seed, trials)):
        for j, r in enumerate(widths):
            assert_allclose(got[t, j], _lstsq_residuals(W, b, grid, targets, r),
                            rtol=0.0, atol=1e-9, err_msg=f"trial {t}, width {r}")


def test_cases_cover_dead_affine_and_wide_designs():
    """Dead columns (zero on the grid) and more than d + 1 affine columns occur;
    the surplus affine rule drops columns in some draws and declines in others
    that have more than d + 1 always-active features; and on Monte Carlo grids
    some columns are zero yet kept as live."""
    dead = affine = kept_zero = dropped = declined = 0
    for d, nodes, w, _, seed, doubled in _CASES:
        grid = _grid(d, nodes)
        reach = relu._reach(grid.nodes)
        for W, b in _draws(_case_dist(d, doubled), w, seed, 5):
            z = grid.nodes @ W.T - b
            zero = np.all(z <= 0.0, axis=0)
            dead += int(np.any(zero))
            affine += int(np.count_nonzero(np.all(z >= 0.0, axis=0)) > d + 1)
            live = relu._live(W, b, reach)
            kept_zero += int(np.count_nonzero(zero & live))
            alive = _factored(W, b, grid, tau=np.inf)
            always = np.count_nonzero(alive & (b <= -(np.abs(W) @ reach)))
            dropped += int(np.any(alive & ~live))
            declined += int(always > d + 1 and np.array_equal(alive, live))
    assert dead > 0 and affine > 0 and kept_zero > 0 and dropped > 0 and declined > 0
    assert any(w > len(_grid(d, nodes).nodes) for d, nodes, w, *_ in _CASES)


@pytest.mark.parametrize("seed", [7, 8])
def test_duplicated_features_match_lstsq(seed):
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 12)
    dist = _Doubled(DkDistribution(k=2, dimension=2))
    targets = _targets(grid.nodes, 3)
    got = width_residuals(targets, grid, dist, list(range(1, 21)), seed, trials=4)
    for t, (W, b) in enumerate(_draws(dist, 20, seed, 4)):
        for r in range(1, 21):
            assert_allclose(got[t, r - 1], _lstsq_residuals(W, b, grid, targets, r),
                            rtol=0.0, atol=1e-9)


def test_fit_span_fitted_values_match_lstsq():
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 12)
    dist = _Doubled(DkDistribution(k=2, dimension=2))
    W, b = dist.sample_batch(np.random.default_rng(3), 30)
    f = lambda X: np.cos(np.pi * X[:, 0]) * X[:, 1]
    span = fit_span(W, b, f, grid)
    root_w = np.sqrt(grid.weights)
    design = np.maximum(grid.nodes @ W.T - b, 0.0)
    coeffs = np.linalg.lstsq(design * root_w[:, None], f(grid.nodes) * root_w, rcond=1e-10)[0]
    assert_allclose(design @ span.coefficients, design @ coeffs, rtol=0.0, atol=1e-9)
    assert_allclose(span.l2_error, _lstsq_residuals(W, b, grid, f(grid.nodes)[:, None], 30)[0],
                    rtol=0.0, atol=1e-12)


class _Live(ReluParamDist):
    """D_k directions with biases in [-0.9, 0.9], so every feature is live on a Gauss grid."""

    def __init__(self, base: DkDistribution):
        self.base = base
        self.dimension = base.dimension

    def sample_batch(self, rng, r):
        W, b = self.base.sample_batch(rng, r)
        return W, b * (0.45 / np.sqrt(self.dimension))


# Tensor Gauss grids of the lower-bound benchmark: 24^3 and 12^4 nodes.
_LB_GRIDS = {3: 24, 4: 12}


@pytest.mark.parametrize("d", sorted(_LB_GRIDS))
@pytest.mark.parametrize("w", [1, 2, 8])
def test_one_builder_gives_the_bits_of_every_entry_point(d, w, monkeypatch):
    """``width_residuals``, ``fit_span`` and ``projection_residuals`` build and factor
    the same weighted design, so their residuals agree bit for bit.

    One target (``fit_span``) joins the design as an extra column for w > 1
    and takes the many-target path at w = 1, the BLAS matrix-vector edge.
    A family of ``d`` members joins at w = 8 and takes the many-target path
    at w <= 2; a family of 19 (d = 3) or 33 (d = 4) members always takes it.
    """
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, _LB_GRIDS[d])
    dist = _Live(DkDistribution(k=2, dimension=d))
    draws = _draws(dist, w, 13, 2)
    reach = relu._reach(grid.nodes)
    assert all(np.all(relu._live(W, b, reach)) for W, b in draws)
    kinds = {1 < w}
    for family in (hard_family_symmetric(1, d), hard_family_ball(1.5, d)):
        targets = _value_matrix(family, grid)
        kinds.add(len(family) < w)
        together = width_residuals(targets, grid, dist, [w], 13, trials=2)[:, 0]
        alone = width_residuals(evaluate_on(family.members[0], grid.nodes), grid, dist, [w],
                                13, trials=2)[:, 0]
        for t, (W, b) in enumerate(draws):
            report = projection_residuals(W, b, family, grid)
            assert np.array_equal(report.residuals, together[t] ** 2), (t, len(family))
            span = fit_span(W, b, family.members[0], grid)
            assert np.array_equal(span.l2_error, alone[t]), t
    assert kinds == ({True, False} if w > 1 else {False})

    # The factored columns are the bits of _design_matrix, weighted: the
    # products that FittedSpan.evaluate and the sampled network make.  The
    # slot LAPACK factors in place is the column-major design, so its rows
    # are the design's columns: at every node at once where the one target
    # does not join (w = 1), else one row block of the grid per call, under
    # the running R of the blocks before it.
    factored, geqrf = [], fitter.lapack_lite.dgeqrf

    def capture(m, n, a, *args):
        if args[-2] != -1:  # not the workspace query
            factored.append(a.copy())
        return geqrf(m, n, a, *args)

    monkeypatch.setattr(fitter.lapack_lite, "dgeqrf", capture)
    W, b = draws[0]
    fit_span(W, b, family.members[0], grid)
    design = fitter._design_matrix(W, b, grid.nodes) * np.sqrt(grid.weights)[:, None]
    blocks = grid.node_blocks if w > 1 else (grid.column_major_nodes,)
    assert len(factored) == len(blocks) == (1 if w == 1 else -(-len(grid.nodes) // 4096))
    for j, (slot, nodes) in enumerate(zip(factored, blocks)):
        assert np.array_equal(slot[:w, -len(nodes):].T, design[j::len(blocks)]), j


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_engine_rows_have_the_bits_of_the_design_matrix_columns(d):
    """The engine writes each feature's row from the grid's column-major nodes and
    ``_design_matrix`` reads the same layout, so at every width, the BLAS
    matrix-vector edge w = 1 included, the rows are its columns bit for bit.
    Draws stacked by trial are written in one call, and each slot, contiguous or
    strided as in the joined route's stack, keeps the bits of its one draw.
    Every feature is live (``|b_i| <= 1/2 <= |w_i|_1``), so no row is zero."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, {1: 24, 2: 24, 3: 24, 4: 12}[d])
    nodes = grid.column_major_nodes
    assert nodes.flags.f_contiguous and np.array_equal(nodes, grid.nodes)
    rng = np.random.default_rng(d)
    for w in range(1, 9):
        W = rng.normal(size=(3, w, d))  # every coordinate in every sum
        W /= np.linalg.norm(W, axis=2, keepdims=True)
        b = rng.uniform(-0.5, 0.5, size=(3, w))
        # Three draws in one call: into a stack of their own, and into the design
        # rows of the joined route's stack, slots strided past two target rows.
        alone = np.empty((3, w, len(nodes)))
        joined = np.empty((3, w + 2, len(nodes)))
        ReluParamDist.columns((W, b), nodes, alone)
        ReluParamDist.columns((W, b), nodes, joined[:, :w])
        for t in range(3):
            rows = np.empty((w, len(nodes)))
            ReluParamDist.columns((W[t:t + 1], b[t:t + 1]), nodes, rows[None])
            assert np.all(np.any(rows > 0.0, axis=1))
            design = fitter._design_matrix(W[t], b[t], grid.nodes)
            for got in (rows, alone[t], joined[t, :w]):
                assert np.array_equal(got.view(np.uint64), design.T.view(np.uint64)), (w, t)


def _unit(v):
    return v / np.linalg.norm(v)


def test_dead_features_are_dropped_exactly():
    """A feature zero at every node adds nothing: a trial of dead features leaves the
    targets' norm at every width, and ``fit_span`` gives each dead feature 0."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 12)
    targets = _targets(grid.nodes, 2)
    norms = np.sqrt(grid.weights @ targets**2)
    dead = CustomDistribution(2, lambda rng: rng.uniform(1.5, 2.0),  # b >= |w|_1 on the cube
                              lambda rng: _unit(rng.normal(size=2)))
    got = width_residuals(targets, grid, dead, [1, 5, 9], seed=3, trials=4)
    assert_allclose(got, np.broadcast_to(norms, got.shape), rtol=1e-14, atol=0.0)
    f = lambda X: _targets(X, 1)[:, 0]
    W, b = dead.sample_batch(np.random.default_rng(1), 6)
    span = fit_span(W, b, f, grid)
    assert np.array_equal(span.coefficients, np.zeros(6))
    assert_allclose(span.l2_error, norms[0], rtol=1e-14)

    W, b = DkDistribution(k=2, dimension=2).sample_batch(np.random.default_rng(5), 40)
    span = fit_span(W, b, f, grid)
    zero = np.all(grid.nodes @ W.T - b <= 0.0, axis=0)
    assert 0 < np.count_nonzero(zero) < 40
    assert np.all(span.coefficients[zero] == 0.0)
    assert_allclose(span.l2_error, _lstsq_residuals(W, b, grid, f(grid.nodes)[:, None], 40)[0],
                    rtol=0.0, atol=1e-12)


def test_fit_span_gives_dropped_features_zero():
    """Surplus always-active features get coefficient 0, as dead ones do; the fitted
    values and the residual are lstsq's over all features."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 12)
    W, b = DkDistribution(k=2, dimension=2).sample_batch(np.random.default_rng(11), 30)
    kept = _factored(W, b, grid)
    assert np.count_nonzero(_factored(W, b, grid, tau=np.inf) & ~kept) > 0
    f = lambda X: np.cos(np.pi * X[:, 0]) * X[:, 1]
    span = fit_span(W, b, f, grid)
    assert np.all(span.coefficients[~kept] == 0.0)
    root_w = np.sqrt(grid.weights)
    design = np.maximum(grid.nodes @ W.T - b, 0.0)
    coeffs = np.linalg.lstsq(design * root_w[:, None], f(grid.nodes) * root_w, rcond=1e-10)[0]
    assert_allclose(span.evaluate(grid.nodes), design @ coeffs, rtol=0.0, atol=1e-12)
    assert_allclose(span.l2_error, _lstsq_residuals(W, b, grid, f(grid.nodes)[:, None])[0],
                    rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("gap, drops", [(1e-1, True), (1e-3, False)])
def test_surplus_rule_needs_a_well_conditioned_head(gap, drops):
    """Three always-active features at d = 1: the third's row ``[b, w]`` is a
    combination of the first two, which differ by ``gap`` in the bias.  The rule
    drops it only when the head's smallest singular value exceeds ``_AFFINE_TAU``
    times its largest; either way the residuals are lstsq's on all three."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 24)
    W, b = np.array([[1.0], [1.0], [-1.0]]), np.array([-2.0, -2.0 - gap, -1.5])
    s = np.linalg.svd(np.column_stack([b[:2], W[:2]]), compute_uv=False)
    assert (s[-1] > relu._AFFINE_TAU * s[0]) == drops
    assert np.array_equal(relu._live(W, b, relu._reach(grid.nodes)), [True, True, not drops])
    targets = _targets(grid.nodes, 3)
    got = width_residuals(targets, grid, _Fixed(W, b), [1, 2, 3], seed=0, trials=1)[0]
    for r in (1, 2, 3):
        assert_allclose(got[r - 1], _lstsq_residuals(W, b, grid, targets, r), rtol=0.0,
                        atol=1e-12)


def test_surplus_rule_declines_a_repeated_feature():
    """A distribution that repeats one always-active feature has a head of rank 1,
    so the rule declines and the mask is the dead rule alone, also in a stack
    beside a draw the rule drops columns from."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 12)
    reach = relu._reach(grid.nodes)
    w = _unit(np.array([1.0, -2.0]))
    same = CustomDistribution(2, lambda rng: -3.0, lambda rng: w)
    W, b = same.sample_batch(np.random.default_rng(0), 8)
    assert np.all(b <= -(np.abs(W) @ reach))
    assert np.all(relu._live(W, b, reach))
    W2, b2 = DkDistribution(k=2, dimension=2).sample_batch(np.random.default_rng(11), 30)
    kept = _factored(W2, b2, grid)
    assert not np.all(kept[_factored(W2, b2, grid, tau=np.inf)])
    stacked = relu._live(np.stack([W[:1].repeat(30, axis=0), W2]),
                           np.stack([np.full(30, -3.0), b2]), reach)
    assert np.all(stacked[0]) and np.array_equal(stacked[1], kept)


def _probe_by_probe(f, epsilon, delta, dist, grid, trials, r_max, seed):
    """The doubling and bisection search, solving every trial at every probe."""
    threshold = 1.0 - delta
    trace = []

    def probe(r):
        prob = success_probability(f, epsilon, dist, r, trials, grid, seed).probability
        trace.append((r, prob))
        return prob

    r, last_fail = 1, 0
    prob = probe(r)
    while prob < threshold:
        if r >= r_max:
            raise CapExceeded(f"no width <= {r_max}")
        last_fail = r
        r = min(2 * r, r_max)
        prob = probe(r)
    lo, hi, hi_prob = last_fail, r, prob
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_prob = probe(mid)
        if mid_prob >= threshold:
            hi, hi_prob = mid, mid_prob
        else:
            lo = mid
    return hi, hi_prob, trace


_SIN = {"type": "trig_poly", "polynomial": {"scale": 1.0, "terms": [{"K": [1], "beta": 0.7}]}}
_BASE_2D = {"type": "trig_poly", "polynomial": {"scale": 1.0, "terms": [
    {"K": [1, 0], "beta": 0.8}, {"K": [0, -1], "beta": -0.5}, {"K": [1, 1], "beta": 0.3},
    {"K": [-1, 1], "beta": 0.4}]}}
_MINWIDTH = {
    "readme": {"d": 1, "epsilon": 0.5, "delta": 0.25, "trials": 100, "r_max": 4096,
               "target": {"type": "explicit_hard", "ell": 1}, "dist": {"kind": "dk", "k": 1},
               "seed": 42},
    "determinism": {"d": 1, "epsilon": 0.5, "delta": 0.25, "trials": 8, "r_max": 16,
                    "target": _SIN, "dist": {"kind": "dk", "k": 1}, "seed": 42},
    "trivial": {"d": 1, "epsilon": 10.0, "delta": 0.25, "trials": 8, "r_max": 16,
                "target": _SIN, "dist": {"kind": "dk", "k": 1}, "seed": 42},
    "bisects": {"d": 1, "epsilon": 0.2, "delta": 0.25, "trials": 20, "r_max": 256,
                "target": _SIN, "dist": {"kind": "dk", "k": 1}, "seed": 42,
                "grid": {"nodes_per_dim": 48}},
    "two_dims": {"d": 2, "epsilon": 0.4, "delta": 0.2, "trials": 20, "r_max": 1024,
                 "target": _BASE_2D, "dist": {"kind": "dk", "k": 2}, "seed": 5},
    "cap": {"d": 1, "epsilon": 1e-9, "delta": 0.25, "trials": 5, "r_max": 8,
            "target": {"type": "abs"}, "dist": {"kind": "dk", "k": 1}, "seed": 42},
}


def _problem(p):
    d = p["d"]
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, p.get("grid", {}).get("nodes_per_dim", 24))
    target = p["target"]
    if target["type"] == "explicit_hard":
        f = explicit_hard_function(p["epsilon"], target["ell"], d).evaluate
    elif target["type"] == "abs":
        f = lambda X: np.abs(X[:, 0])
    else:
        f = TrigPolynomial.from_json_dict(target["polynomial"]).evaluate
    dist = DkDistribution(k=p["dist"]["k"], dimension=d)
    return f, dist, grid


@pytest.mark.parametrize("name", sorted(_MINWIDTH))
def test_replayed_minwidth_equals_probe_by_probe_search(name, tmp_path):
    p = _MINWIDTH[name]
    f, dist, grid = _problem(p)
    args = (f, p["epsilon"], p["delta"], dist, grid, p["trials"], p["r_max"], p["seed"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "minwidth", "parameters": p, "output_path": "mw"}))
    code, _ = run_config(str(cfg), out_dir=str(tmp_path / "out"))
    if name == "cap":
        with pytest.raises(CapExceeded):
            _probe_by_probe(*args)
        with pytest.raises(CapExceeded):
            estimate_minwidth(f, p["epsilon"], p["delta"], dist, grid, p["trials"],
                              p["r_max"], p["seed"])
        assert code == 3
        return
    r_hat, prob, trace = _probe_by_probe(*args)
    est = estimate_minwidth(f, p["epsilon"], p["delta"], dist, grid, p["trials"], p["r_max"],
                            p["seed"])
    assert (est.r_hat, est.success_prob_at_r_hat, est.search_trace) == (r_hat, prob, trace)
    assert code == 0
    expected = tmp_path / "expected.csv"
    emit_curve([(r, q, *wilson_interval(round(q * p["trials"]), p["trials"]))
                for r, q in trace], str(expected))
    assert (tmp_path / "out" / "mw_trace.csv").read_bytes() == expected.read_bytes()
    if name == "two_dims":
        assert len(trace) > 8  # doubling to 64, then bisection inside (32, 64]


class _Spy(ReluParamDist):
    """D_k features, recording the width of every draw."""

    def __init__(self, base: DkDistribution):
        self.base, self.dimension, self.widths = base, base.dimension, []

    def sample_batch(self, rng, r):
        self.widths.append(r)
        return self.base.sample_batch(rng, r)


def _minwidth_args(name, dist=None):
    p = _MINWIDTH[name]
    f, base, grid = _problem(p)
    return (f, p["epsilon"], p["delta"], base if dist is None else dist(base), grid,
            p["trials"], p["r_max"], p["seed"])


def test_minwidth_draws_each_trial_once():
    """The search holds one draw per trial, ``r_max`` wide, and factors its prefixes:
    20 draws for 20 trials, where a draw per trial and doubling width makes over 100."""
    args = _minwidth_args("two_dims", _Spy)
    spy, trials, r_max = args[3], args[5], args[6]
    est = estimate_minwidth(*args)
    assert spy.widths == [r_max] * trials
    assert est == estimate_minwidth(*_minwidth_args("two_dims"))


@pytest.mark.parametrize("name", ["readme", "two_dims"])
def test_held_draws_stay_within_their_budget_at_the_cli_defaults(name, monkeypatch):
    """At the CLI's defaults (200 trials, ``r_max`` 4096) each open trial holds a draw
    only as wide as ``_HELD_BYTES`` allows, not ``r_max`` wide: the draws made before
    the first batch is factored take at most that budget.  Both searches stop by
    width 64, inside the held width, so each trial is still drawn once, and a budget
    that holds ``r_max``-wide draws gives the same estimate."""
    args = list(_minwidth_args(name, _Spy))
    args[5:7] = 200, 4096
    spy, grid = args[3], args[4]
    held = []

    class Recording(fitter._Factors):
        def __init__(self, *rest):
            if not held:  # the first batch: every draw so far is held
                held.extend(spy.widths)
            super().__init__(*rest)

    monkeypatch.setattr(fitter, "_Factors", Recording)
    est = estimate_minwidth(*args)
    assert len(held) == 200 and spy.widths == held
    assert 8 * (grid.nodes.shape[1] + 1) * sum(held) <= fitter._HELD_BYTES
    assert max(r for r, _ in est.search_trace) <= 64 < held[0]
    monkeypatch.setattr(fitter, "_HELD_BYTES", 8 * (grid.nodes.shape[1] + 1) * 200 * 4096)
    spy.widths.clear()
    assert estimate_minwidth(*args) == est
    assert spy.widths == [4096] * 200


@pytest.mark.parametrize("name", ["bisects", "two_dims"])
def test_draws_past_the_budget_are_made_batch_by_batch(name, monkeypatch):
    """With a budget of three features per open trial, the search holds width-3 draws
    for the doubling widths 1 and 2.  From width 4 the budget holds no width-``r`` draw
    per open trial, so each batch is drawn as it is factored: the draws made before a
    batch are that batch's, never more.  The search is still the probe-by-probe one."""
    args = _minwidth_args(name, _Spy)
    spy, grid, trials = args[3], args[4], args[5]
    monkeypatch.setattr(fitter, "_HELD_BYTES", 3 * 8 * (grid.nodes.shape[1] + 1) * trials)
    batches = []  # (draws made so far, the batch's size, its width) as each is factored

    class Recording(fitter._Factors):
        def __init__(self, dist, draws, *rest):
            batches.append((len(spy.widths), len(draws), len(draws[0][1])))
            super().__init__(dist, draws, *rest)

    monkeypatch.setattr(fitter, "_Factors", Recording)
    est = estimate_minwidth(*args)
    widths, batches = list(spy.widths), list(batches)
    assert widths[:trials] == [3] * trials
    assert {width for _, _, width in batches} >= {1, 2, 4, 8}
    made = trials
    for before, size, width in batches:
        if width > 3:
            assert before - made == size and widths[made:before] == [width] * size
            made = before
    assert made == len(widths)
    assert (est.r_hat, est.success_prob_at_r_hat, est.search_trace) == _probe_by_probe(*args)


def test_bisection_with_no_rank_cut_solves_one_block_per_trial(monkeypatch):
    """With no rank cut in any block, the first count whose part outside the block is
    within ``epsilon`` passes, so each trial's bisection solves that block alone."""
    args = _minwidth_args("bisects")
    dist, grid, trials, seed = args[3], args[4], args[5], args[7]
    widest = max(r for r, _ in estimate_minwidth(*args).search_trace)
    for W, b in _draws(dist, widest, seed, trials):
        kept = _factored(W, b, grid)
        assert _uncut(W[kept], b[kept], grid)  # so every leading block is uncut too
    bisecting, passing, solved = [False], [], collections.Counter()
    first_passing, norms = fitter._first_passing, fitter._Factors.norms

    def recording_bisection(factors, sel, *rest):
        bisecting[0] = True
        passing.extend((factors, t) for t in sel.tolist())
        try:
            return first_passing(factors, sel, *rest)
        finally:
            bisecting[0] = False

    def recording_norms(factors, ids, counts):
        if bisecting[0]:
            solved.update((factors, t) for t in ids.tolist())
        return norms(factors, ids, counts)

    monkeypatch.setattr(fitter, "_first_passing", recording_bisection)
    monkeypatch.setattr(fitter._Factors, "norms", recording_norms)
    estimate_minwidth(*args)
    assert solved and set(solved) <= set(passing) and max(solved.values()) == 1


def test_first_passing_widths_are_those_of_the_residuals(monkeypatch):
    """On 8 nodes, where wider blocks cut rank, each trial's ``r*_t`` is the first width
    whose ``width_residuals`` is within ``epsilon``."""
    from test_fitter import _CASES, _SEED, _TRIALS

    f, epsilon, dist, grid, _, delta, r_max = _CASES["dk_d1_past_the_nodes"]()
    batches, found = [], {}
    factored, first_passing = fitter._factored, fitter._first_passing

    def recording_factored(*args):
        for ids, factors in factored(*args):
            batches.append((factors, ids))
            yield ids, factors

    def recording_bisection(factors, sel, *rest):
        got = first_passing(factors, sel, *rest)
        ids = next(ids for held, ids in batches if held is factors)
        found.update(zip(ids[sel].tolist(), got.tolist()))
        return got

    monkeypatch.setattr(fitter, "_factored", recording_factored)
    monkeypatch.setattr(fitter, "_first_passing", recording_bisection)
    est = estimate_minwidth(f, epsilon, delta, dist, grid, _TRIALS, r_max, _SEED)
    widest = max(r for r, _ in est.search_trace)
    assert widest > len(grid.nodes)
    passed = width_residuals(evaluate_on(f, grid.nodes), grid, dist, range(1, widest + 1),
                             _SEED, _TRIALS) <= epsilon
    want = {t: int(np.argmax(row)) + 1 for t, row in enumerate(passed) if row.any()}
    assert found == want


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_GRIDS = {1: tensor_gauss_grid(UNIFORM_CUBE, 1, 24), 2: tensor_gauss_grid(UNIFORM_CUBE, 2, 10)}


def _uncut(W, b, grid):
    """Whether the weighted design of the features ``(W, b)`` loses no singular value
    to the rank cut: all ``min(n, len(b))`` exceed ``_RCOND`` times the largest."""
    design = np.maximum(grid.nodes @ W.T - b, 0.0) * np.sqrt(grid.weights)[:, None]
    s = np.linalg.svd(design, compute_uv=False)
    return bool(s.size == 0 or s[-1] > fitter._RCOND * s[0])


# The stored draw: trial 2's residual rises by 9.14e-8 from width 37 to 38,
# past a rank cut, and lstsq's on the factored columns rises by as much.
@example(d=1, k=2, seed=10_000_000, mix=[0.0, 1.0, 0.0])
@given(d=st.sampled_from([1, 2]), k=st.sampled_from([1, 2]), seed=st.integers(0, 2**31 - 1),
       mix=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_residual_never_rises_and_stays_within_target_norm(d, k, seed, mix):
    """The residual never rises between widths whose factored designs lose no
    singular value to the rank cut.  Past a cut ``np.linalg.lstsq`` itself can
    rise; wherever the residual rises, it rises as lstsq's on the factored
    columns does (the columns of the oracle's mask)."""
    grid = _GRIDS[d]
    target = _targets(grid.nodes, 3) @ np.asarray(mix)
    norm = float(np.sqrt(np.sum(grid.weights * target**2)))
    dist = DkDistribution(k=k, dimension=d)
    res = width_residuals(target, grid, dist, list(range(1, 41)), seed, trials=3)
    slack = 1e-9 * max(norm, 1.0)
    assert np.all(res >= 0.0)
    assert np.all(res <= norm + slack)
    dropped = 0
    for t, (W, b) in enumerate(_draws(dist, 40, seed, 3)):
        kept = _factored(W, b, grid)
        dropped += np.count_nonzero(_factored(W, b, grid, tau=np.inf) & ~kept)
        prefixes = [(W[:r][kept[:r]], b[:r][kept[:r]]) for r in range(1, 41)]
        uncut = np.array([_uncut(*prefix, grid) for prefix in prefixes])
        steps = np.diff(res[t])
        assert np.all(steps[uncut[:-1] & uncut[1:]] <= slack), t
        for r in np.flatnonzero(steps > slack) + 1:  # a rise from width r to r + 1
            lstsq = [_lstsq_residuals(*prefixes[v - 1], grid, target[:, None])[0]
                     for v in (r, r + 1)]
            assert abs(steps[r - 1] - (lstsq[1] - lstsq[0])) <= 1e-12, (t, r)
    if (d, k, seed) == (1, 2, 10_000_000):
        assert dropped > 0  # the stored draw exercises the surplus affine rule


def _rank(design):
    """``np.linalg.lstsq``'s numerical rank at the cut ``_RCOND``."""
    s = np.linalg.svd(design, compute_uv=False)
    return int(np.count_nonzero(s > fitter._RCOND * s[0])) if s.size else 0


_RULE_GRIDS = {(1, False): 24, (2, False): 10, (3, False): 6, (4, False): 5,
               (1, True): "mc60", (2, True): "mc150", (3, True): "mc200", (4, True): "mc300"}


@functools.cache
def _rule_grid(d, monte_carlo):
    return _grid(d, _RULE_GRIDS[d, monte_carlo])


@given(d=st.integers(1, 4), k=st.integers(1, 3), monte_carlo=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_surplus_affine_columns_are_dropped_exactly(d, k, monte_carlo, seed):
    """``_live`` on a stack of draws is the oracle's mask on each draw.  Each column
    it drops lies within 1e-12 of its norm of the span of the kept columns drawn
    before it, so every prefix block keeps its numerical rank.  Where the kept
    block is well conditioned, the residuals over it and over all live columns
    agree within 1e-12; below that, rounding in the dropped columns moves the
    span by about eps times the block's condition number, and the two
    residuals can differ by more."""
    grid = _rule_grid(d, monte_carlo)
    draws = _draws(DkDistribution(k=k, dimension=d), 40, seed, 2)
    stacked = relu._live(np.stack([W for W, _ in draws]), np.stack([b for _, b in draws]),
                           relu._reach(grid.nodes))
    root_w = np.sqrt(grid.weights)
    targets = _targets(grid.nodes, 3)
    for (W, b), mask in zip(draws, stacked):
        kept, alive = _factored(W, b, grid), _factored(W, b, grid, tau=np.inf)
        assert np.array_equal(mask, kept)
        design = np.maximum(grid.nodes @ W.T - b, 0.0) * root_w[:, None]
        for j in np.flatnonzero(alive & ~kept):
            before = design[:, :j][:, kept[:j]]
            gap = design[:, j] - before @ np.linalg.lstsq(before, design[:, j], rcond=None)[0]
            assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(design[:, j]), j
        for r in range(1, 41):
            ours, every = design[:, :r][:, kept[:r]], design[:, :r]
            assert _rank(ours) == _rank(every), r
            s = np.linalg.svd(ours, compute_uv=False)
            if s.size and s[-1] > 1e-4 * s[0]:
                assert_allclose(_lstsq_residuals(W[:r][kept[:r]], b[:r][kept[:r]], grid, targets),
                                _lstsq_residuals(W[:r][alive[:r]], b[:r][alive[:r]], grid,
                                                 targets),
                                rtol=0.0, atol=1e-12, err_msg=str(r))


def test_chunks_hold_as_many_trials_as_their_stack_allows(tmp_path, monkeypatch):
    """A chunk is sized by the stack it holds: with at least as many targets as
    columns the targets are not stacked beside the designs, so it holds
    ``_CHUNK_BYTES // (8 n count)`` trials.  On the benchmark's symmetric family
    (d = 4, ell = 2: six members on the 12^4 grid) at widths up to 3 that is four
    trials or more, where counting the targets too gave one."""
    chunks = collections.defaultdict(list)  # live count: trials of each chunk
    factor = fitter._factor

    def spying(columns, draws, count, w, *rest):
        chunks[w].append(count)
        return factor(columns, draws, count, w, *rest)

    monkeypatch.setattr(fitter, "_factor", spying)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "lb_projection", "output_path": "lb", "parameters": {
        "d": 4, "family": {"type": "symmetric", "ell": 2}, "r_list": [1, 2, 3], "trials": 20,
        "dist": {"kind": "dk", "k": 2}, "seed": 3}}))
    code, _ = run_config(str(cfg), out_dir=str(tmp_path / "out"))
    assert code == 0
    n = 12**4
    for count, sizes in chunks.items():
        per_chunk = fitter._CHUNK_BYTES // (8 * n * int(count))
        assert per_chunk >= 4
        full, left = divmod(sum(sizes), per_chunk)
        assert sizes == [per_chunk] * full + [left] * (left > 0), count
    assert sum(map(sum, chunks.values())) == 20 and max(map(max, chunks.values())) >= 4


def _past_one_block():
    """The d = 3 ball family (33 members) on 24^3 nodes, with its grid: longer than
    ``fitter._SUM_ROWS``, so its squared norms and ``C = Q^T rhs`` take several row
    blocks."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 3, 24)
    assert len(grid.nodes) > fitter._SUM_ROWS
    return grid, _value_matrix(hard_family_ball(2.0, 3), grid)


def test_chunks_change_no_bit(monkeypatch):
    """Trials stacked in one chunk and one batch give the bits of one trial per chunk
    and per batch: with the targets joined to the designs, on one row block and past
    one, and with at least as many targets as columns, where the part outside the span is downdated or,
    below ``_DOWNDATE``, recomputed (a threshold of 1 recomputes every target), on
    one row block and past one.  The surplus affine rule drops columns in these
    draws, so its mask, made once per batch, does not depend on how many draws
    share the batch."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 24)
    dist = DkDistribution(k=2, dimension=2)
    few, many = _targets(grid.nodes, 2), _targets(grid.nodes, 6)
    assert fitter._CHUNK_BYTES // (8 * len(many) * (6 + 6)) > 1  # several trials per chunk
    ball_grid, ball = _past_one_block()
    ball_dist = DkDistribution(k=2, dimension=3)
    assert fitter._CHUNK_BYTES // (8 * len(ball) * 8) > 1  # and at 8 live columns
    assert any(np.any(_factored(W, b, grid, tau=np.inf) & ~_factored(W, b, grid))
               for W, b in _draws(dist, 64, 9, 40))
    f, mw_dist, mw_grid = _problem(_MINWIDTH["two_dims"])
    mw_args = (f, 0.4, 0.2, mw_dist, mw_grid, 20, 1024, 5)
    downdates = (fitter._DOWNDATE, 1.0)

    def residuals():
        out = [width_residuals(few, grid, dist, [4, 16, 64], 9, trials=40),
               # two targets joined to 4-8 live columns, over four row blocks
               width_residuals(ball[:, :2], ball_grid, ball_dist, [4, 8], 9, trials=6)]
        for downdate in downdates:
            monkeypatch.setattr(fitter, "_DOWNDATE", downdate)
            out.append(width_residuals(many, grid, dist, [1, 3, 6], 9, trials=40))
            # chunks of 1-2 live columns per trial are where a gemm's bits read its row count
            for widths, trials in (([1, 2], 20), ([4, 8], 6)):
                out.append(width_residuals(ball, ball_grid, ball_dist, widths, 9, trials))
        return out

    stacked, stacked_mw = residuals(), estimate_minwidth(*mw_args)
    monkeypatch.setattr(fitter, "_CHUNK_BYTES", 1)  # one trial per chunk
    monkeypatch.setattr(fitter, "_BATCH_BYTES", 1)  # and per batch
    for got, want in zip(residuals(), stacked):
        assert np.array_equal(got, want)
    assert estimate_minwidth(*mw_args) == stacked_mw


def test_row_blocks_match_lstsq():
    """Past one row block, the residuals of many targets, read off ``C = Q^T rhs``
    summed block by block, match lstsq's to 1e-13."""
    grid, values = _past_one_block()
    dist = DkDistribution(k=2, dimension=3)
    widths = [4, 8]
    got = width_residuals(values, grid, dist, widths, 3, trials=3)
    for t, (W, b) in enumerate(_draws(dist, max(widths), 3, 3)):
        for j, r in enumerate(widths):
            assert_allclose(got[t, j], _lstsq_residuals(W, b, grid, values, r),
                            rtol=0.0, atol=1e-13, err_msg=f"trial {t}, width {r}")


def test_many_targets_on_a_small_grid_match_lstsq():
    """Row blocks count grid nodes, whatever the number of targets: 70,000 targets
    on 10 nodes are one block, and their residuals match lstsq's to 1e-13."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 10)
    dist = DkDistribution(k=2, dimension=1)
    values = np.random.default_rng(0).standard_normal((10, 70_000))
    got = width_residuals(values, grid, dist, [1], 4, trials=2)
    for t, (W, b) in enumerate(_draws(dist, 1, 4, 2)):
        assert_allclose(got[t, 0], _lstsq_residuals(W, b, grid, values),
                        rtol=0.0, atol=1e-13, err_msg=f"trial {t}")


def test_one_row_block_gives_the_bits_of_one_product(monkeypatch):
    """On a grid of one row block, ``_factor``'s ``C`` is ``Q^T rhs`` as one stacked
    product, bit for bit."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 24)
    targets = fitter._weighted(_targets(grid.nodes, 6), grid.weights)
    dist = DkDistribution(k=2, dimension=2)
    stacks = []
    qr = fitter._qr_in_place
    monkeypatch.setattr(fitter, "_qr_in_place",
                        lambda stack, form_q: stacks.append(stack) or qr(stack, form_q))
    draws = tuple(map(np.stack, zip(*_draws(dist, 4, 9, 5))))
    R, C = fitter._factor(dist.columns, draws, 5, 4, grid, targets)
    k = R.shape[1]
    assert C.shape == (5, k + 1, 6)
    assert np.array_equal(C[:, :k], stacks[0][:, :k] @ targets.rhs)


class _Fixed(ReluParamDist):
    """The same features ``(W, b)`` on every trial."""

    def __init__(self, W, b):
        self.W, self.b, self.dimension = W, b, W.shape[1]

    def sample_batch(self, rng, r):
        return self.W[:r], self.b[:r]


def test_downdate_recomputes_targets_near_the_span(monkeypatch):
    """With as many targets as columns the part outside the span is downdated as
    ``|rhs|^2 - |Q^T rhs|^2``.  A target inside the span falls under ``_DOWNDATE``
    and is recomputed to lstsq's residual; one just above it keeps the downdate,
    which matches lstsq's residual to 1e-13."""
    grid = tensor_gauss_grid(UNIFORM_CUBE, 3, 8)
    # Two features with one direction, positive at every node: affine on the grid,
    # so their span holds the constant member of the ball family.
    W, b = np.tile(_unit(np.array([1.0, 2.0, 2.0])), (2, 1)), np.array([-2.0, -3.0])
    family = hard_family_ball(2.0, 3)
    constant = _value_matrix(family, grid)[:, list(family.labels).index((0, 0, 0))]
    root_w = np.sqrt(grid.weights)
    design = np.maximum(grid.nodes @ W.T - b, 0.0) * root_w[:, None]
    assert np.all(design > 0.0)
    bump = grid.nodes[:, 0] ** 2 * root_w
    bump -= design @ np.linalg.lstsq(design, bump, rcond=None)[0]  # outside the span
    share = 1.01 * fitter._DOWNDATE  # the part outside, as a share of |target|^2
    scale = np.sqrt(share / (1.0 - share)) * np.linalg.norm(constant * root_w)
    targets = np.column_stack([constant, constant + scale * bump / np.linalg.norm(bump) / root_w])

    rhs = targets * root_w[:, None]
    norm_sq = np.sum(rhs**2, axis=0)
    downdated = norm_sq - np.sum((np.linalg.qr(design)[0].T @ rhs) ** 2, axis=0)
    assert downdated[0] < fitter._DOWNDATE * norm_sq[0]
    assert fitter._DOWNDATE * norm_sq[1] < downdated[1] < 1.1 * fitter._DOWNDATE * norm_sq[1]

    got = width_residuals(targets, grid, _Fixed(W, b), [2], seed=0, trials=1)[0, 0]
    want = _lstsq_residuals(W, b, grid, targets, 2)
    assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
    assert_allclose(got[1], want[1], rtol=1e-13, atol=0.0)
    monkeypatch.setattr(fitter, "_DOWNDATE", 0.0)  # the downdate alone misses the first
    alone = width_residuals(targets, grid, _Fixed(W, b), [2], seed=0, trials=1)[0, 0]
    assert not abs(alone[0] - want[0]) <= 1e-12
    assert alone[1] == got[1]
