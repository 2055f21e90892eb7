"""The trial engine against a closed form, with no ReLU in it.

``oracles.MemberDistribution`` draws the members of the orthonormal ball
family ``{T_K : |K| <= 2}`` themselves.  A trial's span is then exactly the
members it drew, so a member's squared residual is 0 if the trial drew it
and 1 if not, and every quantity the engine reports follows from the draws
alone: the mean residual of a trial at width ``r`` is ``1 - D_r / N`` with
``D_r`` the distinct members among its first ``r`` draws, and a trial fits
one member within ``epsilon < 1`` from the width at which it first draws it.
"""

from __future__ import annotations

import numpy as np
import pytest

from widthlab import UNIFORM_CUBE, estimate_minwidth, success_probability, tensor_gauss_grid
from widthlab.fitter import width_residuals
from widthlab.lowerbound import _value_matrix, hard_family_ball

from oracles import MemberDistribution

SEED = 7


def _setup(d):
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, 24)
    family = hard_family_ball(2, d)
    values = _value_matrix(family, grid)
    gram = values.T @ (grid.weights[:, None] * values)
    assert np.max(np.abs(gram - np.eye(len(family)))) < 1e-14  # orthonormal on the grid
    return grid, family, MemberDistribution(family)


def _drawn(dist, w, trials):
    """Each trial's first ``w`` member indices, drawn as the engine draws them."""
    return [dist.sample_batch(np.random.default_rng([SEED, t]), w)[0] for t in range(trials)]


def _distinct_in_order(idx):
    return list(dict.fromkeys(idx.tolist()))


@pytest.mark.parametrize("d, trials", [(2, 12), (3, 4)])
def test_mean_residual_is_one_minus_the_share_of_members_drawn(d, trials):
    grid, family, dist = _setup(d)
    N = len(family)
    widths = [0, 1, 5, N, 3 * N]
    got = width_residuals(_value_matrix(family, grid), grid, dist, widths, SEED, trials)
    draws = _drawn(dist, 3 * N, trials)
    for t, idx in enumerate(draws):
        assert np.array_equal(dist.sample_batch(np.random.default_rng([SEED, t]), 5)[0],
                              idx[:5])  # a narrow draw is a prefix of a wide one
        for j, r in enumerate(widths):
            expected = 1.0 - len(set(idx[:r].tolist())) / N
            assert abs(np.mean(got[t, j] ** 2) - expected) <= 1e-12, (t, r)
    # Each trial's design holds its distinct members once, in the order drawn.
    assert sorted(dist.written) == sorted(_distinct_in_order(idx) for idx in draws)


@pytest.mark.parametrize("d", [2, 3])
def test_success_is_the_share_of_trials_that_drew_the_member(d):
    grid, family, dist = _setup(d)
    N, member, trials = len(family), 3, 30
    widths = [1, 5, N, 3 * N]
    estimates = success_probability(family.members[member], 0.5, dist, widths, trials, grid,
                                    SEED)
    draws = _drawn(dist, 3 * N, trials)
    for r, estimate in zip(widths, estimates):
        drew = sum(member in idx[:r] for idx in draws)
        assert abs(estimate.probability - drew / trials) <= 1e-12, r
    assert sorted(dist.written) == sorted(_distinct_in_order(idx) for idx in draws)


def _replay(first, delta, r_max):
    """The doubling and bisection over success ``#{t : first_t <= r} / trials``."""
    threshold, trace = 1.0 - delta, []

    def probe(r):
        trace.append((r, sum(f <= r for f in first) / len(first)))
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


@pytest.mark.parametrize("d, delta", [(2, 0.25), (2, 0.5), (3, 0.3)])
def test_minimum_width_replays_each_trials_first_draw_of_the_member(d, delta):
    grid, family, dist = _setup(d)
    N, member, trials = len(family), 5, 24
    r_max = 8 * N
    est = estimate_minwidth(family.members[member], 0.5, delta, dist, grid, trials, r_max,
                            SEED)
    first = [int(np.flatnonzero(idx == member)[0]) + 1 if member in idx else np.inf
             for idx in _drawn(dist, r_max, trials)]
    r_hat, trace = _replay(first, delta, r_max)
    assert est.r_hat == r_hat
    assert est.search_trace == trace
