"""Least-squares fitting over random ReLU spans and empirical width search.

The L2 projection of a target onto the span of ``r`` sampled features is
realized as weighted least squares on a quadrature grid: one Householder QR
of the weighted design, then the SVD of a leading block of ``R`` with the
rank cut of ``np.linalg.lstsq`` (singular values at most ``_RCOND`` times the
largest count as zero).  The targets' part outside the span is read off the
QR of ``[A | rhs]`` or, for many targets, downdated from their norms.  On
top of that sit Monte Carlo estimates of the success probability
``P[inf-over-span error <= eps]`` and a doubling-plus-bisection search for
the smallest width reaching a target success rate.

All randomness flows through ``numpy`` generators seeded per trial as
``default_rng([seed, trial])``, so results do not depend on how trials are
grouped, and feature draws are *coupled* across widths: trial ``t`` at width
``r+1`` extends the same draw used at width ``r`` by one more feature, so
residuals never rise per trial while no width loses a singular value to the
rank cut.  So one factorization per trial, at the widest width a run asks
for, gives the residual at every narrower width.  Only the live columns are
factored: a feature whose bias is at least the largest value ``<w, x>`` can
reach on the grid's bounding box is zero at every node.  Each trial's
weighted design is written from its live ``(W, b)`` straight into a stack
with one contiguous row per column, whose transpose is the column-major
layout LAPACK factors; ``fit_span`` and ``projection_residuals`` build and
factor theirs the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, EmptyFeatureList, ParameterOutOfRange
from .quadrature import Grid, evaluate_on
from .relu import ReluParamDist, _check_features


@dataclass(frozen=True)
class FittedSpan:
    """``sum_i coefficients_i relu(<W_i, x> - b_i)`` over unit rows ``W (r, d)`` and
    biases ``b (r,)``, with its residual ``l2_error`` on the grid ``grid_id``."""

    W: np.ndarray
    b: np.ndarray
    coefficients: np.ndarray
    l2_error: float
    grid_id: str

    def __post_init__(self):
        if not len(self.W) == len(self.b) == len(self.coefficients):
            raise ParameterOutOfRange("one bias and one coefficient per weight row required")
        _check_features(self.W, self.b, np.shape(self.W)[-1])

    def evaluate(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        vals = _design_matrix(self.W, self.b, pts) @ self.coefficients
        return float(vals[0]) if single else vals

    def to_json_dict(self) -> dict:
        return {
            "features": [{"bias": bias, "weight": w}
                         for bias, w in zip(self.b.tolist(), self.W.tolist())],
            "coefficients": [float(c) for c in self.coefficients],
            "l2_error": self.l2_error,
            "grid_id": self.grid_id,
        }


def _design_matrix(W: np.ndarray, b: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``relu(<w_i, x> - b_i)`` at every node, one column per feature, in one buffer."""
    z = nodes @ W.T
    z -= b
    np.maximum(z, 0.0, out=z)
    return z


def _reach(nodes: np.ndarray) -> np.ndarray:
    """The largest ``|x_j|`` over the nodes, per coordinate ``j``."""
    return np.max(np.abs(nodes), axis=0)


def _live(W: np.ndarray, b: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Which features can be nonzero at a node: ``b_i < sum_j |W_ij| reach_j``.

    Every other feature has ``<w_i, x> <= b_i`` at each node ``x``, so its
    design column is zero.  Dropping it is exact: it adds only a zero
    singular value, which the rank cut drops, and its minimum-norm
    coefficient is 0.
    """
    return b < np.abs(W) @ reach


# Bytes of stacked weighted designs that ``width_residuals`` factors at once,
# as ``relu._BLOCK_BYTES`` bounds the network's row blocks.
_CHUNK_BYTES = 2 * 2**20

# Bytes of draws and factors kept at once: the trials of a batch this size
# are grouped by live count for every stacked QR and SVD.
_BATCH_BYTES = 16 * 2**20

# Rank cut of every solve: singular values at most ``_RCOND`` times the
# largest count as zero, the cut ``np.linalg.lstsq`` makes given this cutoff.
_RCOND = 1e-10

# The part of a target outside the span is downdated as ``|rhs|^2 - |Q^T rhs|^2``
# where that keeps at least this share of ``|rhs|^2``, so the rounding of both
# terms (a small multiple of the unit roundoff times ``|rhs|^2``) grows at most
# 16-fold relative to it; below, it is recomputed from ``rhs - Q Q^T rhs``.
_DOWNDATE = 1 / 16


def _weighted(targets: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The square roots of the weights, and the targets scaled by them as ``(n, m)``."""
    root_w = np.sqrt(weights)
    return root_w, targets.reshape(len(targets), -1) * root_w[:, None]


def _factor(params, count: int, w: int, nodes: np.ndarray, root_w: np.ndarray,
            rhs: np.ndarray, norm_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Householder QR per design ``A`` of the features ``(W, b)`` of ``params``,
    ``count`` pairs of ``w`` rows each, at ``nodes``.

    Each weighted design is written column by column into one stack of
    shape ``(count, columns, n)``, so its transpose is the column-major
    layout LAPACK factors.  Returns ``R`` of shape ``(count, min(n, w), w)``
    with ``A = Q R``, and ``C`` of shape ``(count, q, m)``: its first
    ``min(n, w)`` rows are ``Q^T rhs`` and the rest hold the targets' part
    orthogonal to every column of ``Q``, so the part of ``rhs`` outside the
    span of ``Q``'s first ``k`` columns has the norm of ``C[:, k:]``.  With
    fewer targets than columns the targets join the factorization as
    ``[A | rhs]`` and ``C`` is read off its ``R``.  Otherwise ``Q`` is formed
    and the part outside is downdated from the targets' squared norms
    ``norm_sq`` as ``norm_sq - |Q^T rhs|^2``, the column-norm downdate of
    LAPACK's xGEQP3; where that falls below ``_DOWNDATE`` times ``norm_sq``
    it is recomputed as ``|rhs - Q Q^T rhs|^2`` for that trial and target.
    """
    n, m = rhs.shape
    joined = m < w
    stack = np.empty((count, w + m if joined else w, n))
    for columns, (W, b) in zip(stack[:, :w], params):
        # _design_matrix's op order, with nodes.T a view: the bits FittedSpan.evaluate and the
        # network compute (a contiguous copy moves a one-feature product by an ulp).
        np.matmul(W, nodes.T, out=columns)
        columns -= b[:, None]
        np.maximum(columns, 0.0, out=columns)
        columns *= root_w
    A = np.swapaxes(stack, -1, -2)
    if joined:
        stack[:, w:] = rhs.T
        full = np.linalg.qr(A, mode="r")
        return full[:, :min(n, w), :w], full[:, :, w:]
    Q, R = np.linalg.qr(A)
    C = np.swapaxes(Q, -1, -2) @ rhs
    # not einsum: its one-target sum varies with ``count``
    outside = norm_sq - np.sum(C * C, axis=1)
    for t, j in zip(*np.nonzero(outside < _DOWNDATE * norm_sq)):
        gap = rhs[:, j] - Q[t] @ C[t, :, j]
        outside[t, j] = gap @ gap
    return R, np.concatenate([C, np.sqrt(outside)[:, None]], axis=1)


def _solve_block(R: np.ndarray, head: np.ndarray, tail: np.ndarray,
                 coefficients: bool = False):
    """Residual norms ``(c, m)`` of the targets against the columns of a leading block.

    ``R`` stacks leading blocks ``R[:k, :L]`` of QR factors, ``k = min(L, n)``,
    ``head`` the first ``k`` rows of each ``C`` and ``tail`` the squared norms
    of the rest, the targets' part outside the span of ``Q``'s first ``k``
    columns.  The part inside comes from the SVD of the block, whose
    singular values are those of the first ``L`` design columns: the
    targets' components along the left singular vectors whose singular
    values ``np.linalg.lstsq`` would treat as zero (at most ``_RCOND`` times
    the largest) stay in the residual.  So this is the residual of
    ``lstsq`` on those columns, with its rank cut, for ``L > n`` too.  With
    ``coefficients`` it also returns lstsq's minimum-norm coefficients
    ``(c, L, m)``.
    """
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    kept = (s > _RCOND * s[:, :1])[:, :, None]
    along = np.swapaxes(U, -1, -2) @ head
    norms = np.sqrt(tail + np.sum(np.where(kept, 0.0, along) ** 2, axis=1))
    if not coefficients:
        return norms
    scaled = np.divide(along, s[:, :, None], out=np.zeros_like(along), where=kept)
    return norms, np.swapaxes(Vt, -1, -2) @ scaled


class _Factors:
    """QR factors of the live design columns of ``count`` trials, read at any live count.

    :func:`_factor` builds each trial's weighted live design from its live
    ``(W, b)`` in a column-major stack and factors it there.  Trial ``t``'s
    design (``L`` columns, at most ``w``) has its
    ``R`` in the top-left ``min(n, L) x L`` corner of ``R[t]`` and its ``C``
    from :func:`_factor` in the top rows of ``C[t]``; the rest is zero.
    ``tails[t, k]`` holds the squared norms of ``C[t, k:]``.  So trials of
    any live count at the factored width stack into one solve at a common
    smaller count.  A count of 0 reads the targets' norms, from ``norm_sq``.
    """

    def __init__(self, count: int, n: int, w: int, rhs: np.ndarray):
        rows, m = min(n, w), rhs.shape[1]
        self.R = np.zeros((count, rows, w))
        self.C = np.zeros((count, rows + m + 1, m))
        self.tails = np.zeros_like(self.C)
        self.norm_sq = np.array([col @ col for col in rhs.T])
        self.target_norms = np.sqrt(self.norm_sq)

    def add(self, sel, params, w: int, nodes: np.ndarray, root_w: np.ndarray,
            rhs: np.ndarray) -> None:
        """Factor the designs of ``params``, ``w`` live features each, as the trials ``sel``."""
        R, C = _factor(params, len(sel), w, nodes, root_w, rhs, self.norm_sq)
        self.R[sel, :R.shape[1], :w] = R
        self.C[sel, :C.shape[1]] = C
        self.tails[sel, :C.shape[1]] = np.cumsum((C**2)[:, ::-1], axis=1)[:, ::-1]

    def block(self, ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arguments of :func:`_solve_block` for trials ``ids`` at ``count`` live columns."""
        k = min(count, self.R.shape[1])
        return self.R[ids, :k, :count], self.C[ids, :k], self.tails[ids, k]

    def norms(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Residual norms ``(len(ids), m)`` of trials ``ids`` against their first
        ``counts`` live columns; trials at one count share one stacked SVD, and
        a count of 0 gives the targets' norms.
        """
        out = np.empty((len(ids), self.C.shape[2]))
        for count in np.flatnonzero(np.bincount(counts)):
            at = counts == count
            out[at] = (self.target_norms if count == 0
                       else _solve_block(*self.block(ids[at], int(count))))
        return out


def _weighted_lstsq(W: np.ndarray, b: np.ndarray, grid: Grid,
                    targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project ``targets`` ``(n,)`` or ``(n, m)`` onto the span of the features ``(W, b)``
    in the grid's weighted L2 norm; returns (coefficients, residual norms).

    Only the live features (:func:`_live`) are factored, by the builder and
    factorization the trial engine uses, so ``(W, b)`` gives the bits a
    trial with the same draws gives; every other feature gets
    coefficient 0.  With no live feature the residuals are the targets' norms.
    """
    root_w, rhs = _weighted(targets, grid.weights)
    live = _live(W, b, _reach(grid.nodes))
    w = int(np.count_nonzero(live))
    factors = _Factors(1, len(rhs), w, rhs)
    coeffs, norms = np.zeros((len(W), rhs.shape[1])), factors.target_norms
    if w:
        factors.add([0], [(W[live], b[live])], w, grid.nodes, root_w, rhs)
        norms, solved = _solve_block(*factors.block(np.zeros(1, dtype=np.intp), w),
                                     coefficients=True)
        norms, coeffs[live] = norms[0], solved[0]
    if targets.ndim == 2:
        return coeffs, norms
    return coeffs[:, 0], norms[0]


def fit_span(W: np.ndarray, b: np.ndarray, f, grid: Grid) -> FittedSpan:
    """Project ``f`` onto the span of the features ``W (r, d)``, ``b (r,)``, in the
    grid's L2 norm.

    Duplicate or nearly parallel features are handled by the rank cut at
    ``_RCOND``; the residual is invariant to feature order and duplication
    because the span is.  Features that are zero at every node (see
    :func:`_live`) are left out of the solve and get coefficient 0.
    """
    if not len(b):
        raise EmptyFeatureList("cannot fit over an empty feature list")
    W, b = np.asarray(W, dtype=float), np.asarray(b, dtype=float)
    _check_features(W, b, grid.nodes.shape[1])
    coeffs, residual = _weighted_lstsq(W, b, grid, evaluate_on(f, grid.nodes))
    return FittedSpan(W=W, b=b, coefficients=coeffs, l2_error=float(residual),
                      grid_id=grid.spec.label())


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score 95% interval (default z) for a binomial proportion; exactly 0 at
    ``successes == 0`` and 1 at ``successes == trials``, where the formula misses by a rounding."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterOutOfRange(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    lo = max(0.0, center - half) if successes > 0 else 0.0
    hi = min(1.0, center + half) if successes < trials else 1.0
    return lo, hi


@dataclass(frozen=True)
class SuccessEstimate:
    """Monte Carlo estimate of P[span of r random features fits f within eps]."""

    probability: float
    ci_lo: float
    ci_hi: float
    trials: int
    r: int
    epsilon: float

    def to_json_dict(self) -> dict:
        return {
            "probability": self.probability, "ci_lo": self.ci_lo, "ci_hi": self.ci_hi,
            "trials": self.trials, "r": self.r, "epsilon": self.epsilon,
        }


def _draw(dist: ReluParamDist, w: int, seed, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """Trial ``trial``'s first ``w`` features, from ``default_rng([seed, trial])``."""
    return dist.sample_batch(np.random.default_rng([*np.atleast_1d(seed).tolist(), trial]), w)


def _factored(rhs: np.ndarray, root_w: np.ndarray, grid: Grid, dist: ReluParamDist, w: int,
              seed, trials):
    """Yield ``(ids, live, factors)`` for the width-``w`` draws of ``trials``, a batch at a time.

    ``live[i, r]`` counts the live features (:func:`_live`) among the first
    ``r`` of trial ``ids[i]``, and ``factors`` (:class:`_Factors`) holds the
    factor of each trial's live columns.  Trials with the same live count
    are factored in stacks whose designs, counted with the targets beside
    them, take about ``_CHUNK_BYTES``; a batch's draws and factors take
    about ``_BATCH_BYTES``.
    """
    n, m = rhs.shape
    rows = min(n, w)
    reach = _reach(grid.nodes)
    per_trial = 8 * (rows * w + 2 * (rows + m + 1) * m + w * (grid.nodes.shape[1] + 1))
    per_batch = max(1, _BATCH_BYTES // per_trial)
    for start in range(0, len(trials), per_batch):
        ids = trials[start:start + per_batch]
        draws = [_draw(dist, w, seed, t) for t in ids] if w else []
        mask = np.array([_live(W, b, reach) for W, b in draws]).reshape(len(ids), w)
        live = np.zeros((len(ids), w + 1), dtype=np.intp)
        np.cumsum(mask, axis=1, out=live[:, 1:])
        factors = _Factors(len(ids), n, w, rhs)
        for count in np.flatnonzero(np.bincount(live[:, w])):  # each live count present
            if count == 0:
                continue
            group = np.flatnonzero(live[:, w] == count)
            per_chunk = max(1, _CHUNK_BYTES // (8 * n * (count + m)))
            for first in range(0, len(group), per_chunk):
                sel = group[first:first + per_chunk]
                params = ((draws[i][0][mask[i]], draws[i][1][mask[i]]) for i in sel)
                factors.add(sel, params, int(count), grid.nodes, root_w, rhs)
        yield ids, live, factors


def width_residuals(targets: np.ndarray, grid: Grid, dist: ReluParamDist, widths, seed,
                    trials: int) -> np.ndarray:
    """Residual norms of ``targets`` against the span of the first ``r`` random
    features of each trial, for every ``r`` of ``widths``.

    Trial ``t`` draws its features from ``default_rng([seed, t])``.  The draws
    are coupled, so each trial is drawn and factored once, at the widest
    width, on its live columns only, and every width reads its residual from
    a leading block of that factor: its live count among its first ``r``
    features gives the block (:meth:`_Factors.norms`).  A width of 0 gives
    the targets' norms, the bits of a trial with no live feature, and a run
    of only such widths draws nothing.  Returns shape
    ``(trials, len(widths))`` for targets of shape ``(n,)`` and
    ``(trials, len(widths), m)`` for targets of shape ``(n, m)``.
    """
    widths = [int(v) for v in widths]
    root_w, rhs = _weighted(targets, grid.weights)
    out = np.empty((trials, len(widths), rhs.shape[1]))
    for ids, live, factors in _factored(rhs, root_w, grid, dist, max(widths), seed,
                                        np.arange(trials)):
        every = np.arange(len(ids))
        for j, width in enumerate(widths):
            out[ids, j] = factors.norms(every, live[:, width])
    return out if targets.ndim == 2 else out[..., 0]


def success_probability(f, epsilon: float, dist: ReluParamDist, r, trials: int,
                        grid: Grid, seed):
    """Fraction of independent trials whose fitted span reaches error <= eps.

    ``r`` is one width, giving one :class:`SuccessEstimate`, or a list of
    widths, giving one estimate per width from one factorization per trial
    (:func:`width_residuals`).
    """
    single = np.ndim(r) == 0
    widths = [r] if single else list(r)
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if not widths or min(widths) < 1:
        raise ParameterOutOfRange(f"widths must be >= 1, got {r}")
    if epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    residuals = width_residuals(evaluate_on(f, grid.nodes), grid, dist, widths, seed, trials)
    estimates = []
    for width, passed in zip(widths, (residuals <= epsilon).T):
        successes = int(np.count_nonzero(passed))
        lo, hi = wilson_interval(successes, trials)
        estimates.append(SuccessEstimate(probability=successes / trials, ci_lo=lo, ci_hi=hi,
                                         trials=trials, r=int(width), epsilon=epsilon))
    return estimates[0] if single else estimates


@dataclass(frozen=True)
class MinWidthEstimate:
    """Smallest tested width whose success probability reached 1 - delta."""

    r_hat: int
    success_prob_at_r_hat: float
    trials: int
    epsilon: float
    delta: float
    search_trace: list[tuple[int, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "r_hat": self.r_hat,
            "success_prob_at_r_hat": self.success_prob_at_r_hat,
            "trials": self.trials, "epsilon": self.epsilon, "delta": self.delta,
            "search_trace": [[r, p] for r, p in self.search_trace],
        }


def _first_passing(factors: _Factors, live: np.ndarray, sel: np.ndarray, lo: int, hi: int,
                   epsilon: float) -> np.ndarray:
    """Per trial of ``sel``, the first width in ``(lo, hi]`` whose residual is <= ``epsilon``.

    Every trial's residual passes at ``hi`` and fails at ``lo`` (``lo = 0``
    fails by definition).  A residual depends on the width only through the
    live count and never rises with it, so bisection on the live counts
    between ``live[:, lo]`` and ``live[:, hi]`` finds the first passing
    count, and the width is the first at which the trial reaches it.
    Trials at the same count share one stacked solve.
    """
    lo_count, hi_count = live[sel, lo], live[sel, hi]
    while np.any(open_ := hi_count - lo_count > 1):
        at = np.flatnonzero(open_)
        mid = (lo_count[at] + hi_count[at]) // 2
        passed = factors.norms(sel[at], mid)[:, 0] <= epsilon
        hi_count[at[passed]] = mid[passed]
        lo_count[at[~passed]] = mid[~passed]
    return np.maximum(np.count_nonzero(live[sel] < hi_count[:, None], axis=1), lo + 1)


def estimate_minwidth(f, epsilon: float, delta: float, dist: ReluParamDist,
                      grid: Grid, trials: int, r_max: int, seed) -> MinWidthEstimate:
    """Doubling then bisection for the smallest width with success >= 1 - delta.

    Per-trial seeds depend only on (seed, trial), so the feature draws are
    nested across widths and each trial's residual never rises with the
    width: success at width ``r`` is ``#{t : r*_t <= r} / trials``, with
    ``r*_t`` the first width at which trial ``t`` reaches ``epsilon``.  At
    each doubling width the trials that have not yet passed are drawn and
    factored once; those that pass find their ``r*_t`` by bisection over
    live counts on leading blocks of that factor, which is then dropped.
    The doubling and the bisection over success probabilities are replayed
    from the ``r*_t`` alone, so ``search_trace`` lists the probes a search
    solving every trial at every probed width makes.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRange(f"delta must be in (0, 1), got {delta}")
    if r_max < 1:
        raise ParameterOutOfRange(f"r_max must be >= 1, got {r_max}")
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    threshold = 1.0 - delta
    root_w, rhs = _weighted(evaluate_on(f, grid.nodes), grid.weights)
    first = np.zeros(trials, dtype=np.intp)  # r*_t, or 0 while trial t has not passed
    trace: list[tuple[int, float]] = []

    def probe(r: int) -> float:
        prob = int(np.count_nonzero((first > 0) & (first <= r))) / trials
        trace.append((r, prob))
        return prob

    r, last_fail = 1, 0
    while True:
        for ids, live, factors in _factored(rhs, root_w, grid, dist, r, seed,
                                            np.flatnonzero(first == 0)):
            widest = factors.norms(np.arange(len(ids)), live[:, r])[:, 0]
            passed = np.flatnonzero(widest <= epsilon)
            first[ids[passed]] = _first_passing(factors, live, passed, last_fail, r, epsilon)
        prob = probe(r)
        if prob >= threshold:
            break
        if r >= r_max:
            raise CapExceeded(
                f"no width <= {r_max} reached success probability {threshold}"
            )
        last_fail = r
        r = min(2 * r, r_max)

    lo = last_fail
    hi, hi_prob = r, prob
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_prob = probe(mid)
        if mid_prob >= threshold:
            hi, hi_prob = mid, mid_prob
        else:
            lo = mid
    return MinWidthEstimate(r_hat=hi, success_prob_at_r_hat=hi_prob, trials=trials,
                            epsilon=epsilon, delta=delta, search_trace=trace)
