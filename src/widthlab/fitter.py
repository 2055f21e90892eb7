"""Least-squares fitting over random feature spans and empirical width search.

The L2 projection of a target onto the span of ``r`` sampled features is
realized as weighted least squares on a quadrature grid: one Householder QR
of the weighted design, then the SVD of a leading block of ``R`` with the
rank cut of ``np.linalg.lstsq`` (singular values at most ``_RCOND`` times the
largest count as zero).  The QR runs in place through LAPACK
(:func:`_qr_in_place`), on the buffer the design is written into, with the
bits of ``np.linalg.qr``.  The targets' part outside the span is read off the
QR of ``[A | rhs]`` or, for many targets, downdated from their norms with
``Q^T rhs``, ``Q^T`` being left in that buffer.  On top of that sit Monte
Carlo estimates of the success probability ``P[inf-over-span error <= eps]``
and a doubling-plus-bisection search for the smallest width reaching a
target success rate.

All randomness flows through ``numpy`` generators seeded per trial as
``default_rng([seed, trial])``, so results do not depend on how trials are
grouped, and feature draws are *coupled* across widths: trial ``t`` at width
``r+1`` extends the same draw used at width ``r`` by one more feature, so
residuals never rise per trial while no width loses a singular value to the
rank cut.  So one factorization per trial, at the widest width a run asks
for, gives the residual at every narrower width.  The width search, which
does not know its widest width in advance, draws each trial once per search
while the draws fit ``_HELD_BYTES`` and factors, at each doubling width, the
prefix of that draw; each trial's
bisection then opens at its tail-bound count, the first count whose part
outside the span is within ``epsilon`` (:func:`_first_passing`).

The trial entries share one argument check (:func:`_check_entry`).  Every
trial loop runs over :func:`_factored`, which factors the draws its caller
supplies: one per trial at the widest width in the one width loop
(:func:`_at_widths`) of :func:`width_residuals` and :func:`success_probability`;
a prefix of each held draw, or a fresh draw past the budget, for
:func:`estimate_minwidth`.
Residuals are read through :meth:`_Factors.norms` (:func:`width_residuals`);
success decisions, all that the success probability and the width search
need, through :meth:`_Factors.passes`, which gives the decision of ``norms``
but solves only the blocks whose part outside the span is within
``epsilon``: the others fail whatever the solve adds.

The engine knows features only through three methods of the distribution,
which ``relu.ReluParamDist`` implements for ReLU features:
``sample_batch(rng, r)`` draws a tuple of arrays with one row per feature,
each a prefix of every wider draw; ``live(draws, nodes)`` maps draws stacked
by trial to a ``(trials, r)`` mask of the columns to factor, each column
left out lying in the span of kept ones drawn before it; and
``columns(draws, nodes, out)`` writes, for draws stacked by trial, feature
``i`` of trial ``t`` at the nodes into row ``out[t, i]``, which the engine
then weights: one call per chunk of trials factored together.  The engine
passes both the grid's nodes ``(n, d)`` column-major, as
``Grid.column_major_nodes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from numpy.linalg import lapack_lite

from .caps import active_cap
from .errors import CapExceeded, EmptyFeatureList, ParameterOutOfRange
from .quadrature import Grid, evaluate_on
from .relu import FittedSpan, ReluParamDist, _check_features
from .relu import _design_matrix  # noqa: F401  the benchmark's tracer patches it here


# Bytes of stacked weighted designs that ``_Factors`` factors at once.
_CHUNK_BYTES = 2 * 2**20

# Bytes of draws and factors kept at once: the trials of a batch this size
# are grouped by live count for every stacked QR and SVD.
_BATCH_BYTES = 16 * 2**20

# Bytes of draws the width search holds across its doubling widths, beside its
# batches.  At the CLI's defaults (200 trials, ``r_max`` 4096) that is 655
# features per trial at d = 1 and 436 at d = 2, past the width 64 by which the
# README's d = 1 search and a d = 2 search of the benchmark's kind stop.
_HELD_BYTES = 2 * 2**20

# Rank cut of every solve: singular values at most ``_RCOND`` times the
# largest count as zero, the cut ``np.linalg.lstsq`` makes given this cutoff.
_RCOND = 1e-10

# The part of a target outside the span is downdated as ``|rhs|^2 - |Q^T rhs|^2``
# where that keeps at least this share of ``|rhs|^2``, so the rounding of both
# terms (a small multiple of the unit roundoff times ``|rhs|^2``) grows at most
# 16-fold relative to it; below, it is recomputed from ``rhs - Q Q^T rhs``.
_DOWNDATE = 1 / 16

# The two-sided 95% standard normal quantile of every Wilson interval.
_Z95 = 1.96


class _Weighted(NamedTuple):
    """Targets as every solve takes them: the square roots ``(n,)`` of the grid's
    weights, the targets scaled by them ``(n, m)``, and the squared norms ``(m,)`` of
    those columns.  :func:`width_residuals` and :func:`success_probability` take this
    form in place of the targets, and :func:`_weighted_lstsq` only this form, so a
    caller can keep it across runs (``lowerbound._weighted_family``)."""

    root_w: np.ndarray
    rhs: np.ndarray
    norm_sq: np.ndarray


def _weighted(targets: np.ndarray, weights: np.ndarray) -> _Weighted:
    """The targets ``(n,)`` or ``(n, m)`` weighted for the solves (:class:`_Weighted`).

    Every solve enters here, so non-finite targets stop here: a sum of squares
    is finite only if each term is, so one check on the squared norms covers
    the weighted targets too.  Raises ``FloatingPointError`` otherwise.
    """
    root_w = np.sqrt(weights)
    rhs = targets.reshape(len(targets), -1) * root_w[:, None]
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        norm_sq = np.array([col @ col for col in rhs.T])
    if not np.all(np.isfinite(norm_sq)):
        raise FloatingPointError("the weighted targets on the grid, or their squared norms, "
                                 "are not finite")
    return _Weighted(root_w, rhs, norm_sq)


def check_sampling_cap(trials: int, widest: int, nodes: int) -> None:
    """Raise :class:`CapExceeded` when the draws of ``trials`` trials ``widest``
    features wide, or one design matrix of ``nodes`` grid nodes by ``widest``
    features, pass the active cap; the message names the widest width that fits.
    The trial entries check it before they draw, the CLI before it builds a grid."""
    limit = active_cap()
    for what, per_width in ((f"trials x max(r) = {trials} x {widest}", trials),
                            (f"design matrix of {nodes} grid nodes x {widest} features", nodes)):
        if per_width * widest > limit:
            raise CapExceeded(f"{what} exceeds the cap {limit}; "
                              f"the widest width that fits is {limit // per_width}")


def _check_entry(trials: int, widths: list[int], least: int, name: str, given,
                 nodes: int, epsilon: float | None = None) -> None:
    """The trial entries' one check before any draw: at least one trial, a width, each
    at least ``least`` (the caller's parameter ``name``, given as ``given``), a positive
    ``epsilon`` where one is given, and the sampling cap (:func:`check_sampling_cap`)."""
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if not widths or min(widths) < least:
        raise ParameterOutOfRange(f"{name} must be >= {least}, got {given}")
    if epsilon is not None and epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    check_sampling_cap(trials, max(widths), nodes)


def _lapack(routine: str, *args) -> None:
    """Call the ``lapack_lite`` binding named ``routine`` with ``info`` appended; a
    nonzero ``info`` raises ``LinAlgError``."""
    info = getattr(lapack_lite, routine)(*args, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info = {info}")


@lru_cache(maxsize=64)
def _lwork(n: int, cols: int, form_q: bool) -> int:
    """The workspace :func:`_qr_in_place` takes for ``n x cols`` slots: the larger of
    what ``dgeqrf`` and, with ``form_q``, ``dorgqr`` ask for.

    Each routine's ``lwork = -1`` query sizes it, as ``np.linalg.qr`` sizes its
    own.  A query reads the shape alone, never the matrix, so each shape is
    queried once.  LAPACK cuts its block size only when ``lwork`` falls short of
    the query, so the blocking, and with it the bits, are ``np.linalg.qr``'s.
    """
    k = min(n, cols)
    a, tau, size = np.empty(1), np.empty(1), np.ones(1)
    calls = [("dgeqrf", n, cols, a, n, tau)]
    if form_q:
        calls.append(("dorgqr", n, k, k, a, n, tau))
    lwork = 1
    for routine, *args in calls:
        _lapack(routine, *args, size, -1)
        lwork = max(lwork, int(size[0]))
    return lwork


def _qr_in_place(stack: np.ndarray, form_q: bool) -> np.ndarray:
    """Householder QR of each slot of ``stack``, in place, with no copy.

    ``stack`` has shape ``(count, columns, n)``, so each slot ``stack[t]`` is
    the column-major ``n x columns`` matrix ``A`` LAPACK factors, with
    ``lda = n``; ``dgeqrf`` factors it there.  Returns ``R`` of shape
    ``(count, min(n, columns), columns)``, read before anything overwrites
    it.  With ``form_q``, ``dorgqr`` then overwrites each slot's first
    ``min(n, columns)`` rows with ``Q^T``, the reduced ``Q`` of ``A = Q R``.
    These are the bits of ``np.linalg.qr``; ``lapack_lite`` is private to
    numpy, so ``tests/test_fitter.py::TestInPlaceQR`` pins them to it.
    """
    count, cols, n = stack.shape
    k = min(n, cols)
    tau = np.empty((count, k))
    work = np.empty(_lwork(n, cols, form_q))
    for slot, scalars in zip(stack, tau):
        _lapack("dgeqrf", n, cols, slot, n, scalars, work, len(work))
    R = np.triu(np.swapaxes(stack, -1, -2)[:, :k])
    if form_q:
        for slot, scalars in zip(stack, tau):
            _lapack("dorgqr", n, k, k, slot, n, scalars, work, len(work))
    return R


def _factor(columns, draws: tuple, count: int, w: int, nodes: np.ndarray,
            targets: _Weighted) -> tuple[np.ndarray, np.ndarray]:
    """One Householder QR per design ``A`` of the ``count`` draws ``draws``, stacked by
    trial, ``w`` features each, at ``nodes``, against the weighted ``targets``.

    One call ``columns(draws, nodes, out)`` writes every design, one row per
    column, into its slot of one stack of ``n``-long rows, the layout
    :func:`_qr_in_place` factors in place, and the rows are weighted there.
    Returns ``R`` of shape ``(count, min(n, w), w)`` with ``A = Q R``, and
    ``C`` of shape ``(count, q, m)``: its first ``min(n, w)`` rows are
    ``Q^T rhs`` and the rest hold the targets' part orthogonal to every
    column of ``Q``, so the part of ``rhs`` outside the span of ``Q``'s first
    ``k`` columns has the norm of ``C[:, k:]``.  With fewer targets than
    columns the targets join the factorization as ``[A | rhs]`` and ``C`` is
    read off its ``R``.  Otherwise each slot then holds ``Q^T``, ``C`` is one
    stacked product with ``rhs``, and the part outside is downdated from the
    targets' squared norms ``norm_sq`` as ``norm_sq - |Q^T rhs|^2``, the
    column-norm downdate of LAPACK's xGEQP3; where that falls below
    ``_DOWNDATE`` times ``norm_sq`` it is recomputed as ``|rhs - Q Q^T rhs|^2``
    for that trial and target.
    """
    root_w, rhs, norm_sq = targets
    n, m = rhs.shape
    joined = m < w
    stack = np.empty((count, w + m if joined else w, n))
    designs = stack[:, :w]
    columns(draws, nodes, designs)
    designs *= root_w
    if joined:
        stack[:, w:] = rhs.T
        full = _qr_in_place(stack, form_q=False)
        return full[:, :min(n, w), :w], full[:, :, w:]
    R = _qr_in_place(stack, form_q=True)
    Qt = stack[:, :R.shape[1]]
    C = Qt @ rhs
    # not einsum: its one-target sum varies with ``count``
    outside = norm_sq - np.sum(C * C, axis=1)
    for t, j in zip(*np.nonzero(outside < _DOWNDATE * norm_sq)):
        gap = rhs[:, j] - C[t, :, j] @ Qt[t]
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
    """QR factors of the live design columns of ``draws``, one draw of ``dist`` per
    trial, read at any live count.

    ``mask`` is ``dist.live`` of the draws stacked by trial, and ``live[t, r]``
    counts its columns among trial ``t``'s first ``r``.  Trials with one live
    count are factored (:func:`_factor`) in stacks of about ``_CHUNK_BYTES``,
    counted as the stack holds them: the designs with the targets beside them
    where fewer targets than columns join the QR, the designs alone otherwise.
    Each chunk's live draws are picked and its designs written in one call
    each.  Trial ``t``'s design (``L`` columns) has its ``R`` in the top-left
    ``min(n, L) x L`` corner of ``R[t]`` and its ``C`` in the top rows of
    ``C[t]``; the rest is zero, and ``tails[t, k]`` holds the squared norms of
    ``C[t, k:]``.  So trials of any live count stack into one solve at a
    common smaller count, and a count of 0 reads the targets' norms.
    """

    def __init__(self, dist, draws: list, nodes: np.ndarray, targets: _Weighted):
        stacked = tuple(map(np.stack, zip(*draws)))
        self.mask = dist.live(stacked, nodes)
        (trials, w), (n, m) = self.mask.shape, targets.rhs.shape
        self.live = np.zeros((trials, w + 1), dtype=np.intp)
        np.cumsum(self.mask, axis=1, out=self.live[:, 1:])
        self.R = np.zeros((trials, min(n, w), w))
        self.C = np.zeros((trials, min(n, w) + m + 1, m))
        self.tails = np.zeros_like(self.C)
        self.target_norms = np.sqrt(targets.norm_sq)
        for count in np.flatnonzero(np.bincount(self.live[:, w])[1:]) + 1:
            group = np.flatnonzero(self.live[:, w] == count)
            rows = count + m if m < count else count  # the rows of one slot of the stack
            per_chunk = max(1, _CHUNK_BYTES // (8 * n * rows))
            for first in range(0, len(group), per_chunk):
                sel = group[first:first + per_chunk]
                keep = self.mask[sel]
                live_draws = tuple(part[sel][keep].reshape(len(sel), count, *part.shape[2:])
                                   for part in stacked)
                R, C = _factor(dist.columns, live_draws, len(sel), count, nodes, targets)
                self.R[sel, :R.shape[1], :count] = R
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

    def passes(self, ids: np.ndarray, counts: np.ndarray, epsilon: float) -> np.ndarray:
        """Whether each trial's residual is at most ``epsilon``: ``norms(ids,
        counts)[:, 0] <= epsilon``, solving only the trials where that could hold.

        :func:`_solve_block` returns ``sqrt(tail + S)`` with ``S`` a sum of
        squares, and IEEE addition and ``sqrt`` are monotone, so it is never
        below ``sqrt(tail)``: a trial whose part outside its block already
        exceeds ``epsilon`` fails without a solve.  The others, and every count
        of 0, are decided by :meth:`norms`.
        """
        k = np.minimum(counts, self.R.shape[1])
        open_ = (counts == 0) | (np.sqrt(self.tails[ids, k, 0]) <= epsilon)
        out = np.zeros(len(ids), dtype=bool)
        out[open_] = self.norms(ids[open_], counts[open_])[:, 0] <= epsilon
        return out


def _weighted_lstsq(W: np.ndarray, b: np.ndarray, grid: Grid,
                    targets: _Weighted) -> tuple[np.ndarray, np.ndarray]:
    """Project the weighted targets (:class:`_Weighted`, ``m`` of them) onto the span of
    the features ``(W, b)`` in the grid's weighted L2 norm; returns the coefficients
    ``(r, m)`` and the residual norms ``(m,)``.

    ``(W, b)``, checked against the grid, is factored as a batch of one trial
    (:class:`_Factors`), so it gives the bits a trial with the same draw gives.
    Features ``ReluParamDist.live`` leaves out get coefficient 0.
    """
    _check_features(W, b, grid.nodes.shape[1])
    factors = _Factors(ReluParamDist, [(W, b)], grid.column_major_nodes, targets)
    w = int(factors.live[0, -1])
    coeffs, norms = np.zeros((len(W), targets.rhs.shape[1])), factors.target_norms
    if w:
        norms, solved = _solve_block(*factors.block(np.zeros(1, dtype=np.intp), w),
                                     coefficients=True)
        norms, coeffs[factors.mask[0]] = norms[0], solved[0]
    return coeffs, norms


def fit_span(W: np.ndarray, b: np.ndarray, f, grid: Grid) -> FittedSpan:
    """Project ``f`` onto the span of the features ``W (r, d)``, ``b (r,)``, in the
    grid's L2 norm.

    Duplicate or nearly parallel features are handled by the rank cut at
    ``_RCOND``; the residual is invariant to feature order and duplication
    because the span is.  Features that are zero at every node, and
    always-active features past the first ``d + 1`` (see ``relu._live``), are
    left out of the solve and get coefficient 0.  The span, the fitted
    values and the residual are those over every feature, but the other
    coefficients are the minimum-norm ones over the features kept, not over
    the full set.
    """
    if not len(b):
        raise EmptyFeatureList("cannot fit over an empty feature list")
    W, b = np.asarray(W, dtype=float), np.asarray(b, dtype=float)
    targets = _weighted(evaluate_on(f, grid.nodes), grid.weights)
    coeffs, norms = _weighted_lstsq(W, b, grid, targets)
    return FittedSpan(W=W, b=b, coefficients=coeffs[:, 0], l2_error=float(norms[0]),
                      grid_id=grid.spec.label())


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion; exactly 0 at
    ``successes == 0`` and 1 at ``successes == trials``, where the formula misses by a rounding."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterOutOfRange(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + _Z95**2 / trials
    center = (p + _Z95**2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials + _Z95**2 / (4 * trials**2)) / denom
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


def _draw(dist, w: int, seed, trial: int) -> tuple:
    """Trial ``trial``'s first ``w`` features, from ``default_rng([seed, trial])``."""
    return dist.sample_batch(np.random.default_rng([*np.atleast_1d(seed).tolist(), trial]), w)


def _factored(targets: _Weighted, grid: Grid, dist, w: int, trials, draw):
    """Yield ``(ids, factors)`` (:class:`_Factors`) for the width-``w`` draws ``draw(t)``
    of ``trials``, in batches whose draws (taken as ``d + 1`` numbers per feature) and
    factors take about ``_BATCH_BYTES``; nothing for ``w = 0``."""
    n, m = targets.rhs.shape
    rows = min(n, w)
    per_trial = 8 * (rows * w + 2 * (rows + m + 1) * m + w * (grid.nodes.shape[1] + 1))
    per_batch = max(1, _BATCH_BYTES // per_trial)
    for start in range(0, len(trials) if w else 0, per_batch):
        ids = trials[start:start + per_batch]
        yield ids, _Factors(dist, [draw(t) for t in ids], grid.column_major_nodes, targets)


def _at_widths(targets: _Weighted, grid: Grid, dist, widths: list[int], seed, trials: int):
    """Yield ``(ids, j, factors, live)`` per batch of trials ``ids``, each drawn and
    factored once at the widest width (:func:`_factored`), and per width ``widths[j]``:
    ``live`` are the live counts of the batch's trials among their first ``widths[j]``
    features, as :meth:`_Factors.norms` and :meth:`_Factors.passes` read them."""
    w = max(widths)
    for ids, factors in _factored(targets, grid, dist, w, np.arange(trials),
                                  partial(_draw, dist, w, seed)):
        for j, width in enumerate(widths):
            yield ids, j, factors, factors.live[:, width]


def width_residuals(targets: np.ndarray, grid: Grid, dist, widths, seed,
                    trials: int) -> np.ndarray:
    """Residual norms of ``targets`` against the span of the first ``r`` random
    features of each trial, for every ``r`` of ``widths``.

    Trial ``t`` draws its features from ``default_rng([seed, t])``.  The draws
    are coupled, so each trial is drawn and factored once, at the widest
    width, on its live columns only, and every width reads its residual from
    a leading block of that factor: its live count among its first ``r``
    features gives the block (:func:`_at_widths`, :meth:`_Factors.norms`).
    A width of 0 gives the targets' norms, the bits of a trial with no live
    feature, and a run of only such widths draws nothing.  Returns shape
    ``(trials, len(widths))`` for targets of shape ``(n,)`` and
    ``(trials, len(widths), m)`` for targets of shape ``(n, m)`` or for
    targets given weighted (:class:`_Weighted`), as a study keeps them.
    """
    widths = [int(v) for v in widths]
    _check_entry(trials, widths, 0, "widths", widths, grid.nodes.shape[0])
    kept = isinstance(targets, _Weighted)
    weighted = targets if kept else _weighted(targets, grid.weights)
    out = np.empty((trials, len(widths), weighted.rhs.shape[1]))
    out[:] = np.sqrt(weighted.norm_sq)
    for ids, j, factors, live in _at_widths(weighted, grid, dist, widths, seed, trials):
        out[ids, j] = factors.norms(np.arange(len(ids)), live)
    return out if kept or targets.ndim == 2 else out[..., 0]


def success_probability(f, epsilon: float, dist, r, trials: int,
                        grid: Grid, seed):
    """Fraction of independent trials whose fitted span reaches error <= eps.

    ``f`` is the target, a callable evaluated at the grid's nodes, or its values
    there weighted (:class:`_Weighted`), as a study keeps them.  ``r`` is one
    width, giving one :class:`SuccessEstimate`, or a list of widths, giving one
    estimate per width.  Each trial is drawn and factored once, at the widest
    width, as in :func:`width_residuals`, and each width decides its trials
    through :meth:`_Factors.passes`, which solves only the blocks whose part
    outside the span leaves the decision open.
    """
    single = np.ndim(r) == 0
    widths = [int(v) for v in ([r] if single else r)]
    _check_entry(trials, widths, 1, "r", r, grid.nodes.shape[0], epsilon)
    targets = f if isinstance(f, _Weighted) else _weighted(evaluate_on(f, grid.nodes),
                                                           grid.weights)
    counts = np.zeros(len(widths), dtype=np.intp)
    for ids, j, factors, live in _at_widths(targets, grid, dist, widths, seed, trials):
        counts[j] += np.count_nonzero(factors.passes(np.arange(len(ids)), live, epsilon))
    estimates = []
    for width, successes in zip(widths, counts.tolist()):
        lo, hi = wilson_interval(successes, trials)
        estimates.append(SuccessEstimate(probability=successes / trials, ci_lo=lo, ci_hi=hi,
                                         trials=trials, r=width, epsilon=epsilon))
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


def _first_passing(factors: _Factors, sel: np.ndarray, lo: int, hi: int,
                   epsilon: float) -> np.ndarray:
    """Per trial of ``sel``, the first width in ``(lo, hi]`` whose residual is <= ``epsilon``.

    Every trial's residual passes at ``hi`` and fails at ``lo`` (``lo = 0``
    fails by definition).  A residual depends on the width only through the
    live count and never rises with it, so bisection on the live counts between
    ``factors.live[:, lo]`` and ``factors.live[:, hi]`` finds the first passing count,
    and the width is the first at which the trial reaches it.  Each step
    decides through :meth:`_Factors.passes`, so trials at the same count share
    one stacked solve, and those whose part outside the block exceeds
    ``epsilon`` none.

    The bisection opens at each trial's tail-bound count ``L0``, the first
    count whose part outside the block is within ``epsilon``: every count
    below it fails whatever the solve adds, so the lower end rises to
    ``L0 - 1``, and a trial whose lower end is ``L0 - 1`` probes ``L0`` as its
    first midpoint.  A block with no rank cut adds nothing to that part, so
    one solve settles such a trial.
    """
    rows = factors.R.shape[1]  # a count past it reads the tail at ``rows``
    l0 = np.argmax(np.sqrt(factors.tails[sel, :rows + 1, 0]) <= epsilon, axis=1)
    lo_count = np.maximum(factors.live[sel, lo], l0 - 1)
    hi_count = factors.live[sel, hi]
    while np.any(open_ := hi_count - lo_count > 1):
        at = np.flatnonzero(open_)
        mid = np.where(lo_count[at] == l0[at] - 1, l0[at], (lo_count[at] + hi_count[at]) // 2)
        passed = factors.passes(sel[at], mid, epsilon)
        hi_count[at[passed]] = mid[passed]
        lo_count[at[~passed]] = mid[~passed]
    return np.maximum(np.count_nonzero(factors.live[sel] < hi_count[:, None], axis=1), lo + 1)


def estimate_minwidth(f, epsilon: float, delta: float, dist,
                      grid: Grid, trials: int, r_max: int, seed) -> MinWidthEstimate:
    """Doubling then bisection for the smallest width with success >= 1 - delta.

    Per-trial seeds depend only on (seed, trial), so the feature draws are
    nested across widths and each trial's residual never rises with the
    width: success at width ``r`` is ``#{t : r*_t <= r} / trials``, with
    ``r*_t`` the first width at which trial ``t`` reaches ``epsilon``.  Each
    trial that has not yet passed holds one draw, as wide as ``r_max`` or as
    the draws of all such trials fit in ``_HELD_BYTES``, until it passes or
    the doubling goes past that width; then it is drawn again as wide as the
    budget allows, or, where the budget holds no width-``r`` draw per open
    trial, drawn at width ``r`` one batch at a time as it is factored.  At
    each doubling width ``r`` those trials factor the first ``r`` features of
    their draws, the bits of a fresh width-``r`` draw (``sample_batch``'s
    prefix property); those that pass find their
    ``r*_t`` by bisection over live counts on leading blocks of that factor,
    which is then dropped, opening at the first count whose part outside the
    block is within ``epsilon`` (:func:`_first_passing`).  The doubling and
    the bisection over success probabilities are replayed from the ``r*_t``
    alone, so ``search_trace`` lists the probes a search solving every trial
    at every probed width makes.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRange(f"delta must be in (0, 1), got {delta}")
    _check_entry(trials, [r_max], 1, "r_max", r_max, grid.nodes.shape[0], epsilon)
    threshold = 1.0 - delta
    targets = _weighted(evaluate_on(f, grid.nodes), grid.weights)
    first = np.zeros(trials, dtype=np.intp)  # r*_t, or 0 while trial t has not passed
    trace: list[tuple[int, float]] = []

    def probe(r: int) -> float:
        prob = int(np.count_nonzero((first > 0) & (first <= r))) / trials
        trace.append((r, prob))
        return prob

    held, held_width = {}, 0  # each open trial's draw, ``held_width`` features wide
    r, last_fail = 1, 0
    while True:
        open_ = np.flatnonzero(first == 0)
        if r > held_width:  # the widest draws of every open trial that fit the budget
            fit = _HELD_BYTES // (8 * (grid.nodes.shape[1] + 1) * len(open_))
            held_width = min(r_max, fit) if fit >= r else 0
            held = ({t: _draw(dist, held_width, seed, t) for t in open_.tolist()}
                    if held_width else {})
        # past the budget each batch is drawn as it is factored
        draw = ((lambda t: tuple(part[:r] for part in held[t])) if held_width
                else partial(_draw, dist, r, seed))
        for ids, factors in _factored(targets, grid, dist, r, open_, draw):
            passed = np.flatnonzero(factors.passes(np.arange(len(ids)), factors.live[:, r],
                                                   epsilon))
            first[ids[passed]] = _first_passing(factors, passed, last_fail, r, epsilon)
            for t in ids[passed].tolist():
                held.pop(t, None)
        prob = probe(r)
        if prob >= threshold:
            break
        if r >= r_max:
            raise CapExceeded(f"no width <= {r_max} reached success probability {threshold}")
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
