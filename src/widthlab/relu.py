"""ReLU-mixture machinery for ridge functions.

A twice-differentiable ridge profile ``phi`` on ``[-sqrt(d), sqrt(d)]`` can be
written as a mixture of ReLU kinks: with ``b`` uniform on
``[-2 sqrt(d), 2 sqrt(d)]``,

    E_b[ psi(b) * relu(z - b) ] = phi(z)   for z in [-sqrt(d), sqrt(d)],

where ``psi`` is an explicit piecewise density built from ``phi(-sqrt(d))``,
``phi'(-sqrt(d))`` and the curvature ``phi''``.  Applied to the ridge profiles
of the trigonometric basis functions this turns any low-degree trig
polynomial into an expectation of random ReLU features, which a sample
average then approximates at the usual ``1/sqrt(r)`` Monte Carlo rate.

The module also owns the ReLU feature as ``widthlab.fitter``'s solves see it:
its column at the grid's nodes (:func:`_design_matrix`) and the exact rules
that leave dead and surplus affine columns out of a solve (:func:`_live`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from typing import Callable

import numpy as np

from .caps import active_cap
from .errors import (
    CapExceeded,
    DimensionMismatch,
    NotUnitNorm,
    OutOfSupport,
    ParameterOutOfRange,
    UnsupportedCombination,
    WeightNotInSupport,
)
from .lattice import (
    IndexClass,
    MultiIndex,
    _check_ball_table,
    classify,
    count_ball,
    enumerate_ball,
    l2_norm_sq,
    radius_sq_bound,
)
from .quadrature import Grid, l2_error, memoized
from .trig import SQRT2, TrigPolynomial


def _check_features(W: np.ndarray, b: np.ndarray, d: int) -> None:
    """Raise :class:`DimensionMismatch` unless ``W`` has shape ``(len(b), d)``,
    :class:`NotUnitNorm` unless each of its rows has norm 1 within 1e-12 (a NaN
    row has none), and :class:`ParameterOutOfRange` unless each bias is finite."""
    if np.shape(W) != (len(b), d):
        raise DimensionMismatch(f"feature weights have shape {np.shape(W)}, "
                                f"expected ({len(b)}, {d})")
    norms = np.linalg.norm(W, axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if len(off):
        raise NotUnitNorm(f"feature weight has norm {norms[off[0]]!r}, expected 1")
    bad = np.asarray(b)[~np.isfinite(b)]
    if len(bad):
        raise ParameterOutOfRange(f"feature bias {bad[0]!r} is not finite")


def _relu(a: np.ndarray, c: np.ndarray, bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``max(a @ c - bias, 0)`` into ``out``, the one ReLU formula: ``X W^T`` gives one
    column per feature and ``W X^T``, with ``X^T`` a view, the same bits as rows, when
    both read ``X`` in one layout."""
    np.matmul(a, c, out=out)
    out -= bias
    np.maximum(out, 0.0, out=out)
    return out


def _design_matrix(W: np.ndarray, b: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``relu(<w_i, x> - b_i)`` at every node, one column per feature, in one buffer.

    The nodes are read column-major (copied unless they are, as
    ``Grid.column_major_nodes`` is), the layout the trial engine passes
    :meth:`ReluParamDist.columns`, so its rows have these columns' bits.
    """
    return _relu(np.asfortranarray(nodes), W.T, b, np.empty((len(nodes), len(b))))


def _reach(nodes: np.ndarray) -> np.ndarray:
    """The largest ``|x_j|`` over the nodes, per coordinate ``j``: on column-major nodes
    each coordinate is reduced over contiguous memory."""
    return np.max(np.abs(nodes), axis=0)


# A draw's surplus always-active columns are dropped only when the rows
# ``[b_i, W_i]`` of its first d + 1 always-active features have their smallest
# singular value above this share of their largest.  A dropped column is then
# a combination of those d + 1 kept columns whose coefficients are at most
# about ``1 / _AFFINE_TAU`` times its size, so in floating point it lies within
# about ``eps / _AFFINE_TAU`` (2e-13) of their span, far inside the rank cut
# ``fitter._RCOND``: the drop removes only what the cut would, and the kept
# affine block never loses a direction to the cut on its own.  Heads this close
# to singular are rare in D_k draws, and keeping their columns costs only time.
_AFFINE_TAU = 1e-3


def _live(W: np.ndarray, b: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Which of the features ``W (..., r, d)``, ``b (..., r)`` a solve factors, per draw.

    Two rules drop a column, and each is exact: every leading block of a
    draw spans what it spans with the column.

    - Dead: a feature with ``b_i >= sum_j |W_ij| reach_j`` has
      ``<w_i, x> <= b_i`` at each node, so its column is zero.  It adds
      only a zero singular value, which the rank cut drops.
    - Surplus affine: a live feature with ``b_i <= -sum_j |W_ij| reach_j``
      is active at each node, so its column is the affine function
      ``<w_i, x> - b_i``, that is ``diag(root_w) [-1 | X] [b_i; w_i]``.
      When a draw has more than ``d + 1`` such features and the rows
      ``[b_i, W_i]`` of its first ``d + 1`` are well conditioned (see
      ``_AFFINE_TAU``), those rows span every later one's, so each later
      column lies in the span of ``d + 1`` kept columns drawn before it.
      With an ill-conditioned head the draw keeps all of them.

    A dropped feature's minimum-norm coefficient is taken as 0.
    """
    bound = np.abs(W) @ reach
    live = b < bound
    always = live & (b <= -bound)
    d = W.shape[-1]
    order = np.cumsum(always, axis=-1)
    surplus = always & (order > d + 1)
    many = np.any(surplus, axis=-1)
    if np.any(many):
        head = np.concatenate([b[many][..., None], W[many]], axis=-1)
        head = head[always[many] & (order[many] <= d + 1)].reshape(-1, d + 1, d + 1)
        s = np.linalg.svd(head, compute_uv=False)
        live[many] &= ~(surplus[many] & (s[:, -1] > _AFFINE_TAU * s[:, 0])[:, None])
    return live


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


@dataclass(frozen=True)
class RidgeProfile:
    """Boundary data and curvature of a ridge function on [-sqrt(d), sqrt(d)].

    ``curvature`` takes a 1-D array of points inside the interval and returns
    an array of the same shape, or a scalar for a constant curvature.
    """

    value_left: float        # phi(-sqrt(d))
    slope_left: float        # phi'(-sqrt(d))
    curvature: Callable      # phi'', evaluated only inside [-sqrt(d), sqrt(d)]


def psi(profile: RidgeProfile, d: int, b) -> float | np.ndarray:
    """Mixture density at bias ``b`` (a float for a scalar ``b``) for the given ridge profile.

    Piecewise on the four bias intervals: with ``a = phi(-sqrt(d))`` and
    ``s = phi'(-sqrt(d))``,

    * ``(16/sqrt(d)) a - 4 s``  on  ``[-2 sqrt(d), -1.5 sqrt(d))``
    * ``-(16/sqrt(d)) a + 12 s``  on  ``[-1.5 sqrt(d), -sqrt(d))``
    * ``4 sqrt(d) phi''(b)``  on  ``[-sqrt(d), sqrt(d)]``
    * ``0``  on  ``(sqrt(d), 2 sqrt(d)]``
    """
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    root = math.sqrt(d)
    arr = np.asarray(b, dtype=float)
    # Few numpy calls and count_nonzero, not any: h_weight calls psi per scalar bias,
    # through _ray_sum.
    size = np.abs(arr)
    if np.count_nonzero(size > 2.0 * root):
        raise OutOfSupport(f"bias outside [-2 sqrt(d), 2 sqrt(d)] = [{-2*root}, {2*root}]")
    out = np.zeros(arr.shape)
    out[arr < -root] = -(16.0 / root) * profile.value_left + 12.0 * profile.slope_left
    out[arr < -1.5 * root] = (16.0 / root) * profile.value_left - 4.0 * profile.slope_left
    core = size <= root
    if np.count_nonzero(core):
        out[core] = 4.0 * root * np.asarray(profile.curvature(arr[core]), dtype=float)
    return float(out) if arr.ndim == 0 else out


def ridge_profile_of_index(K: MultiIndex, rho: float, d: int) -> RidgeProfile:
    """Profile of ``phi_K``, the ridge slice of ``T_K(rho x)`` along ``K/|K|``.

    ``phi_K(z) = sqrt(2) sin(omega z)`` or ``sqrt(2) cos(omega z)`` with
    ``omega = pi rho |K|``, or the constant 1 for ``K = 0``; derivatives are
    closed-form.
    """
    if rho <= 0:
        raise ParameterOutOfRange(f"argument scale must be positive, got {rho}")
    kind = classify(K)
    if kind is IndexClass.ZERO:
        return RidgeProfile(1.0, 0.0, lambda z: np.zeros_like(np.asarray(z, dtype=float)))
    omega = math.pi * rho * math.sqrt(l2_norm_sq(K))
    left = -math.sqrt(d)
    if kind is IndexClass.SIN:
        return RidgeProfile(
            SQRT2 * math.sin(omega * left),
            SQRT2 * omega * math.cos(omega * left),
            lambda z: -SQRT2 * omega**2 * np.sin(omega * np.asarray(z, dtype=float)),
        )
    return RidgeProfile(
        SQRT2 * math.cos(omega * left),
        -SQRT2 * omega * math.sin(omega * left),
        lambda z: -SQRT2 * omega**2 * np.cos(omega * np.asarray(z, dtype=float)),
    )


_index_profile = lru_cache(maxsize=4096)(ridge_profile_of_index)


def psi_K(K: MultiIndex, rho: float, d: int, b) -> float | np.ndarray:
    """Mixture density reconstructing the basis ridge ``T_K(rho x)``."""
    return psi(_index_profile(tuple(K), rho, d), d, b)


def phi_K(K: MultiIndex, rho: float, z) -> float | np.ndarray:
    """Ridge slice ``phi_K(z)`` with ``T_K(rho x) = phi_K(<K/|K|, x>)``."""
    if rho <= 0:
        raise ParameterOutOfRange(f"argument scale must be positive, got {rho}")
    arr = np.asarray(z, dtype=float)
    kind = classify(K)
    if kind is IndexClass.ZERO:
        out = np.ones_like(arr)
    else:
        omega = math.pi * rho * math.sqrt(l2_norm_sq(K))
        out = SQRT2 * (np.sin(omega * arr) if kind is IndexClass.SIN else np.cos(omega * arr))
    return float(out) if arr.ndim == 0 else out


def unit_direction(K: MultiIndex, d: int) -> np.ndarray:
    """Direction ``K/|K|`` of a lattice index; ``0`` maps to the diagonal."""
    if len(K) != d:
        raise ParameterOutOfRange(f"index has length {len(K)}, expected {d}")
    if classify(K) is IndexClass.ZERO:
        return np.full(d, 1.0 / math.sqrt(d))
    arr = np.asarray(K, dtype=float)
    return arr / np.linalg.norm(arr)


def _draw_loop(rng: np.random.Generator, Q: int, half: float,
               r: int) -> tuple[np.ndarray, np.ndarray]:
    """``r`` features drawn one at a time: ``integers(Q)``, then ``uniform(-half, half)``."""
    integers, uniform = rng.integers, rng.uniform
    idx, b = np.empty(r, dtype=np.intp), np.empty(r)
    for i in range(r):
        idx[i] = integers(Q)
        b[i] = uniform(-half, half)
    return idx, b


# Widths below this are drawn by the loop: one ``random_raw`` call and its
# checks cost more than a few scalar draws.  Best of five, Q = 13: the loop
# took 15, 31 and 35 us at r = 4, 7 and 8, the vectorized draw 23, 31 and
# 22 us; at r = 64 it took 330 us against 23 us.
_VECTOR_FROM = 8
_LOW32 = np.uint64(0xFFFFFFFF)


def _draw_features(rng: np.random.Generator, Q: int, half: float,
                   r: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of :func:`_draw_loop`, bit for bit, from one ``random_raw`` call.

    On PCG64 with ``2 <= Q < 2**32`` the loop's ``integers(Q)`` takes one
    32-bit half of a 64-bit word through Lemire's bounded method, the low half
    first, the high half buffered for the next call; ``uniform`` takes one
    whole word as ``low + (high - low) * ((word >> 11) * 2**-53)``.  So each
    pair of features uses three words: one split between the two indices and
    one bias word each.  An odd last feature is drawn by the loop, which
    leaves its high half buffered as the loop would.  Any other generator,
    a half already buffered, ``Q`` out of that range or a draw that Lemire's
    method would reject (probability about ``r Q / 2**32``) restores the
    generator and runs the loop.
    """
    bitgen = rng.bit_generator
    if r < _VECTOR_FROM or type(bitgen) is not np.random.PCG64 or not 2 <= Q < 2**32:
        return _draw_loop(rng, Q, half, r)
    saved = bitgen.state
    if saved["has_uint32"]:
        return _draw_loop(rng, Q, half, r)
    pairs = r // 2
    words = bitgen.random_raw(3 * pairs).reshape(pairs, 3)
    halves = np.empty(2 * pairs, dtype=np.uint64)
    halves[0::2] = words[:, 0] & _LOW32
    halves[1::2] = words[:, 0] >> np.uint64(32)
    scaled = halves * np.uint64(Q)
    if np.any((scaled & _LOW32) < (2**32 - Q) % Q):
        bitgen.state = saved
        return _draw_loop(rng, Q, half, r)
    idx, b = np.empty(r, dtype=np.intp), np.empty(r)
    idx[:2 * pairs] = scaled >> np.uint64(32)
    low, high = -half, half
    b[:2 * pairs] = low + (high - low) * ((words[:, 1:] >> np.uint64(11)).ravel() * 2.0**-53)
    if r % 2:
        idx[-1:], b[-1:] = _draw_loop(rng, Q, half, 1)
    return idx, b


class ReluParamDist:
    """Base class for (bias, weight) distributions of random ReLU features; its three
    methods are all that ``widthlab.fitter``'s trial engine asks of a distribution."""

    dimension: int

    def sample_batch(self, rng: np.random.Generator, r: int) -> tuple[np.ndarray, np.ndarray]:
        """``r`` features as ``(W (r, d), b (r,))``; the width-``r`` batch is the
        prefix of every wider batch from the same generator state.
        """
        raise NotImplementedError

    @staticmethod
    def live(draws: tuple, nodes: np.ndarray) -> np.ndarray:
        """The mask ``(trials, r)`` of the columns a solve factors (:func:`_live`), for
        draws ``(W (trials, r, d), b (trials, r))`` stacked by trial, at ``nodes``
        ``(n, d)``; the engine passes them column-major (``Grid.column_major_nodes``)."""
        return _live(*draws, _reach(nodes))

    @staticmethod
    def columns(draws: tuple, nodes: np.ndarray, out: np.ndarray) -> None:
        """Write feature ``i`` of trial ``t`` of ``draws = (W (trials, r, d), b (trials, r))``,
        stacked by trial, at every node into row ``out[t, i]``.

        The engine passes ``nodes`` ``(n, d)`` column-major
        (``Grid.column_major_nodes``), so ``nodes.T`` has contiguous rows, and
        each slot's rows have the bits of :func:`_design_matrix`'s columns,
        which reads the same layout: the one stacked product makes, slot by
        slot, the product of one draw.
        """
        W, b = draws
        _relu(W, nodes.T, b[..., None], out)


def _ball_tables(k: float, d: int) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """The radius-``k`` ball in ``d`` dimensions, in :func:`enumerate_ball`'s order, and
    the direction of each index, one read-only row each."""
    ball = tuple(enumerate_ball(k, d))
    # :func:`unit_direction` of every row at once: the squared norms are sums of
    # squared integers, exact, so each row has the bits of its own call
    array = np.array(ball, dtype=float)
    norms = np.sqrt(np.sum(array * array, axis=1, keepdims=True))
    diagonal = np.full_like(array, 1.0 / math.sqrt(d))
    directions = np.divide(array, norms, out=diagonal, where=norms > 0.0)
    directions.setflags(write=False)
    return ball, directions


def _ball_bytes(tables: tuple) -> int:
    """About what :func:`_ball_tables` holds: per index a tuple of ``d`` ints (at most
    ``40 + 36 d`` bytes) and a reference to it, and the directions."""
    ball, directions = tables
    return len(ball) * (48 + 36 * directions.shape[1]) + directions.nbytes


def _ball_rays(ball: tuple[MultiIndex, ...],
               d: int) -> tuple[np.ndarray, tuple[tuple[MultiIndex, ...], ...]]:
    """The ray of every index of ``ball`` (read-only), and each ray's members as
    :func:`ray_members` lists them.

    A ray is keyed by its primitive lattice vector ``K / gcd(K)``; the zero
    index joins the diagonal ray, first, and the other members follow in
    increasing multiple.
    """
    ids: dict[MultiIndex, int] = {}
    ray_of = np.empty(len(ball), dtype=np.intp)
    rays: list[list[tuple[int, MultiIndex]]] = []
    for q, K in enumerate(ball):
        g = math.gcd(*K)
        key = tuple(c // g for c in K) if g else (1,) * d
        ray = ids.setdefault(key, len(rays))
        if ray == len(rays):
            rays.append([])
        rays[ray].append((g, K))
        ray_of[q] = ray
    ray_of.setflags(write=False)
    return ray_of, tuple(tuple(K for _, K in sorted(members)) for members in rays)


def _rays_bytes(rays: tuple) -> int:
    """About what :func:`_ball_rays` holds: per index a reference from its ray's
    tuple, whose header is at most one more per index, and its entry of the array."""
    ray_of, _ = rays
    return 64 * len(ray_of) + ray_of.nbytes


@dataclass
class DkDistribution(ReluParamDist):
    """Bias uniform on [-2 sqrt(d), 2 sqrt(d)]; weight a uniform ball direction.

    The weight is ``K/|K|`` for ``K`` drawn index-uniformly from the lattice
    ball of radius ``k`` (the zero index mapping to the diagonal direction).
    The distribution is permutation-symmetric because the ball is.
    ``directions`` holds the direction of every ball index, one row each.  The
    ball and its directions, and its rays (:attr:`rays`) once read, are kept in
    the process memo (:func:`quadrature.memoized`), keyed by ``d`` and the
    squared radius that bounds the ball, all they are built from, so the
    distributions of one study enumerate the ball once; the caps on the ball
    and on its direction table (``lattice._check_ball_table``) are checked on
    every construction.
    """

    k: float
    dimension: int
    _ball: tuple[MultiIndex, ...] = field(init=False, repr=False)
    directions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 0:
            raise ParameterOutOfRange(f"ball radius must be nonnegative, got {self.k}")
        if self.dimension < 1:
            raise ParameterOutOfRange(f"dimension must be >= 1, got {self.dimension}")
        _check_ball_table(self.k, self.dimension)
        self._ball, self.directions = memoized(
            ("ball", radius_sq_bound(self.k), self.dimension),
            partial(_ball_tables, self.k, self.dimension), _ball_bytes)

    def sample_indices(self, rng: np.random.Generator, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Ball indices (rows of ``directions``) and biases of ``r`` features.

        Each feature takes one scalar index draw and then one scalar bias
        draw, so the width-``r`` batch is the prefix of every wider batch from
        the same generator state.
        """
        return _draw_features(rng, len(self._ball), 2.0 * math.sqrt(self.dimension), r)

    def sample_batch(self, rng: np.random.Generator, r: int) -> tuple[np.ndarray, np.ndarray]:
        idx, b = self.sample_indices(rng, r)
        return self.directions[idx], b

    # One draw, ``(w (d,), b)``: the benchmark's tracer patches this name, and the
    # tests check a batch against successive single draws.
    def sample_feature(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        W, b = self.sample_batch(rng, 1)
        return W[0], float(b[0])

    @cached_property
    def rays(self) -> tuple[np.ndarray, tuple[tuple[MultiIndex, ...], ...]]:
        """The ray of every ball index, and each ray's members (:func:`_ball_rays`),
        built on first read: only importance weights read them."""
        return memoized(("rays", radius_sq_bound(self.k), self.dimension),
                        partial(_ball_rays, self._ball, self.dimension), _rays_bytes)

    def importance_weights(self, P: TrigPolynomial, idx: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``h(b_i, w_i)`` of features given by ball index and bias, as :func:`h_weight`
        computes it; the rays, ``Q`` and the check of ``P`` serve every feature, and
        only the rays that hold a term of ``P`` are visited.
        """
        _check_terms(P, self.k, self.dimension)
        ray_of, rays = self.rays
        ray_ids = ray_of[idx]
        # A ray with no term of P weighs Q/|ray| * 0.0 = +0.0; the ball is in
        # lexicographic order, so bisection finds the ray of each term.
        out = np.zeros(len(b))
        for ray in {ray_of[bisect_left(self._ball, K)] for K in P.terms}:
            members, sel = rays[ray], ray_ids == ray
            out[sel] = len(self._ball) / len(members) * _ray_sum(members, P, self.dimension,
                                                                 b[sel])
        return out


# A multiple of a ray's direction counts as a ball index when every coordinate
# lies within this of an integer.
_RAY_ATOL = 1e-8


def ray_members(w: np.ndarray, k: float, d: int) -> list[MultiIndex]:
    """Ball indices that are nonnegative multiples of the direction ``w``.

    Scans integer values of the largest-magnitude coordinate rather than
    filtering the whole ball: any integral multiple ``v = eta w`` (eta > 0)
    has ``v[i0] = m`` a nonzero integer with ``|m| <= |v| <= k``, so trying
    every such ``m``, all in one array, finds every member.  The zero index
    is included exactly when ``w`` is the diagonal direction, matching
    ``unit_direction``.
    """
    w = np.asarray(w, dtype=float)
    bound_sq = radius_sq_bound(k)
    members: list[MultiIndex] = []
    if np.abs(w - 1.0 / math.sqrt(d)).max() <= 1e-9:
        members.append((0,) * d)
    i0 = int(np.abs(w).argmax())
    # Row m - 1 is the multiple with v[i0] = m sign(w[i0]), for m = 1 .. isqrt(bound_sq).
    v = (np.arange(1, math.isqrt(bound_sq) + 1) / abs(w[i0]))[:, None] * w
    rounded = np.rint(v)
    for row in rounded[np.abs(v - rounded).max(axis=1) <= _RAY_ATOL].tolist():
        K = tuple(int(c) for c in row)
        if l2_norm_sq(K) <= bound_sq:
            members.append(K)
    return members


def _check_terms(P: TrigPolynomial, k: float, d: int) -> None:
    if P.dimension != d:
        raise ParameterOutOfRange(f"polynomial dimension {P.dimension} != {d}")
    bound_sq = radius_sq_bound(k)
    if P.max_norm_sq > bound_sq:
        K = next(K for K in P.terms if l2_norm_sq(K) > bound_sq)
        raise ParameterOutOfRange(f"coefficient index {K} lies outside the radius-{k} ball")


def _ray_sum(members: list[MultiIndex], P: TrigPolynomial, d: int, b):
    """``sum_{K in members} beta_K psi_K(b)`` in member order, for a scalar or array ``b``."""
    total = 0.0
    for K in members:
        beta = P.terms.get(K, 0.0)
        if beta != 0.0:
            total += beta * psi_K(K, P.scale, d, b)
    return total


def h_weight(b: float, w: np.ndarray, P: TrigPolynomial, k: float, d: int) -> float:
    """Importance weight making ``E[h(b,w) relu(<w,x> - b)] = P(x)`` under D_k.

    ``h(b, w) = (Q_{k,d} / |ray(w)|) * sum_{K in ray(w)} beta_K psi_K(b)``,
    where ``ray(w)`` collects the ball indices whose direction is ``w``.
    """
    _check_terms(P, k, d)
    members = ray_members(w, k, d)
    if not members:
        raise WeightNotInSupport(f"direction {w!r} matches no lattice ray of radius {k}")
    return count_ball(k, d) / len(members) * _ray_sum(members, P, d, b)


def width_bound(beta_bar: float, d: int, k: float, Q: int, epsilon: float, delta: float) -> int:
    """Sufficient width for the sample-average network to hit error ``epsilon``.

    ``ceil(360^2 d^2 beta_bar^2 k^4 Q^2 (1 + sqrt(2 ln(1/delta)))^2 / epsilon^2)``,
    never below 1 (width counts at least one unit even for the zero
    polynomial).  ``beta_bar^2 / epsilon^2`` is the square of the ratio
    ``beta_bar / epsilon``, as ``epsilon^2`` underflows to 0 below about
    ``1e-162``, and the squares are products, which overflow to infinity where
    ``**`` would raise; a bound past the float range raises :class:`CapExceeded`.
    """
    if d < 1 or k <= 0 or Q < 1 or epsilon <= 0:
        raise ParameterOutOfRange("d, k, Q, epsilon must be positive")
    if beta_bar < 0:
        raise ParameterOutOfRange(f"coefficient bound must be nonnegative, got {beta_bar}")
    if not 0.0 < delta <= 0.5:
        raise ParameterOutOfRange(f"failure probability must be in (0, 1/2], got {delta}")
    amp = (1.0 + math.sqrt(2.0 * math.log(1.0 / delta))) ** 2
    ratio = beta_bar / epsilon
    raw = 360.0**2 * d**2 * (ratio * ratio) * (k * k) * (k * k) * Q**2 * amp
    if not math.isfinite(raw):
        raise CapExceeded(f"width bound with beta_bar/eps = {ratio} and k = {k} exceeds the "
                          "float range")
    return max(1, math.ceil(raw))


def _network_values(directions: np.ndarray, idx: np.ndarray, b: np.ndarray,
                    coefficients: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``sum_i c_i relu(<w_i, x> - b_i)`` at every node, ``w_i = directions[idx_i]``, in
    ``O(n + r)`` memory: the features of one ball index share ``t = <w, x>``, those
    active at ``t`` (``b_i < t``) are a prefix of their sorted biases, and their sum
    is ``t C - B`` from the prefix sums ``C`` of ``c_i`` and ``B`` of ``c_i b_i``.  Only
    features with ``c_i != 0`` are summed: a zero term changes no nonzero sum, only
    the sign of a zero one."""
    keep = np.flatnonzero(coefficients)
    idx, b, coefficients = idx[keep], b[keep], coefficients[keep]
    order = np.lexsort((b, idx))  # by ball index, then bias
    counts = np.bincount(idx, minlength=len(directions))
    ends = np.cumsum(counts)
    values = np.zeros(len(nodes))
    for q in np.flatnonzero(counts):
        group = order[ends[q] - counts[q]:ends[q]]
        bias, c = b[group], coefficients[group]
        t = nodes @ directions[q]
        active = np.searchsorted(bias, t)
        C = np.concatenate(([0.0], np.cumsum(c)))
        B = np.concatenate(([0.0], np.cumsum(c * bias)))
        values += t * C[active] - B[active]
    return values


def sample_average_network(P: TrigPolynomial, r: int, dist: DkDistribution,
                           seed, grid: Grid):
    """Monte Carlo network ``(1/r) sum_i h(b_i, w_i) relu(<w_i, x> - b_i)``.

    Draws ``r`` features from ``dist`` as ``W (r, d)`` and ``b (r,)``, attaches
    the importance weight of each divided by ``r``, and returns the span with
    its measured L2 error against ``P`` on the grid.  Error decays like
    ``1/sqrt(r)``.  The network is evaluated one drawn ball index at a time
    (:func:`_network_values`), with no ``(n, r)`` design matrix, over the features
    whose weight is not 0.  A draw of more than the active cap's numbers, ``d + 1``
    per feature as the fitter counts them, raises :class:`CapExceeded` before it
    is made.
    """
    if not isinstance(dist, DkDistribution):
        raise UnsupportedCombination("sample-average networks require a D_k distribution")
    if r < 1:
        raise ParameterOutOfRange(f"width must be a positive integer, got {r}")
    draw, cap = r * (dist.dimension + 1), active_cap()
    if draw > cap:
        raise CapExceeded(f"a width-{r} network draws {draw} numbers, past the cap {cap}")
    idx, b = dist.sample_indices(np.random.default_rng(seed), r)
    coeffs = dist.importance_weights(P, idx, b) / r
    approx = _network_values(dist.directions, idx, b, coeffs, grid.nodes)
    err = l2_error(P.evaluate, lambda nodes: approx, grid)
    return FittedSpan(W=dist.directions[idx], b=b, coefficients=coeffs, l2_error=err,
                      grid_id=grid.spec.label())


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    t, u = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    u.setflags(write=False)
    return t, u


def mixture_expectation(K: MultiIndex, rho: float, d: int, z) -> float | np.ndarray:
    """Semi-analytic ``E_b[psi_K(b) relu(z - b)]`` with b uniform on the support,
    at a scalar ``z`` (a float) or at every entry of a 1-D array ``z``.

    The integrand is smooth between the breakpoints of ``psi`` and the kink of
    the ReLU at ``b = z``, so fixed-order Gauss-Legendre on each piece is
    exact to machine precision.  Every piece of every ``z`` is one row of one
    ``psi_K`` call, summed alone, and each ``z`` adds its pieces in cut order,
    so each value has the bits of the scalar call.
    """
    root = math.sqrt(d)
    zs = np.asarray(z, dtype=float)
    flat = zs.reshape(-1, 1)
    cuts = np.array([-2.0 * root, -1.5 * root, -root, root])
    top = np.minimum(flat, 2.0 * root)
    live = cuts < top  # piece j of each z, a prefix of its row
    lo = np.broadcast_to(cuts, live.shape)[live]
    hi = np.minimum(np.append(cuts[1:], math.inf), top)[live]
    t, u = _legendre_rule(64)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    b = mid[:, None] + half[:, None] * t
    vals = psi_K(K, rho, d, b) * (np.broadcast_to(flat, live.shape)[live][:, None] - b)
    pieces = np.zeros(live.shape)
    pieces[live] = half * np.sum(u * vals, axis=1)
    total = reduce(np.add, pieces.T, np.zeros(len(flat)))  # 0.0 + p_0 + p_1 + ... in order
    out = (total / (4.0 * root)).reshape(zs.shape)
    return float(out) if zs.ndim == 0 else out
