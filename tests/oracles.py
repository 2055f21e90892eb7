"""Independent reference computations used to cross-check library results.

Everything here deliberately avoids the library's own algorithms: counts come
from convolutions instead of the coordinate recursion, expectations from
scipy's adaptive quadrature instead of fixed Gauss rules, derivatives from
finite differences instead of index algebra.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate

from widthlab import MONTE_CARLO, UNIFORM_CUBE, Grid, QuadratureSpec, ReluParamDist
from widthlab.relu import _check_features, _ray_sum


def brute_counts(kmax: int, dmax: int) -> dict[tuple[int, int], int]:
    """Lattice-ball sizes |{K in Z^d : |K|_2 <= k}| by convolving squares."""
    budget = kmax * kmax
    sq = np.zeros(budget + 1, dtype=np.int64)
    for i in range(-kmax, kmax + 1):
        sq[i * i] += 1
    out, dist = {}, sq.copy()
    for d in range(1, dmax + 1):
        if d > 1:
            dist = np.convolve(dist, sq)[: budget + 1]
        csum = np.cumsum(dist)
        for k in range(kmax + 1):
            out[(k, d)] = int(csum[k * k])
    return out


def brute_enumerate(k: float, d: int) -> list[tuple[int, ...]]:
    """All ball members by scanning the bounding box (small cases only).

    ``|K|^2`` is compared with the exact square of the binary value of ``k``.
    """
    m = int(math.floor(k))
    bound = Fraction(k) ** 2
    out = []
    for K in itertools.product(range(-m, m + 1), repeat=d):
        if sum(c * c for c in K) <= bound:
            out.append(K)
    return out


def finite_difference(f, x: np.ndarray, order: tuple[int, ...], h: float = 1e-5) -> float:
    """Central finite differences for mixed partials of total order <= 2."""
    x = np.asarray(x, dtype=float)
    coords = [i for i, m in enumerate(order) for _ in range(m)]
    if len(coords) == 0:
        return float(f(x))
    if len(coords) == 1:
        (i,) = coords
        e = np.zeros_like(x)
        e[i] = h
        return float((f(x + e) - f(x - e)) / (2 * h))
    if len(coords) == 2:
        i, j = coords
        ei = np.zeros_like(x)
        ej = np.zeros_like(x)
        ei[i] = h
        ej[j] = h
        if i == j:
            return float((f(x + ei) - 2 * f(x) + f(x - ei)) / h**2)
        return float(
            (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej))
            / (4 * h**2)
        )
    raise ValueError("finite differences implemented for total order <= 2")


def mixture_quad(psi_of_b, d: int, z):
    """Adaptive-quadrature mixture values E_b[psi(b) relu(z - b)], b uniform.

    ``z`` is a float, giving a float, or an array, giving one value per
    entry.  All entries are integrated at once by scipy's vector-valued
    adaptive Gauss-Kronrod rule, with the density breakpoints and every
    kink ``b = z`` as interval ends, so each piece is smooth.
    """
    root = math.sqrt(d)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    lo, hi = -2.0 * root, min(float(np.max(zs)), 2.0 * root)
    out = np.zeros(zs.shape)
    if hi > lo:
        kinks = [p for p in (-1.5 * root, -root, root, *np.unique(zs)) if lo < p < hi]
        val, _ = integrate.quad_vec(lambda b: psi_of_b(b) * np.maximum(zs - b, 0.0), lo, hi,
                                    epsabs=1e-12, norm="max", quadrature="gk15",
                                    points=kinks or None)
        out = val / (4.0 * root)
    return float(out[0]) if np.ndim(z) == 0 else out


def dk_expectation(h_of_bw, rays: list[tuple[np.ndarray, int]], Q: int, d: int,
                   x: np.ndarray, order: int = 64) -> float:
    """Semi-analytic E_{(b,w) ~ D_k}[h(b,w) relu(<w,x> - b)].

    ``rays`` lists (direction, member_count) pairs covering the lattice ball;
    the direction marginal weights each ray by member_count / Q.  The bias
    integral is piecewise Gauss-Legendre between the density breakpoints and
    the ReLU kink.
    """
    root = math.sqrt(d)
    t, u = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for w, count in rays:
        z = float(np.dot(w, x))
        hi = min(z, 2.0 * root)
        if hi <= -2.0 * root:
            continue
        cuts = sorted({-2.0 * root, *[p for p in (-1.5 * root, -root, root) if p < hi], hi})
        integral = 0.0
        for lo, up in zip(cuts[:-1], cuts[1:]):
            mid, half = (lo + up) / 2.0, (up - lo) / 2.0
            bs = mid + half * t
            vals = np.array([h_of_bw(float(b), w) * (z - float(b)) for b in bs])
            integral += half * float(np.sum(u * vals))
        total += (count / Q) * integral / (4.0 * root)
    return total


def relu_columns(W, b, X) -> np.ndarray:
    """``relu(<w_i, x> - b_i)`` at the points ``X (n, d)``, one column per feature,
    computed feature by feature."""
    X = np.asarray(X, dtype=float)
    return np.column_stack([np.maximum(X @ w - bias, 0.0) for w, bias in zip(W, b)])


def network_values_every_feature(directions, idx, b, coefficients, nodes) -> np.ndarray:
    """``sum_i c_i relu(<w_i, x> - b_i)``, ``w_i = directions[idx_i]``, at every node, over
    every feature, those of coefficient 0 too: per drawn ball index, the prefix sums
    of ``c_i`` and ``c_i b_i`` over the biases in order, read where ``b_i < t``."""
    order = np.lexsort((b, idx))
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


def importance_weights_every_ray(dist, P, idx, b) -> np.ndarray:
    """``dist.importance_weights(P, idx, b)`` from a visit to every ray the features
    fall on, those holding no term of ``P`` too, each ray's weights set as
    ``Q / |ray|`` times ``relu._ray_sum`` of its members."""
    ray_of, rays = dist.rays
    ray_ids = ray_of[idx]
    out = np.empty(len(b))
    for ray in np.flatnonzero(np.bincount(ray_ids)):
        members, sel = rays[ray], ray_ids == ray
        out[sel] = len(dist.directions) / len(members) * _ray_sum(members, P, dist.dimension,
                                                                  b[sel])
    return out


def factored_features(W, b, reach, tau) -> np.ndarray:
    """Which features a solve factors, decided feature by feature.

    A feature is dead when its bias is at least ``sum_j |w_j| reach_j``, the
    largest value ``<w, x>`` takes on the box ``|x_j| <= reach_j``, and
    always active when it is live and its bias is at most minus that.  If
    more than ``d + 1`` features are always active and the rows ``[b, w]``
    of the first ``d + 1`` have their smallest singular value above ``tau``
    times their largest, every later always-active feature is left out too.
    ``tau = inf`` leaves out only the dead features.
    """
    d = len(reach)
    keep, always = np.zeros(len(b), dtype=bool), []
    for i, (w, bias) in enumerate(zip(W, b)):
        bound = sum(abs(float(wj)) * float(rj) for wj, rj in zip(w, reach))
        keep[i] = bias < bound
        if keep[i] and bias <= -bound:
            always.append(i)
    if len(always) > d + 1:
        head = np.array([[b[i], *W[i]] for i in always[:d + 1]])
        s = np.linalg.svd(head, compute_uv=False)
        if s[-1] > tau * s[0]:
            keep[always[d + 1:]] = False
    return keep


def sum_rounding(axes, products: np.ndarray, factor_ulps: float = 0.0) -> float:
    """How far two summation orders of ``products`` on a product grid may round apart.

    First-order bounds, in units of ``eps * sum |products|``: a contraction
    one axis at a time chains at most ``m_j`` additions on the axis of
    ``m_j`` nodes, numpy's pairwise sum at most ``8 + log2 n``, and
    ``factor_ulps`` is what the factors of each product may differ by
    between the two routes.
    """
    chain = sum(axis.size for axis in axes) + 8 + math.log2(products.size)
    return (chain + factor_ulps) * np.finfo(float).eps * float(np.sum(np.abs(products)))


def product_grid(axes) -> Grid:
    """A hand-built grid on the ``ij`` product of ``axes``, with equal weights."""
    nodes = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    n = nodes.shape[0]
    spec = QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, len(axes), sample_count=n, seed=0)
    return Grid(spec=spec, nodes=nodes, weights=np.full(n, 1.0 / n))


class CustomDistribution(ReluParamDist):
    """ReLU features from caller-supplied samplers: each feature draws its bias with
    ``bias_sampler(rng)``, then its unit weight ``(d,)`` with ``weight_sampler(rng)``.

    A second feature distribution beside ``DkDistribution``, for dead, repeated
    or hand-placed features; its draws are checked as every feature array
    entering the package is.
    """

    def __init__(self, dimension, bias_sampler, weight_sampler):
        self.dimension = dimension
        self.bias_sampler = bias_sampler
        self.weight_sampler = weight_sampler

    def sample_batch(self, rng, r):
        b, rows = np.empty(r), []
        for i in range(r):
            b[i] = self.bias_sampler(rng)
            rows.append(self.weight_sampler(rng))
        W = np.array(rows, dtype=float) if r else np.empty((0, self.dimension))
        _check_features(W, b, self.dimension)
        return W, b


class MemberDistribution:
    """Features drawn uniformly from the members of ``family``, one index each.

    A feature distribution with no ReLU in it, through the three methods the
    trial engine asks for: ``sample_batch`` draws member indices as a draw
    ``(idx,)``, ``live`` keeps the first draw of each member (a repeat adds
    the same column again), and ``columns`` writes the members' values, for
    draws stacked by trial.  On a grid where the family is orthonormal, a
    trial's span holds exactly the members it drew, so each member's residual
    is 0 if drawn and 1 if not.
    ``written`` records the member indices of every design the engine builds.
    """

    def __init__(self, family):
        self.family = family
        self.written = []

    def sample_batch(self, rng, r):
        return (rng.integers(len(self.family), size=r),)

    def live(self, draws, nodes):
        (idx,) = draws
        mask = np.zeros(idx.shape, dtype=bool)
        for row, keep in zip(idx, mask):
            keep[np.unique(row, return_index=True)[1]] = True
        return mask

    def columns(self, draws, nodes, out):
        (idx,) = draws
        for slot, draw in zip(out, idx):
            self.written.append(draw.tolist())
            for row, i in zip(slot, draw):
                row[:] = self.family.members[i](nodes)
