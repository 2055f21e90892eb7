"""Lower-bound experiments for random-feature spans.

The core quantity: given a family ``phi_1..phi_N`` of (near-)orthonormal
functions and ``r`` random features, the average squared projection residual
``(1/N) sum_i (|phi_i|^2 - |Pi phi_i|^2)`` is at least ``1 - r(1+kappa)/N``
in expectation, where ``kappa`` is the family's coherence.  Hard families
realizing this on the cube are trig basis slices (lattice balls and the
symmetric sine family), with an explicit scaled sine as the single hard
function; a greedily packed family of ridge sines plays the same role in
Gaussian space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .caps import _cap, active_cap
from .errors import (
    CapExceeded,
    NotUnitNorm,
    PackingFailed,
    ParameterOutOfRange,
    WrongMeasure,
)
from .fitter import _Weighted, _weighted, _weighted_lstsq
from .lattice import MultiIndex, _check_ball_table, enumerate_ball
from .quadrature import GAUSSIAN, TENSOR_GAUSS, Grid, evaluate_on, memoized
from .relu import _design_matrix  # noqa: F401  the benchmark's tracer test reads it here
from .trig import SQRT2, _basis_on_axes, eval_T


@dataclass(frozen=True)
class FunctionFamily:
    """Labeled function handles, with their measured coherence when known.

    ``indices``, when given, says that member ``i`` is the basis function
    ``T_{indices[i]}``, so its values can be built from per-axis tables.
    """

    labels: list
    members: list[Callable]
    dimension: int
    coherence: float | None = None
    indices: list[MultiIndex] | None = None

    def __post_init__(self):
        if len(self.labels) != len(self.members):
            raise ParameterOutOfRange("one label per member required")
        if self.indices is not None and len(self.indices) != len(self.members):
            raise ParameterOutOfRange("one index per member required")
        if self.coherence is not None and self.coherence < 0:
            raise ParameterOutOfRange(f"coherence must be >= 0, got {self.coherence}")

    def __len__(self) -> int:
        return len(self.members)


def _check_values(members: int, nodes: int) -> None:
    """Refuse a value matrix of ``members`` members x ``nodes`` grid nodes past the cap."""
    _cap(f"value matrix of {members} members x {nodes} grid nodes", members * nodes)


def _value_matrix(family: FunctionFamily, grid: Grid) -> np.ndarray:
    """The members' values at the grid nodes, member ``i`` in column ``i`` of one
    ``(n, N)`` array, built afresh and not kept.

    On a tensor grid whose nodes are the product of its axes (``grid.axes``), a
    family with ``indices`` is built from per-axis tables
    (:func:`trig._basis_on_axes`), agreeing with ``eval_T`` to rounding, in a
    column-major array, so the solves read each member's values contiguously.
    Every other family or grid gets ``evaluate_on``'s values in a row-major
    array: the BLAS sums over a column depend on its stride, so its
    projections keep their bits.  Its callers refuse a matrix past the cap
    first (:func:`_check_values`), whether or not they keep it.
    """
    if family.indices is not None and grid.spec.scheme == TENSOR_GAUSS and grid.axes is not None:
        index = np.array(family.indices, dtype=int).reshape(len(family), len(grid.axes))
        return _basis_on_axes(index, grid.axes)
    out = np.empty((grid.nodes.shape[0], len(family)))
    for i, member in enumerate(family.members):
        out[:, i] = evaluate_on(member, grid.nodes)
    return out


def _kept_weighted(key: tuple, values: Callable[[], np.ndarray], grid: Grid) -> _Weighted:
    """``values()``, targets on the grid, weighted for the solves (``fitter._weighted``).

    On a grid :func:`quadrature.make_grid` built, the weighted targets are
    read-only and kept in the process memo (:func:`quadrature.memoized`) under
    ``key``, which names the targets, and the grid's own key, so together all
    they are built from, and the runs of one study weight them once.  A grid
    built by hand has no key, and its targets are weighted on every call.
    """
    if grid.key is None:
        return _weighted(values(), grid.weights)

    def build() -> _Weighted:
        weighted = _weighted(values(), grid.weights)
        for part in weighted:
            part.setflags(write=False)
        return weighted

    return memoized(("weighted", key, grid.key), build,
                    lambda weighted: sum(part.nbytes for part in weighted))


def _weighted_family(family: FunctionFamily, grid: Grid) -> _Weighted:
    """The members' values on the grid (:func:`_value_matrix`), weighted as
    ``fitter.width_residuals`` takes them; a family with ``indices`` is kept under
    them (:func:`_kept_weighted`), the others weighted on every call.  The values
    are built for the weighting and not kept: the memo holds one copy of a family.
    Values past the cap are refused, kept or not (:func:`_check_values`)."""
    _check_values(len(family), grid.nodes.shape[0])
    values = partial(_value_matrix, family, grid)
    if family.indices is None:
        return _weighted(values(), grid.weights)
    index = np.array(family.indices, dtype=int)
    return _kept_weighted(("family", index.shape, index.tobytes()), values, grid)


def coherence(family: FunctionFamily, grid: Grid) -> float:
    """Root of the sum of squared off-diagonal Gram entries, on the grid.

    Zero for orthogonal families; requires unit-norm members (within 1e-6).
    Values past the cap are refused before they are built (:func:`_check_values`).
    """
    _check_values(len(family), grid.nodes.shape[0])
    vals = _value_matrix(family, grid)
    gram = vals.T @ (grid.weights[:, None] * vals)
    if not np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-6:  # NaN fails too
        raise NotUnitNorm("family members must have unit grid norm for coherence")
    off = gram - np.diag(np.diag(gram))
    return float(np.sqrt(np.sum(off**2)))


def randict_bound(r: int, N: int, kappa: float) -> float:
    """Expected-average-residual lower bound ``1 - r(1+kappa)/N``.

    May be negative, in which case it is vacuous but still valid.
    """
    if N < 1 or r < 0 or kappa < 0:
        raise ParameterOutOfRange("need N >= 1, r >= 0, kappa >= 0")
    return 1.0 - r * (1.0 + kappa) / N


@dataclass(frozen=True)
class ProjectionReport:
    """Squared projection residuals of each family member on a feature span."""

    labels: list
    residuals: np.ndarray
    mean_residual: float
    r: int
    N: int
    bound: float


def projection_residuals(W: np.ndarray, b: np.ndarray, family: FunctionFamily,
                         grid: Grid) -> ProjectionReport:
    """Residuals ``|phi_i|^2 - |Pi phi_i|^2`` for every member at once, against the
    span of the features ``W (r, d)``, ``b (r,)``.

    One multi-right-hand-side least squares against the live columns of the
    feature design matrix gives exactly the per-member ``fit_span``
    residuals.  ``r = 0`` (``W`` of shape ``(0, d)``), like a span of features
    dead on the grid, returns the squared member norms.  The members are read weighted
    (:func:`_weighted_family`), kept across calls on a built grid.
    """
    W, b = np.asarray(W, dtype=float), np.asarray(b, dtype=float)
    _, norms = _weighted_lstsq(W, b, grid, _weighted_family(family, grid))
    residuals = norms**2
    kappa = family.coherence
    if kappa is None:
        kappa = coherence(family, grid)
    return ProjectionReport(
        labels=list(family.labels), residuals=residuals,
        mean_residual=float(np.mean(residuals)), r=len(b), N=len(family),
        bound=randict_bound(len(b), len(family), kappa),
    )


def _basis_member(K: MultiIndex) -> Callable:
    return lambda nodes, _K=K: eval_T(_K, nodes)


def hard_family_ball(k: float, d: int) -> FunctionFamily:
    """The orthonormal basis slice ``{T_K : |K| <= k}``; N = Q_{k,d}, kappa = 0.  Its
    indices are capped as the CLI caps a ball (``lattice._check_ball_table``)."""
    _check_ball_table(k, d)
    ball = enumerate_ball(k, d)
    return FunctionFamily(labels=list(ball), members=[_basis_member(K) for K in ball],
                          dimension=d, coherence=0.0, indices=ball)


def _check_symmetric(ell: int, d: int) -> None:
    """Refuse a symmetric family of ``C(d, ell)`` members past the cap."""
    # C(d, m) >= 2^m for m <= d/2, which passes the cap once m reaches its bit length
    m = min(ell, d - ell, active_cap().bit_length())
    _cap(f"symmetric family C({d}, {ell})", math.comb(d, m))


def hard_family_symmetric(ell: int, d: int) -> FunctionFamily:
    """All ``sqrt(2) sin(pi sum_{i in S} x_i)`` over size-``ell`` subsets S.

    Each member is the basis function of the 0/1 indicator index of S, so the
    family is orthonormal with N = C(d, ell), and coordinate permutations
    act on it by relabeling subsets.  A family past the cap is refused before
    it is built (:func:`_check_symmetric`).
    """
    if not 1 <= ell <= d:
        raise ParameterOutOfRange(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    _check_symmetric(ell, d)
    labels, indices = [], []
    for S in itertools.combinations(range(d), ell):
        labels.append(S)
        indices.append(tuple(1 if i in S else 0 for i in range(d)))
    return FunctionFamily(labels=labels, members=[_basis_member(K) for K in indices],
                          dimension=d, coherence=0.0, indices=indices)


@dataclass(frozen=True)
class HardFunction:
    """An explicit Lipschitz function that random spans fit badly."""

    epsilon: float
    ell: int
    dimension: int
    lip_bound: float

    def evaluate(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        vals = 4.0 * SQRT2 * self.epsilon * np.sin(
            math.pi * np.sum(pts[:, : self.ell], axis=1)
        )
        return float(vals[0]) if single else vals

    __call__ = evaluate


def _weighted_hard(hard: HardFunction, grid: Grid) -> _Weighted:
    """The hard function's values on the grid, weighted as
    ``fitter.success_probability`` takes them, and kept under its parameters
    (:func:`_kept_weighted`)."""
    return _kept_weighted(("hard", hard), lambda: evaluate_on(hard.evaluate, grid.nodes), grid)


def explicit_hard_function(epsilon: float, ell: int, d: int) -> HardFunction:
    """``f(x) = 4 sqrt(2) eps sin(pi (x_1 + ... + x_ell))``, Lipschitz ``4 pi eps sqrt(2 ell)``.

    Equals ``4 eps`` times the first member of the symmetric hard family, so
    its cube norm is ``4 eps`` and fitting it within ``eps`` forces width
    about a quarter of the family size.
    """
    if not 1 <= ell <= d:
        raise ParameterOutOfRange(f"need 1 <= ell <= d, got ell={ell}, d={d}")
    if epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    return HardFunction(epsilon=epsilon, ell=ell, dimension=d,
                        lip_bound=4.0 * math.pi * epsilon * math.sqrt(2.0 * ell))


@dataclass(frozen=True)
class LbParameters:
    """Hard-instance sizes achievable at Lipschitz budget L and error eps."""

    ell: int
    k_nonexplicit: float
    degenerate: bool


def lb_parameters(lipschitz: float, epsilon: float, d: int) -> LbParameters:
    """Sine-family size ``ell`` and ball radius ``k`` for Lipschitz targets.

    ``ell = min(ceil(d/2), floor(L^2 / (32 pi^2 eps^2)))`` and
    ``k = L / (18 eps)``; ``ell = 0`` flags a degenerate (too-easy) regime
    rather than raising.  ``L^2 / eps^2`` is the square of the ratio ``L / eps``,
    as ``eps^2`` underflows to 0 below about ``1e-162``; a square past the
    float range raises :class:`CapExceeded`.
    """
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    ratio_sq = (lipschitz / epsilon) * (lipschitz / epsilon)
    if not math.isfinite(ratio_sq):
        raise CapExceeded(f"hard-instance size (L/eps)^2 = ({lipschitz / epsilon})^2 exceeds "
                          "the float range")
    ell = min(math.ceil(d / 2), math.floor(ratio_sq / (32.0 * math.pi**2)))
    return LbParameters(ell=ell, k_nonexplicit=lipschitz / (18.0 * epsilon),
                        degenerate=ell == 0)


# The packing gives up once the farthest pool direction lies closer than this
# to a chosen one in the axial metric.
_MIN_SEPARATION = 1e-6


def _pool_size(N: int) -> int:
    """The number of sphere points :func:`gaussian_hard_family` packs ``N`` directions from."""
    return max(32 * N, 64)


def _check_pool(N: int, d: int) -> None:
    """Refuse the packing of ``N`` directions past the cap: it holds a pool of
    directions in ``R^d`` and their separations from all ``N`` chosen."""
    pool = _pool_size(N)
    _cap(f"gaussian family pool of {pool} directions x max(N, d) = {max(N, d)}",
         pool * max(N, d))


def gaussian_hard_family(L: float, N: int, d: int, seed, grid: Grid) -> FunctionFamily:
    """Greedily packed ridge sines ``sin(L <v, x>)`` in Gaussian space.

    Directions come from a seeded pool of uniform sphere points, grown one at
    a time by farthest-point selection under the axial metric
    ``1 - |<u, v>|`` (``v`` and ``-v`` give the same span, so antipodes count
    as coincident).  Members are normalized by their measured grid norm and
    the family carries its measured coherence.  A pool past the cap is refused
    before it is drawn (:func:`_check_pool`).
    """
    if grid.spec.measure != GAUSSIAN:
        raise WrongMeasure("gaussian_hard_family needs a Gaussian-measure grid")
    if N < 1 or d < 1 or L <= 0:
        raise ParameterOutOfRange("need N >= 1, d >= 1, L > 0")
    _check_pool(N, d)
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((_pool_size(N), d))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    chosen = [pool[0]]
    separation = 1.0 - np.abs(pool @ pool[0])  # from the nearest chosen direction
    for _ in range(1, N):
        best = int(np.argmax(separation))
        if separation[best] < _MIN_SEPARATION:
            raise PackingFailed(
                f"could not place {len(chosen) + 1} directions with axial "
                f"separation >= {_MIN_SEPARATION} in dimension {d}"
            )
        chosen.append(pool[best])
        np.minimum(separation, 1.0 - np.abs(pool @ pool[best]), out=separation)

    labels, members = [], []
    for i, v in enumerate(chosen):
        raw = lambda nodes, _v=v: np.sin(L * (np.asarray(nodes, dtype=float) @ _v))
        norm = math.sqrt(float(np.sum(grid.weights * evaluate_on(raw, grid.nodes) ** 2)))
        if not norm > 1e-12:  # NaN fails too
            raise PackingFailed(f"member {i} has grid norm {norm}: degenerate or not finite")
        labels.append(i)
        members.append(lambda nodes, _raw=raw, _n=norm: _raw(nodes) / _n)
    family = FunctionFamily(labels=labels, members=members, dimension=d)
    kappa = coherence(family, grid)
    return FunctionFamily(labels=labels, members=members, dimension=d, coherence=kappa)
