"""Inner products and norms in L2(mu) via probability-normalized grids.

Supported measures are the uniform distribution on ``[-1,1]^d`` and the
standard Gaussian on ``R^d``; schemes are tensor-product Gauss rules
(Legendre for the cube, Hermite for the Gaussian) and seeded Monte Carlo.
All weights sum to 1 so that a weighted sum over the nodes is literally an
expectation, matching the analysis this package verifies (no stray ``2^d``
factors).

Function handles are deterministic callables mapping points to reals.  They
may be vectorized (``(n, d) -> (n,)``); scalar-only callables are looped over
rows transparently.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .caps import active_cap
from .errors import (
    CapExceeded,
    DimensionMismatch,
    ParameterOutOfRange,
    UnsupportedCombination,
    WeightsNotNormalized,
    WrongMeasure,
)
from .lattice import MultiIndex
from .trig import eval_T

UNIFORM_CUBE = "uniform_cube"
GAUSSIAN = "gaussian"
TENSOR_GAUSS = "tensor_gauss"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class QuadratureSpec:
    """Declarative description of a grid; hashable so results can cite it."""

    measure: str
    scheme: str
    dimension: int
    nodes_per_dim: int | None = None
    sample_count: int | None = None
    seed: int | tuple[int, ...] | None = None

    def label(self) -> str:
        if self.scheme == TENSOR_GAUSS:
            return f"{self.measure}:tensor_gauss({self.nodes_per_dim})^{self.dimension}"
        return f"{self.measure}:monte_carlo({self.sample_count},seed={self.seed})^{self.dimension}"


@dataclass(frozen=True)
class Grid:
    """Realized nodes/weights for a :class:`QuadratureSpec`."""

    spec: QuadratureSpec
    nodes: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,), sums to 1
    # The process-memo key :func:`make_grid` built the grid under, which holds all it
    # is built from, so values derived from the grid can be kept under it too; None
    # for a grid built by hand.
    key: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @cached_property
    def column_major_nodes(self) -> np.ndarray:
        """The nodes ``(n, d)`` in a read-only column-major copy, so that each coordinate
        is contiguous: the layout the trial engine passes the features (see
        ``relu.ReluParamDist``), and the one ``relu._design_matrix`` reads."""
        nodes = np.asfortranarray(self.nodes).view()  # no copy at d = 1, its own flags
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...] | None:
        """The 1-D coordinate arrays whose ``ij`` product is exactly the nodes, or None.

        Read from the nodes, not the spec: every tensor Gauss grid and every
        ``d = 1`` grid has them, a Monte Carlo grid at ``d >= 2`` does not.
        The last axis varies fastest, so axis ``j`` is column ``j`` read at
        the stride of the axes after it, up to the first repeat of its first
        value; the candidate is kept only if every column equals its axis
        broadcast over the others.
        """
        n, d = self.nodes.shape
        sizes, stride = [1] * d, 1
        for j in range(d - 1, 0, -1):
            if stride == n:
                break
            column = self.nodes[::stride, j]
            again = np.flatnonzero(column[1:] == column[0])
            sizes[j] = int(again[0]) + 1 if again.size else column.size
            stride *= sizes[j]
        if n % stride:
            return None
        sizes[0] = n // stride
        axes, before = [], 1
        for j, size in enumerate(sizes):
            values = self.nodes[:, j].reshape(before, size, -1)
            axis = values[0, :, 0].copy()
            if not np.all(values == axis[:, None]):
                return None
            axis.setflags(write=False)
            axes.append(axis)
            before *= size
        return tuple(axes)

    def wide_axes(self, rows: int) -> tuple[np.ndarray, ...] | None:
        """:attr:`axes` if each has at least ``rows`` nodes, else None: the route rule of
        the truncations, whose per-axis tables have ``rows`` rows, so that no table
        is larger than its axis and no coefficient box than the grid."""
        axes = self.axes
        return axes if axes is not None and all(axis.size >= rows for axis in axes) else None

    def norm(self, values: np.ndarray) -> float:
        """``sqrt(sum(w v v))``: the L2(mu) norm of the function with ``values`` at the nodes."""
        return float(np.sqrt(np.sum(self.weights * values * values)))


def along_axes(values: np.ndarray, tables) -> np.ndarray:
    """Apply ``tables[j]``, shape ``(rows_j, m_j)``, along axis ``j`` of ``values``.

    ``values`` has shape ``(m_0, ..., m_{d-1})`` and the result
    ``(rows_0, ..., rows_{d-1})``, with entry ``r`` equal to
    ``sum_a values[a] prod_j tables[j][r_j, a_j]``: one matrix product per
    axis in place of ``prod_j rows_j`` sums over every node.
    """
    out = values
    for table in tables:
        # contracting the leading axis appends the new one, so after d steps
        # the axes are back in order
        out = np.tensordot(out, table, axes=([0], [1]))
    return out


def significant(sums, abs_sums, grid: Grid):
    """Whether each sum of ``w f B`` over the grid's ``n`` nodes, with ``abs_sums`` the
    sums of ``|w f B|``, exceeds its first-order rounding bound
    ``(sum_j m_j + 8 + log2 n) eps abs_sums``: a contraction chains at most
    ``m_j`` additions on an axis of ``m_j`` nodes, numpy's pairwise sum at most
    ``8 + log2 n``.  Truncations keep a sum within its bound as exactly 0.
    """
    chain = sum(axis.size for axis in grid.axes or ()) + 8 + math.log2(grid.nodes.shape[0])
    return np.abs(sums) > chain * np.finfo(float).eps * abs_sums


def keep_and_sum(fw: np.ndarray, columns, grid: Grid) -> tuple[dict, np.ndarray]:
    """The kept coefficients and the truncation, one basis column at a time: for each
    ``(K, B_K)`` of ``columns``, ``B_K`` at the grid's nodes, ``beta_K = sum(fw B_K)``
    is kept if :func:`significant` against ``sum |fw B_K|``, and the truncation
    sums the kept ``beta_K B_K`` in the order of ``columns``."""
    terms = {}
    approx = np.zeros(grid.nodes.shape[0])
    for K, column in columns:
        products = fw * column
        beta = float(np.sum(products))
        if significant(beta, float(np.sum(np.abs(products))), grid):
            terms[K] = beta
            approx += beta * column
    return terms, approx


# Grids of a few sizes recur in every experiment; building a rule takes about 1 ms.
@lru_cache(maxsize=32)
def _gauss_1d(measure: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    if measure == UNIFORM_CUBE:
        x, w = np.polynomial.legendre.leggauss(n)
        w = w / 2.0
    else:  # standard normal: substitute x = sqrt(2) t in the physicists' rule
        t, w = np.polynomial.hermite.hermgauss(n)
        x, w = math.sqrt(2.0) * t, w / math.sqrt(math.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# make_grid lays a tensor grid out as an (n,) * d + (d,) array; numpy 1.24 allows 32 axes.
_MAX_TENSOR_DIM = 31


def check_grid_cap(spec: QuadratureSpec) -> None:
    """Raise :class:`CapExceeded` for a node array of ``n`` nodes x ``d`` coordinates
    past the cap, or a tensor grid of more than ``_MAX_TENSOR_DIM`` axes."""
    limit, d = active_cap(), spec.dimension
    if spec.scheme == MONTE_CARLO:
        nodes, what = spec.sample_count, f"monte_carlo grid of {spec.sample_count} samples"
    else:  # n >= 2 gives n^e > cap once e reaches the cap's bit length
        n = spec.nodes_per_dim
        nodes, what = n ** min(d, limit.bit_length()), f"tensor grid {n}^{d}"
    if nodes * d > limit:
        raise CapExceeded(f"{what} x {d} coordinates exceeds the cap {limit}")
    if spec.scheme == TENSOR_GAUSS and d > _MAX_TENSOR_DIM:
        raise CapExceeded(f"tensor grid of {d} axes exceeds the d <= {_MAX_TENSOR_DIM} cap")


# Bytes of grids, weighted targets and balls a process keeps for reuse (see :func:`memoized`).
_MEMO_BYTES = 16 * 2**20


class _Memo:
    """Values kept by key, least recently used first out, with at most ``budget``
    bytes of them; a value past the budget on its own is not kept."""

    def __init__(self, budget: int):
        self.budget, self.used = budget, 0
        self.entries: OrderedDict = OrderedDict()  # key: (value, bytes)
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, size: int) -> None:
        with self._lock:
            if size > self.budget or key in self.entries:
                return
            while self.used + size > self.budget:
                self.used -= self.entries.popitem(last=False)[1][1]
            self.entries[key] = (value, size)
            self.used += size


_MEMO = _Memo(_MEMO_BYTES)


def memoized(key, build, size):
    """The value kept under ``key``, else ``build()``, kept if its ``size(value)`` bytes
    fit the process memo of ``_MEMO_BYTES``.

    Grids and hard-family values recur across the runs of one study, and a
    rebuild costs more than its arithmetic: freed multi-MB buffers go back to
    the operating system and are faulted in again.  A key holds everything
    its value is built from, and every array a kept value holds is
    read-only, so a value served is the one a build would return.
    """
    value = _MEMO.get(key)
    if value is None:
        value = build()
        _MEMO.put(key, value, size(value))
    return value


def _grid_bytes(grid: Grid) -> int:
    """What a grid holds at most: nodes, weights, :attr:`Grid.column_major_nodes` and the
    axes, whose sizes multiply to ``n`` and so sum to at most ``n + d``."""
    n, d = grid.nodes.shape
    return 2 * grid.nodes.nbytes + grid.weights.nbytes + 8 * (n + d)


def make_grid(spec: QuadratureSpec) -> Grid:
    """Materialize the nodes and weights for ``spec``.

    The spec and the cap are checked on every call; then an equal spec is
    served the grid built before while the process memo keeps it
    (:func:`memoized`), one ``Grid`` whose arrays are read-only.  A tensor
    grid is keyed by its Gauss rule too, so a call is served only a grid
    built from the rule it would build from.

    Raises
    ------
    UnsupportedCombination
        Unknown measure/scheme names or missing scheme parameters.
    CapExceeded
        Grids past :func:`check_grid_cap`.
    WeightsNotNormalized
        The realized weights do not sum to 1 within ``1e-12``.
    """
    if spec.measure not in (UNIFORM_CUBE, GAUSSIAN):
        raise UnsupportedCombination(f"unknown measure {spec.measure!r}")
    if spec.dimension < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {spec.dimension}")
    if spec.scheme == TENSOR_GAUSS:
        if spec.nodes_per_dim is None or spec.nodes_per_dim < 1:
            raise UnsupportedCombination("tensor_gauss requires nodes_per_dim >= 1")
        check_grid_cap(spec)
        rule = _gauss_1d(spec.measure, spec.nodes_per_dim)
        key = ("grid", spec, *(part.tobytes() for part in rule))
    elif spec.scheme == MONTE_CARLO:
        if spec.sample_count is None or spec.sample_count < 1:
            raise UnsupportedCombination("monte_carlo requires sample_count >= 1")
        if spec.seed is None:
            raise UnsupportedCombination("monte_carlo requires an explicit seed")
        check_grid_cap(spec)
        rule, key = None, ("grid", spec)
    else:
        raise UnsupportedCombination(f"unknown scheme {spec.scheme!r}")
    return memoized(key, lambda: _build_grid(spec, rule, key), _grid_bytes)


def _build_grid(spec: QuadratureSpec, rule, key: tuple) -> Grid:
    """The grid of a checked ``spec``, kept under ``key``: the tensor product of the
    1-D ``rule``, or Monte Carlo samples if ``rule`` is None."""
    d = spec.dimension
    if rule is not None:
        x1, w1 = rule
        n = spec.nodes_per_dim
        # the ij product, last axis fastest: coordinate j of node (a_0, ..., a_{d-1})
        # is x1[a_j], and its weight w1[a_0] * ... * w1[a_{d-1}], multiplied in that order
        nodes = np.empty((n**d, d))
        product = nodes.reshape((n,) * d + (d,))
        for j in range(d):
            product[..., j] = x1.reshape((n,) + (1,) * (d - 1 - j))
        weights = reduce(np.multiply.outer, [w1] * d).reshape(-1)
    else:
        rng = np.random.default_rng(spec.seed)
        if spec.measure == UNIFORM_CUBE:
            nodes = rng.uniform(-1.0, 1.0, size=(spec.sample_count, d))
        else:
            nodes = rng.standard_normal(size=(spec.sample_count, d))
        weights = np.full(spec.sample_count, 1.0 / spec.sample_count)

    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise WeightsNotNormalized(f"{spec.label()} weights sum to {weights.sum()!r}, not 1")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(spec=spec, nodes=nodes, weights=weights, key=key)


def tensor_gauss_grid(measure: str, d: int, nodes_per_dim: int) -> Grid:
    """Convenience constructor for the common tensor-product case."""
    return make_grid(QuadratureSpec(measure, TENSOR_GAUSS, d, nodes_per_dim=nodes_per_dim))


def evaluate_on(f, nodes: np.ndarray) -> np.ndarray:
    """Evaluate a function handle on an ``(n, d)`` node array.

    Tries the vectorized calling convention first and falls back to a row
    loop for scalar-only callables (including constants).  Only the errors a
    scalar-only callable raises on a batch trigger the fallback; any other
    error propagates from the first call.  numpy's floating-point warnings are
    silenced: a value they would flag comes back not finite, for the caller to check.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            vals = np.asarray(f(nodes), dtype=float)
        except (TypeError, ValueError, IndexError):
            vals = None
        if vals is not None and vals.shape == (n,):
            return vals
        return np.array([float(f(p)) for p in nodes], dtype=float)


def checked_values(f, grid: Grid, points: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``f`` at the grid's nodes, or at ``points`` ``(n, d)`` paired with them, and those
    values times the weights, checked once where a truncation starts: raises
    ``FloatingPointError`` unless the weighted squared norm ``sum(w v v)``, the
    dot of the two, is finite, which a sum of squares is only if every value is.

    numpy's overflow, invalid-value and division warnings are silenced while
    ``f`` is evaluated and checked, since the check reports the values they
    would, and a target that fails it stops before any arithmetic of the
    truncation.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = evaluate_on(f, grid.nodes if points is None else points)
        weighted = grid.weights * values
        norm_sq = weighted @ values
    if not np.isfinite(norm_sq):
        raise FloatingPointError("the target's values on the grid, or their weighted squared "
                                 "norm, are not finite")
    return values, weighted


def l2_error(f, g, grid: Grid) -> float:
    """``||f - g||_mu`` on the grid."""
    return grid.norm(evaluate_on(f, grid.nodes) - evaluate_on(g, grid.nodes))


def trig_coefficient(f, K: MultiIndex, grid: Grid) -> float:
    """Expansion coefficient ``<f, T_K>`` on the uniform cube.

    Raises
    ------
    WrongMeasure
        The trigonometric system is orthonormal only for the cube measure.
    """
    if grid.spec.measure != UNIFORM_CUBE:
        raise WrongMeasure("trig coefficients require the uniform cube measure")
    if len(K) != grid.dimension:
        raise DimensionMismatch(f"index {K} vs grid dimension {grid.dimension}")
    fv = evaluate_on(f, grid.nodes)
    tv = np.asarray(eval_T(K, grid.nodes))
    return float(np.sum(grid.weights * fv * tv))
