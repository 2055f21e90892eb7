"""Normalized Hermite basis for Gaussian space.

The univariate polynomials follow the recurrence
``sqrt(n+1) h_{n+1}(z) = z h_n(z) - sqrt(n) h_{n-1}(z)`` with ``h_0 = 1`` and
``h_1 = z``, which makes them orthonormal under the standard Gaussian weight;
multivariate versions are coordinate products.  Differentiation acts on
indices (``d/dx_i H_K = sqrt(K_i) H_{K - e_i}``), so expansions can be
differentiated term by term, and Lipschitz functions truncate onto the
simplex of indices with ``|K|_1 <= ceil(L^2 / eps^2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .caps import active_cap
from .errors import (
    CapExceeded,
    DegreeCap,
    DimensionMismatch,
    NegativeIndex,
    ParameterOutOfRange,
    WrongMeasure,
)
from .lattice import MultiIndex
from .quadrature import GAUSSIAN, Grid, along_axes, checked_values, keep_and_sum, significant
from .trig import DerivedTerm

MAX_DEGREE = 200


def _univariate_table(n: int, z: np.ndarray) -> np.ndarray:
    """Values ``h_0(z) .. h_n(z)`` stacked as shape (n+1,) + z.shape."""
    table = np.empty((n + 1,) + z.shape)
    table[0] = 1.0
    if n >= 1:
        table[1] = z
    for m in range(1, n):
        table[m + 1] = (z * table[m] - math.sqrt(m) * table[m - 1]) / math.sqrt(m + 1)
    return table


def h_univariate(n: int, z) -> float | np.ndarray:
    """Normalized Hermite polynomial ``h_n`` by upward recurrence."""
    if n < 0:
        raise NegativeIndex(f"Hermite degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise DegreeCap(f"degree {n} exceeds the stability cap {MAX_DEGREE}")
    arr = np.asarray(z, dtype=float)
    out = _univariate_table(n, arr)[n]
    return float(out) if arr.ndim == 0 else out


def H_multivariate(K: MultiIndex, x) -> float | np.ndarray:
    """Product basis function ``H_K(x) = prod_j h_{K_j}(x_j)``."""
    if any(c < 0 for c in K):
        raise NegativeIndex(f"Hermite index must be nonnegative, got {K}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != len(K):
        raise DimensionMismatch(f"index has {len(K)} coordinates, points have {pts.shape[1]}")
    vals = np.ones(pts.shape[0])
    for j, deg in enumerate(K):
        if deg > 0:
            vals *= h_univariate(deg, pts[:, j])
    return float(vals[0]) if single else vals


def hermite_partial(K: MultiIndex, i: int) -> DerivedTerm:
    """Coordinate derivative on indices: ``d/dx_i H_K = sqrt(K_i) H_{K - e_i}``.

    ``i`` is a 0-based coordinate; indices with ``K_i = 0`` differentiate to
    the zero term.
    """
    if not 0 <= i < len(K):
        raise ParameterOutOfRange(f"coordinate {i} out of range for index of length {len(K)}")
    if any(c < 0 for c in K):
        raise NegativeIndex(f"Hermite index must be nonnegative, got {K}")
    if K[i] == 0:
        return DerivedTerm(0.0, K)
    down = K[:i] + (K[i] - 1,) + K[i + 1:]
    return DerivedTerm(math.sqrt(K[i]), down)


class HermitePolynomial:
    """Sparse expansion ``sum_K alpha_K H_K`` over nonnegative indices."""

    def __init__(self, terms: dict[MultiIndex, float], dimension: int | None = None):
        cleaned: dict[MultiIndex, float] = {}
        dims = set()
        for K, alpha in terms.items():
            K = tuple(int(c) for c in K)
            if any(c < 0 for c in K):
                raise NegativeIndex(f"Hermite index must be nonnegative, got {K}")
            dims.add(len(K))
            if alpha != 0.0:
                cleaned[K] = float(alpha)
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed index lengths {sorted(dims)}")
        if dimension is None:
            if not dims:
                raise DimensionMismatch("dimension required for an empty polynomial")
            dimension = dims.pop()
        elif dims and dims.pop() != dimension:
            raise DimensionMismatch("stated dimension disagrees with the indices")
        self.terms = cleaned
        self.dimension = dimension

    def evaluate(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"polynomial has dimension {self.dimension}, points have {pts.shape[1]}"
            )
        vals = np.zeros(pts.shape[0])
        if self.terms:
            max_deg = max(max(K) for K in self.terms)
            tables = [_univariate_table(max_deg, pts[:, j]) for j in range(self.dimension)]
            for K, alpha in self.terms.items():
                prod = np.full(pts.shape[0], alpha)
                for j, deg in enumerate(K):
                    if deg > 0:
                        prod *= tables[j][deg]
                vals += prod
        return float(vals[0]) if single else vals

    __call__ = evaluate

    def max_coefficient(self) -> float:
        return max((abs(a) for a in self.terms.values()), default=0.0)

    def to_json_dict(self) -> dict:
        return {"basis": "hermite",
                "terms": [{"K": list(K), "beta": self.terms[K]} for K in sorted(self.terms)]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "HermitePolynomial":
        if doc.get("basis") != "hermite":
            raise ParameterOutOfRange(f"not a hermite polynomial document: {doc.get('basis')!r}")
        return cls({tuple(t["K"]): t["beta"] for t in doc["terms"]})


def term_by_term_coeffs(alpha: HermitePolynomial, i: int) -> HermitePolynomial:
    """Expansion of ``d f / dx_i``: ``beta_K = sqrt(K_i + 1) alpha_{K + e_i}``."""
    if not 0 <= i < alpha.dimension:
        raise ParameterOutOfRange(
            f"coordinate {i} out of range for dimension {alpha.dimension}"
        )
    out: dict[MultiIndex, float] = {}
    for J, a in alpha.terms.items():
        coeff, down = hermite_partial(J, i)
        if coeff != 0.0:
            out[down] = out.get(down, 0.0) + coeff * a
    return HermitePolynomial(out, dimension=alpha.dimension)


@dataclass(frozen=True)
class HermiteTruncationReport:
    """Low-degree Hermite truncation with its measured residual."""

    polynomial: HermitePolynomial
    degree_budget: int
    residual_estimate: float
    max_coefficient: float


def _simplex_count(k: int, d: int) -> int:
    return math.comb(k + d, d)


def _truncate_on_axes(weighted: np.ndarray, k: int,
                      grid: Grid) -> tuple[dict[MultiIndex, float], np.ndarray]:
    """Simplex coefficients and the truncation on a product grid, one axis at a time.

    Contracting ``w f`` with the tables ``h_0 .. h_k`` of every axis gives
    ``sum(w f H_K)`` on the box ``K_j <= k``, and ``|w f|`` with their magnitudes
    ``sum |w f H_K|``; the terms are the :func:`significant` entries with
    ``|K|_1 <= k`` in lexicographic order, and the box of them, the rest set
    to zero, contracted back with the same tables, is the truncation.
    """
    axes = grid.axes
    tables = [_univariate_table(k, axis) for axis in axes]
    shape = [axis.size for axis in axes]
    box = along_axes(weighted.reshape(shape), tables)
    sizes = along_axes(np.abs(weighted).reshape(shape), [np.abs(table) for table in tables])
    degree = functools.reduce(np.add, np.ix_(*[np.arange(k + 1)] * len(axes)))
    box = np.where((degree <= k) & significant(box, sizes, grid), box, 0.0)
    kept = np.nonzero(box)  # in lexicographic order
    terms = dict(zip(map(tuple, np.transpose(kept).tolist()), box[kept].tolist()))
    approx = along_axes(box, [table.T for table in tables])
    return terms, approx.reshape(-1)


def _simplex_columns(k: int, grid: Grid):
    """``(K, H_K)`` at the grid's nodes for every ``|K|_1 <= k`` in lexicographic order.

    Depth-first over prefixes, smallest next degree on top; an entry holds the
    product of every factor but its last coordinate's, which siblings share.
    A spent budget completes its prefix with zeros at once: ``h_0 = 1``, so
    the skipped factors leave the product as it is.
    """
    nodes = grid.nodes
    n, d = nodes.shape
    tables = [_univariate_table(k, nodes[:, j]) for j in range(d)]
    zeros = (0,) * d
    stack: list[tuple[MultiIndex, int, np.ndarray]] = [((), k, np.ones(n))]
    while stack:
        prefix, left, prod = stack.pop()
        if prefix:
            prod = prod * tables[len(prefix) - 1][prefix[-1]]
        if left == 0 or len(prefix) == d:
            yield prefix + zeros[len(prefix):], prod
        else:
            stack.extend((prefix + (deg,), left - deg, prod) for deg in range(left, -1, -1))


def _degree_budget(lipschitz: float, epsilon: float, d: int) -> int:
    """The degree budget ``ceil(L^2/eps^2)``, within ``MAX_DEGREE`` and with an index
    simplex within the cap; raises :class:`DegreeCap` or :class:`CapExceeded`.

    It is the square of the ratio ``L / eps``: ``eps^2`` underflows to 0 below
    about ``1e-162``, and a square past the float range is past the cap too.
    """
    ratio_sq = (lipschitz / epsilon) * (lipschitz / epsilon)
    if not math.isfinite(ratio_sq):
        raise DegreeCap(f"degree budget (L/eps)^2 = ({lipschitz / epsilon})^2 exceeds the "
                        f"stability cap {MAX_DEGREE}")
    k = math.ceil(ratio_sq)
    if k > MAX_DEGREE:
        raise DegreeCap(f"degree budget {k} exceeds the stability cap {MAX_DEGREE}")
    if _simplex_count(k, d) > active_cap():
        raise CapExceeded(f"index simplex has {_simplex_count(k, d)} points, cap is {active_cap()}")
    return k


def hermite_truncate(f, lipschitz: float, epsilon: float, grid: Grid) -> HermiteTruncationReport:
    """Project onto Hermite indices with ``|K|_1 <= ceil(L^2/eps^2)``.

    For ``f`` that is genuinely ``lipschitz``-Lipschitz with
    ``|E f| <= lipschitz``, the dropped tail is at most ``epsilon`` and every
    coefficient is at most ``lipschitz`` in magnitude (both measured, not
    assumed).  Coefficients come from quadrature on the supplied Gaussian
    grid: on a grid whose axes have the ``k + 1`` nodes of a table
    (:meth:`Grid.wide_axes`), from contractions one axis at a time, agreeing with
    the per-index sums to rounding; elsewhere from :func:`keep_and_sum` over
    the columns of one walk over the index simplex.  Either way a coefficient
    within the rounding of its sum (:func:`significant`) is 0, out of the
    polynomial and residual.  A target whose values on the grid, or their
    weighted squared norm, are not finite raises ``FloatingPointError``
    (:func:`checked_values`).
    """
    if grid.spec.measure != GAUSSIAN:
        raise WrongMeasure("Hermite truncation needs a Gaussian-measure grid")
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    d = grid.dimension
    k = _degree_budget(lipschitz, epsilon, d)
    f_vals, weighted = checked_values(f, grid)
    if grid.wide_axes(k + 1) is not None:
        terms, approx = _truncate_on_axes(weighted, k, grid)
    else:
        terms, approx = keep_and_sum(weighted, _simplex_columns(k, grid), grid)
    poly = HermitePolynomial(terms, dimension=d)
    return HermiteTruncationReport(polynomial=poly, degree_budget=k,
                                   residual_estimate=grid.norm(f_vals - approx),
                                   max_coefficient=poly.max_coefficient())
