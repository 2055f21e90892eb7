"""Orthonormal trigonometric basis on the uniform cube ``[-1,1]^d``.

The basis element indexed by ``K in Z^d`` is::

    T_K(x) = 1                        K = 0
           = sqrt(2) sin(pi <K, x>)   first nonzero coordinate of K positive
           = sqrt(2) cos(pi <K, x>)   first nonzero coordinate of K negative

These are orthonormal in L2 of the uniform probability measure on the cube,
and their derivative algebra is closed: any partial derivative of ``T_K`` is a
scalar multiple of ``T_K`` or ``T_{-K}``.

Sparse trigonometric polynomials ``P(x) = sum_K beta_K T_K(rho x)`` carry a
single argument scale ``rho`` (1/2 after the reflection construction,
1 everywhere else).
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParameterOutOfRange
from .lattice import IndexClass, MultiIndex, classify, l2_norm_sq, negate

SQRT2 = math.sqrt(2.0)


class DerivedTerm(NamedTuple):
    """A closed-form derivative: ``D^M (basis fn of index K) = coeff * (basis fn of index)``."""

    coeff: float
    index: MultiIndex


def eval_T(K: MultiIndex, x) -> np.ndarray | float:
    """Evaluate ``T_K`` at ``x``.

    Parameters
    ----------
    K : tuple of int
    x : array_like, shape (d,) or (n, d)

    Returns a scalar for a single point and a 1-D array for a batch.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1] if x.ndim else 0
    if x.ndim not in (1, 2) or d != len(K):
        raise DimensionMismatch(f"point dimension {x.shape} does not match index {K}")
    kind = classify(K)
    if kind is IndexClass.ZERO:
        out = np.ones(x.shape[:-1])
    else:
        phase = math.pi * (x @ np.asarray(K, dtype=float))
        out = SQRT2 * (np.sin(phase) if kind is IndexClass.SIN else np.cos(phase))
    return float(out) if out.ndim == 0 else out


def _lead(index: np.ndarray) -> np.ndarray:
    """The sign of each index row's first nonzero coordinate: its sin/cos class."""
    return index[np.arange(len(index)), np.argmax(index != 0, axis=1)]


def _box(index: np.ndarray, beta: np.ndarray, top: int) -> np.ndarray:
    """The box ``|K_j| <= top`` of ``-i sqrt(2) beta_K`` at sin-class ``K``,
    ``sqrt(2) beta_K`` at cos-class ``K`` and ``beta_0`` at zero, so that
    ``sum_K box_K exp(i pi <K, y>)`` has the real part ``sum_K beta_K T_K(y)``."""
    lead = _lead(index)
    box = np.zeros((2 * top + 1,) * index.shape[1], dtype=complex)
    box[tuple((index + top).T)] = np.where(lead > 0, -1j * SQRT2 * beta,
                                           np.where(lead < 0, SQRT2 * beta, beta))
    return box


def _axis_tables(axes, top: int) -> list[np.ndarray]:
    """``exp(i pi K_j x_ja)`` at every node ``x_ja`` of each axis ``j``, order ``K_j`` in
    row ``K_j + top`` of table ``j`` for every ``|K_j| <= top``.  The outer product of
    rows ``K_j + top`` is ``exp(i pi <K, x>)`` at the product nodes: ``T_K`` is its
    imaginary part times ``sqrt(2)`` at a sin-class ``K``, else its real part
    (times ``sqrt(2)`` at a cos-class one)."""
    orders = np.arange(-top, top + 1, dtype=float)
    return [np.exp(1j * math.pi * np.multiply.outer(orders, axis)) for axis in axes]


def _basis_on_axes(index: np.ndarray, axes) -> np.ndarray:
    """``T_K`` at the product nodes of ``axes`` for each row ``K`` of ``index``, one
    column of a column-major array each: ``sqrt(2) Im``, ``sqrt(2) Re`` or ``Re`` of
    the outer product of rows ``K_j`` of the :func:`_axis_tables`, one complex
    product per node where :func:`eval_T` takes a sine, so they agree to rounding."""
    out = np.empty((math.prod(axis.size for axis in axes), len(index)), order="F")
    top = int(np.max(np.abs(index), initial=0))
    tables = _axis_tables(axes, top)
    for column, K, lead in zip(out.T, index + top, _lead(index)):
        rows = [table[row] for table, row in zip(tables, K)]
        phase = reduce(np.multiply.outer, rows).reshape(-1)
        if lead > 0:
            np.multiply(phase.imag, SQRT2, out=column)
        elif lead < 0:
            np.multiply(phase.real, SQRT2, out=column)
        else:
            column[:] = phase.real
    return out


def _monomial_power(K: MultiIndex, M: MultiIndex) -> int:
    """Exact integer ``K^M = prod K_i^{M_i}`` with the ``0^0 = 1`` convention."""
    p = 1
    for base, exp in zip(K, M):
        p *= base**exp
    return p


def partial_derivative(K: MultiIndex, M: MultiIndex) -> DerivedTerm:
    """Closed form of ``D^M T_K`` as ``coeff * T_index``.

    Differentiating once sends ``T_K`` to ``pi K_i T_{-K}`` regardless of the
    sin/cos class, so ``|M|`` applications give::

        D^M T_K = s(|M|) * pi^|M| * K^M * T_{K'}

    with ``K' = K`` for even ``|M|``, ``K' = -K`` for odd ``|M|``, and the
    sign ``s`` equal to +1 when ``|M| mod 4 in {0, 1}`` and -1 otherwise.
    The result is exact; no numerical differentiation is involved.
    """
    if len(M) != len(K):
        raise DimensionMismatch(f"derivative order {M} does not match index {K}")
    if any(m < 0 for m in M):
        raise ParameterOutOfRange(f"derivative orders must be nonnegative: {M}")
    order = sum(M)
    if order == 0:
        return DerivedTerm(1.0, K)
    power = _monomial_power(K, M)
    if power == 0:
        return DerivedTerm(0.0, K)
    sign = 1.0 if order % 4 in (0, 1) else -1.0
    coeff = sign * math.pi**order * power
    index = K if order % 2 == 0 else negate(K)
    return DerivedTerm(coeff, index)


class TrigPolynomial:
    """Sparse trigonometric polynomial ``P(x) = sum_K beta_K T_K(rho x)``.

    Zero coefficients are dropped on construction; instances are treated as
    immutable and may be shared freely.
    """

    def __init__(
        self,
        terms: Mapping[MultiIndex, float] | Iterable[tuple[MultiIndex, float]],
        scale: float = 1.0,
        dimension: int | None = None,
    ):
        if not 0.0 < scale <= 1.0:
            raise ParameterOutOfRange(f"scale must lie in (0, 1], got {scale}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[MultiIndex, float] = {}
        for K, beta in items:
            K = tuple(int(c) for c in K)
            if dimension is None:
                dimension = len(K)
            elif len(K) != dimension:
                raise DimensionMismatch(f"index {K} does not have dimension {dimension}")
            if beta != 0.0:
                clean[K] = float(beta)
        if dimension is None:
            raise DimensionMismatch("dimension required for a polynomial with no terms")
        self.terms = clean
        self.scale = float(scale)
        self.dimension = int(dimension)

    def __repr__(self):
        return f"TrigPolynomial({len(self.terms)} terms, scale={self.scale}, d={self.dimension})"

    def evaluate(self, x) -> np.ndarray | float:
        """Evaluate ``P`` at one point ``(d,)`` or a batch ``(n, d)``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise DimensionMismatch(
                f"point dimension {x.shape[-1]} != polynomial dimension {self.dimension}"
            )
        scaled = self.scale * x
        total = np.zeros(x.shape[:-1])
        for K, beta in self.terms.items():
            total = total + beta * np.asarray(eval_T(K, scaled))
        return float(total) if total.ndim == 0 else total

    def __call__(self, x):
        return self.evaluate(x)

    def max_coefficient(self) -> float:
        """``max |beta_K|`` over stored terms (0 for the zero polynomial)."""
        return max((abs(b) for b in self.terms.values()), default=0.0)

    @cached_property
    def max_norm_sq(self) -> int:
        """Largest ``||K||_2^2`` over stored terms (0 for the zero polynomial)."""
        return max((l2_norm_sq(K) for K in self.terms), default=0)

    def to_json_dict(self) -> dict:
        return {"scale": self.scale,
                "terms": [{"K": list(K), "beta": beta} for K, beta in sorted(self.terms.items())]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrigPolynomial":
        terms = {tuple(item["K"]): float(item["beta"]) for item in doc["terms"]}
        return cls(terms, scale=float(doc.get("scale", 1.0)))
