"""Low-degree trigonometric truncation of Lipschitz and Sobolev functions.

Three constructions:

* ``truncate_periodic`` — for L-Lipschitz functions with periodic boundary
  conditions, keep coefficients on the lattice ball of radius ``k = L/(2 eps)``.
* ``reflect_and_truncate`` — for arbitrary L-Lipschitz functions on the cube,
  run the five-step reflection pipeline (rescale, even reflection, periodic
  truncation at ``k = L/eps``, orthant selection, mod-4 coefficient
  transform), producing a polynomial at argument scale ``rho = 1/2``.
* ``truncate_sobolev`` — for functions with ``s``-order Sobolev norm at most
  ``gamma``, keep the ball of radius ``k = sqrt(s) gamma^(1/s) / (2 eps)^(1/s)``.

Residuals are always *measured* on the supplied grid in addition to the
theoretical guarantee, so quadrature error is visible separately from
truncation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, ParameterOutOfRange, ScaleNotUnit, WrongMeasure
from .lattice import (
    IndexClass,
    MultiIndex,
    classify,
    enumerate_ball,
    negate,
    radius_sq_bound,
)
from .quadrature import UNIFORM_CUBE, Grid, along_axes, evaluate_on
from .trig import SQRT2, TrigPolynomial, eval_T


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of a truncation: the polynomial plus measured diagnostics."""

    polynomial: TrigPolynomial
    degree_radius: float
    residual_estimate: float
    max_coefficient: float
    orthant: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "polynomial": self.polynomial.to_json_dict(),
            "degree_radius": self.degree_radius,
            "residual_estimate": self.residual_estimate,
            "max_coefficient": self.max_coefficient,
            "orthant": list(self.orthant) if self.orthant is not None else None,
        }


def _residual(f_vals: np.ndarray, approx: np.ndarray, grid: Grid) -> float:
    """``||f - approx||_mu`` on the grid, as :func:`l2_error` forms it."""
    diff = f_vals - approx
    return float(np.sqrt(np.sum(grid.weights * diff * diff)))


def _basis_column(K: MultiIndex, grid: Grid) -> np.ndarray:
    """``eval_T(K, grid.nodes)``, evaluated on the first ``grid.h`` nodes only.

    On a centrally symmetric grid row ``n-1-i`` is at ``-node i``, where
    ``T_K`` is the negated value for a sin-class ``K`` and the same value
    otherwise.  The negation is ``0.0 - t``: where the phase is zero the
    direct sine is ``+0``, which ``0.0 - (+0)`` keeps and ``-t`` would flip.
    """
    n, h = grid.nodes.shape[0], grid.h
    if h == n:
        return eval_T(K, grid.nodes)
    t = np.empty(n)
    t[:h] = eval_T(K, grid.nodes[:h])
    mirror = t[:n - h][::-1]
    if classify(K) is IndexClass.SIN:
        np.subtract(0.0, mirror, out=t[h:])
    else:
        t[h:] = mirror
    return t


def _truncate_on_axes(fw: np.ndarray, ball: list[MultiIndex], top: int,
                      axes) -> tuple[dict[MultiIndex, float], np.ndarray]:
    """Ball coefficients and the truncation on a product grid, one axis at a time.

    With ``E_j[r, a] = exp(i pi (r - top) x_ja)``, contracting ``w f`` with
    every ``E_j`` gives ``F_K = sum(w f exp(i pi <K, x>))`` on the box
    ``|K_j| <= top``, so ``beta_K`` is ``sqrt(2) Im F_K`` for a sin-class
    ``K``, ``sqrt(2) Re F_K`` for a cos-class one and ``Re F_0`` at zero.  The
    truncation is the real part of the box of ``-i sqrt(2) beta_K``,
    ``sqrt(2) beta_K`` and ``beta_0`` contracted back with the same tables.
    The sums run in another order than ``sum(w f T_K)``, so the results agree
    with the per-index route to rounding, not bit for bit.
    """
    orders = np.arange(-top, top + 1, dtype=float)
    tables = [np.exp(1j * math.pi * np.multiply.outer(orders, axis)) for axis in axes]
    box = along_axes(fw.reshape([axis.size for axis in axes]), tables)
    index = np.asarray(ball)
    # the sign of each index's first nonzero coordinate: its sin/cos class
    lead = index[np.arange(len(ball)), np.argmax(index != 0, axis=1)]
    at = tuple((index + top).T)
    F = box[at]
    beta = np.where(lead > 0, SQRT2 * F.imag, np.where(lead < 0, SQRT2 * F.real, F.real))
    coefficients = np.zeros_like(box)
    coefficients[at] = np.where(lead > 0, -1j * SQRT2 * beta,
                                np.where(lead < 0, SQRT2 * beta, beta))
    approx = along_axes(coefficients, [table.T for table in tables]).real
    return dict(zip(ball, beta.tolist())), approx.reshape(-1)


def _truncate_by_loop(fw: np.ndarray, ball: list[MultiIndex],
                      grid: Grid) -> tuple[dict[MultiIndex, float], np.ndarray]:
    """Ball coefficients and the truncation, one basis column per index.

    Each coefficient is ``sum(w f T_K)`` as :func:`trig_coefficient` forms it,
    and the truncation is summed in ball order as ``TrigPolynomial.evaluate``
    sums it, so both agree bit for bit with the per-index route.  Each ``T_K``
    column is computed on half of a centrally symmetric grid and mirrored;
    the phase ``x @ K`` at ``-x`` is the exact negation of the one at ``x``,
    sine is odd and cosine even, so the column has the bits of
    ``eval_T(K, grid.nodes)``.
    """
    terms = {}
    approx = np.zeros(grid.nodes.shape[0])
    for K in ball:
        t = _basis_column(K, grid)
        beta = float(np.sum(fw * t))
        terms[K] = beta
        if beta != 0.0:
            approx += beta * t
    return terms, approx


def _truncate_on_ball(f, k: float, grid: Grid, cap=None) -> tuple[TrigPolynomial, float]:
    """Coefficients of ``f`` on the radius-``k`` ball and the measured residual.

    One evaluation of ``f`` serves every coefficient and the residual.  On a
    grid with :attr:`Grid.axes` of at least ``2 top + 1`` nodes each (``top``
    the largest ``|K_j|`` in the ball, so no table is larger than its axis)
    they come from contractions one axis at a time; on any other grid from
    one pass over the ball.
    """
    if grid.spec.measure != UNIFORM_CUBE:
        raise WrongMeasure("trig coefficients require the uniform cube measure")
    ball = enumerate_ball(k, grid.dimension, cap)
    f_vals = evaluate_on(f, grid.nodes)
    fw = grid.weights * f_vals
    top = math.isqrt(radius_sq_bound(k))
    axes = grid.axes
    if axes is not None and all(axis.size > 2 * top for axis in axes):
        terms, approx = _truncate_on_axes(fw, ball, top, axes)
    else:
        terms, approx = _truncate_by_loop(fw, ball, grid)
    poly = TrigPolynomial(terms, scale=1.0, dimension=grid.dimension)
    return poly, _residual(f_vals, approx, grid)


def truncate_periodic(f, lipschitz: float, epsilon: float, grid: Grid, cap=None) -> TruncationReport:
    """Truncate a periodic L-Lipschitz function at radius ``k = L/(2 eps)``.

    The caller asserts that ``f`` is ``lipschitz``-Lipschitz with periodic
    boundary conditions and ``|E f| <= lipschitz / 2``; under that contract
    the residual is at most ``epsilon`` (plus quadrature error) and every
    coefficient is at most ``lipschitz / 2`` in magnitude.
    """
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    if lipschitz / epsilon < 2.0:
        raise ParameterOutOfRange(
            f"periodic truncation needs L/eps >= 2, got {lipschitz / epsilon}"
        )
    k = lipschitz / (2.0 * epsilon)
    poly, residual = _truncate_on_ball(f, k, grid, cap)
    return TruncationReport(poly, k, residual, poly.max_coefficient())


# Effect of a quarter-period phase shift on sin/cos, by shift count mod 4:
# entry (kind_after, sign).
_SIN_SHIFT = {0: ("sin", 1.0), 1: ("cos", 1.0), 2: ("sin", -1.0), 3: ("cos", -1.0)}
_COS_SHIFT = {0: ("cos", 1.0), 1: ("sin", -1.0), 2: ("cos", -1.0), 3: ("sin", 1.0)}


def _canonical_term(kind: str, J: MultiIndex) -> tuple[float, MultiIndex]:
    """Rewrite ``sqrt(2) sin/cos(pi <J, .>)`` as ``sign * T_index`` for J != 0."""
    cls = classify(J)
    if kind == "sin":
        return (1.0, J) if cls is IndexClass.SIN else (-1.0, negate(J))
    return (1.0, J) if cls is IndexClass.COS else (1.0, negate(J))


def shift_polynomial_to_half_scale(poly: TrigPolynomial, orthant: tuple[int, ...]) -> TrigPolynomial:
    """Rewrite ``x -> poly(orthant * (x + 1) / 2)`` as a scale-1/2 polynomial.

    For each term, ``T_K(nu * (x + 1)/2)`` picks up a quarter-period phase of
    ``<nu * K, 1>`` quarter turns, which maps sin to cos and flips signs
    according to the phase mod 4; the resulting raw sin/cos term is then
    recognized as ``+- T_{+- nu * K}(x/2)``.  Exact, term by term.
    """
    if poly.scale != 1.0:
        raise ScaleNotUnit("orthant shift applies to unit-scale polynomials")
    if len(orthant) != poly.dimension or any(s not in (-1, 1) for s in orthant):
        raise ParameterOutOfRange(f"orthant must be a +-1 vector of length {poly.dimension}")
    out: dict[MultiIndex, float] = {}
    for K, beta in poly.terms.items():
        kind = classify(K)
        if kind is IndexClass.ZERO:
            out[K] = out.get(K, 0.0) + beta
            continue
        J = tuple(s * c for s, c in zip(orthant, K))
        m = sum(J) % 4
        table = _SIN_SHIFT if kind is IndexClass.SIN else _COS_SHIFT
        kind_after, sign_after = table[m]
        sign_canon, index = _canonical_term(kind_after, J)
        out[index] = out.get(index, 0.0) + beta * sign_after * sign_canon
    return TrigPolynomial(out, scale=0.5, dimension=poly.dimension)


def reflect_and_truncate(f, lipschitz: float, epsilon: float, grid: Grid,
                         cap=None, orthant_dim_cap: int = 20) -> TruncationReport:
    """Approximate an arbitrary L-Lipschitz function on the cube.

    Pipeline (all steps constructive):

    1. rescale ``f`` to ``fbar`` on ``[0,1]^d``;
    2. reflect evenly across orthants, ``ftilde(x) = fbar(|x|)``, which is
       ``2L``-Lipschitz with periodic boundary conditions;
    3. truncate ``ftilde`` at radius ``k = L/eps`` with the periodic rule;
    4. choose the orthant ``nu`` minimizing the L2 error of the truncation
       against ``fbar`` (the analysis guarantees one good orthant exists; we
       scan all ``2^d`` and take the argmin);
    5. shift/rescale back, yielding a polynomial at scale ``rho = 1/2``.

    The caller asserts ``f`` is ``lipschitz``-Lipschitz with ``|E f| <= lipschitz``.
    Under that contract the residual is at most ``epsilon`` plus quadrature
    error, and coefficients are bounded by ``lipschitz``.
    """
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    if lipschitz / epsilon < 1.0:
        raise ParameterOutOfRange(
            f"reflection truncation needs L/eps >= 1, got {lipschitz / epsilon}"
        )
    d = grid.dimension
    if d > orthant_dim_cap:
        raise CapExceeded(f"orthant scan over 2^{d} exceeds the d <= {orthant_dim_cap} cap")

    def ftilde(nodes):
        folded = 2.0 * np.abs(np.asarray(nodes, dtype=float)) - 1.0
        return evaluate_on(f, folded)

    inner = truncate_periodic(ftilde, 2.0 * lipschitz, epsilon, grid, cap)
    ptilde = inner.polynomial

    # Orthant chosen by measured error of ptilde(nu * (x+1)/2) against f on the grid.
    f_vals = evaluate_on(f, grid.nodes)
    best_nu, best_err = None, math.inf
    for nu in itertools.product((-1, 1), repeat=d):
        mapped = np.asarray(nu, dtype=float) * (grid.nodes + 1.0) / 2.0
        err = float(np.sum(grid.weights * (ptilde.evaluate(mapped) - f_vals) ** 2))
        if err < best_err:
            best_nu, best_err = nu, err

    poly = shift_polynomial_to_half_scale(ptilde, best_nu)
    residual = _residual(f_vals, poly.evaluate(grid.nodes), grid)
    return TruncationReport(poly, inner.degree_radius, residual,
                            poly.max_coefficient(), orthant=best_nu)


def _sobolev_radius(s: int, gamma: float, epsilon: float) -> float:
    """The ball radius :func:`truncate_sobolev` keeps."""
    return math.sqrt(s) * gamma ** (1.0 / s) / (2.0 * epsilon) ** (1.0 / s)


def truncate_sobolev(f, s: int, gamma: float, epsilon: float, grid: Grid, cap=None) -> TruncationReport:
    """Truncate a function of ``s``-order Sobolev norm at most ``gamma``.

    Keeps the ball of radius ``k = sqrt(s) gamma^(1/s) / (2 eps)^(1/s)``;
    under the asserted norm bound the dropped tail is at most ``epsilon``.
    """
    if s < 1 or int(s) != s:
        raise ParameterOutOfRange(f"Sobolev order must be a positive integer, got {s}")
    if gamma <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("gamma and epsilon must be positive")
    k = _sobolev_radius(s, gamma, epsilon)
    poly, residual = _truncate_on_ball(f, k, grid, cap)
    return TruncationReport(poly, k, residual, poly.max_coefficient())


def c_ks(K: MultiIndex, s: int) -> float:
    """Derivative-energy constant ``c_{K,s} = sum_{|M| <= s} (pi K)^{2M}``.

    Computed by a per-coordinate dynamic program over the total order, so the
    cost is ``O(d s^2)`` instead of enumerating all multi-indices ``M``.
    """
    if s < 1 or int(s) != s:
        raise ParameterOutOfRange(f"Sobolev order must be a positive integer, got {s}")
    factors = [(math.pi * c) ** 2 for c in K]
    acc = [1.0] + [0.0] * s  # acc[t] = sum over processed coords with |M| = t
    for a in factors:
        nxt = [0.0] * (s + 1)
        for t in range(s + 1):
            if acc[t] == 0.0:
                continue
            power = 1.0
            for m in range(0, s - t + 1):
                nxt[t + m] += acc[t] * power
                power *= a
        acc = nxt
    return float(sum(acc))


def sobolev_norm_from_coeffs(poly: TrigPolynomial, s: int) -> float:
    """``H^s`` norm ``sqrt(sum beta_K^2 c_{K,s})`` of a unit-scale polynomial."""
    if poly.scale != 1.0:
        raise ScaleNotUnit(f"Sobolev norm via coefficients needs scale 1, got {poly.scale}")
    return math.sqrt(sum(b * b * c_ks(K, s) for K, b in poly.terms.items()))
