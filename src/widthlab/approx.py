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

from .caps import active_cap
from .errors import CapExceeded, ParameterOutOfRange, ScaleNotUnit, WrongMeasure
from .lattice import (
    IndexClass,
    MultiIndex,
    classify,
    count_ball,
    enumerate_ball,
    negate,
    radius_sq_bound,
)
from .quadrature import (
    UNIFORM_CUBE,
    Grid,
    along_axes,
    checked_values,
    evaluate_on,
    keep_and_sum,
    significant,
)
from .trig import SQRT2, TrigPolynomial, _axis_tables, _box, _lead, eval_T


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


def _truncate_on_axes(fw: np.ndarray, ball: list[MultiIndex], top: int,
                      grid: Grid) -> tuple[dict[MultiIndex, float], np.ndarray]:
    """Ball coefficients and the truncation on a product grid, one axis at a time.

    With ``E_j[r, a] = exp(i pi (r - top) x_ja)``, contracting ``w f`` with
    every ``E_j`` gives ``F_K = sum(w f exp(i pi <K, x>))`` on the box
    ``|K_j| <= top``, so ``beta_K`` is ``sqrt(2) Im F_K`` for a sin-class
    ``K``, ``sqrt(2) Re F_K`` for a cos-class one and ``Re F_0`` at zero: sums of
    ``w f`` times factors of modulus ``sqrt(2)`` (1 at zero), so their
    :func:`significant` magnitude is ``sum |w f|`` times that.  The truncation
    is the :func:`_box` of the kept ones contracted back with the same tables.
    The sums run in another order than ``sum(w f T_K)``, so the results agree
    with the per-index route to rounding, not bit for bit.
    """
    tables = _axis_tables(grid.axes, top)
    box = along_axes(fw.reshape([axis.size for axis in grid.axes]), tables)
    index = np.asarray(ball)
    lead = _lead(index)
    F = box[tuple((index + top).T)]
    beta = np.where(lead > 0, SQRT2 * F.imag, np.where(lead < 0, SQRT2 * F.real, F.real))
    size = np.where(lead != 0, SQRT2, 1.0) * float(np.sum(np.abs(fw)))
    beta = np.where(significant(beta, size, grid), beta, 0.0)
    approx = along_axes(_box(index, beta, top), [table.T for table in tables]).real
    return dict(zip(ball, beta.tolist())), approx.reshape(-1)


def _check_cube(grid: Grid) -> None:
    """Raise :class:`WrongMeasure` unless ``grid`` is on the uniform cube; called before the
    target is evaluated, so that a wrong grid costs no evaluation."""
    if grid.spec.measure != UNIFORM_CUBE:
        raise WrongMeasure("trig coefficients require the uniform cube measure")


def _truncate_on_ball(f_vals: np.ndarray, fw: np.ndarray, k: float,
                      grid: Grid) -> TruncationReport:
    """Coefficients on the radius-``k`` ball of the target with values ``f_vals`` at the
    nodes of a cube grid, ``fw`` those times the weights, and the measured residual.

    One evaluation of the target serves every coefficient and the residual.  On a
    grid whose axes have the ``2 top + 1`` nodes of a table (:meth:`Grid.wide_axes`,
    ``top`` the largest ``|K_j|`` in the ball) they come from contractions one
    axis at a time; on any other grid from :func:`keep_and_sum` over the ball's
    ``eval_T`` columns, bit for bit as :func:`trig_coefficient` and
    ``TrigPolynomial.evaluate`` form them.
    """
    ball = enumerate_ball(k, grid.dimension)
    top = math.isqrt(radius_sq_bound(k))
    if grid.wide_axes(2 * top + 1) is not None:
        terms, approx = _truncate_on_axes(fw, ball, top, grid)
    else:
        terms, approx = keep_and_sum(fw, ((K, eval_T(K, grid.nodes)) for K in ball), grid)
    poly = TrigPolynomial(terms, scale=1.0, dimension=grid.dimension)
    return TruncationReport(poly, k, grid.norm(f_vals - approx), poly.max_coefficient())


def truncate_periodic(f, lipschitz: float, epsilon: float, grid: Grid) -> TruncationReport:
    """Truncate a periodic L-Lipschitz function at radius ``k = L/(2 eps)``.

    The caller asserts that ``f`` is ``lipschitz``-Lipschitz with periodic
    boundary conditions and ``|E f| <= lipschitz / 2``; under that contract
    the residual is at most ``epsilon`` (plus quadrature error) and every
    coefficient is at most ``lipschitz / 2`` in magnitude.  A target whose
    values on the grid, or their weighted squared norm, are not finite raises
    ``FloatingPointError`` (:func:`checked_values`).
    """
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    if lipschitz / epsilon < 2.0:
        raise ParameterOutOfRange(
            f"periodic truncation needs L/eps >= 2, got {lipschitz / epsilon}"
        )
    _check_cube(grid)
    return _truncate_on_ball(*checked_values(f, grid), lipschitz / (2.0 * epsilon), grid)


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


# The orthant scan enumerates its 2^d orthants one at a time, in Python.
_ORTHANT_DIM_CAP = 20


def _check_orthant_scan(d: int, indices: int, nodes: int) -> None:
    """Raise :class:`CapExceeded` when the reflect-mode orthant scan, each of ``2^d``
    orthants scored over ``indices`` ball indices at ``nodes`` grid nodes, is
    past the cap, or ``d`` past ``_ORTHANT_DIM_CAP``; ``validate`` checks configs
    with the same function."""
    if d > _ORTHANT_DIM_CAP:
        raise CapExceeded(f"orthant scan over 2^{d} orthants exceeds the "
                          f"d <= {_ORTHANT_DIM_CAP} cap")
    limit = active_cap()
    if 2**d * indices * nodes > limit:
        raise CapExceeded(f"orthant scan of 2^{d} orthants x {indices} indices x {nodes} "
                          f"grid nodes exceeds the cap {limit}")


def _shifted_on_axes(poly: TrigPolynomial, axes):
    """``nu -> poly(nu * (x + 1) / 2)`` at every node of the product of ``axes``: the
    real part of the :func:`_box` contracted with ``exp(i pi K_j nu_j (x_j + 1) / 2)``
    along each axis ``j``, whose table for ``nu_j = -1`` is the conjugate."""
    index = np.array(list(poly.terms), dtype=int).reshape(-1, poly.dimension)
    top = int(np.max(np.abs(index), initial=0))
    box = _box(index, np.array(list(poly.terms.values())), top)
    orders = np.arange(-top, top + 1, dtype=float)
    tables = [np.exp(0.5j * math.pi * np.multiply.outer(axis + 1.0, orders)) for axis in axes]
    return lambda nu: along_axes(box, [table if s > 0 else table.conj()
                                       for s, table in zip(nu, tables)]).real.reshape(-1)


def reflect_and_truncate(f, lipschitz: float, epsilon: float, grid: Grid) -> TruncationReport:
    """Approximate an arbitrary L-Lipschitz function on the cube.

    Pipeline (all steps constructive):

    1. rescale ``f`` to ``fbar`` on ``[0,1]^d``;
    2. reflect evenly across orthants, ``ftilde(x) = fbar(|x|)``, which is
       ``2L``-Lipschitz with periodic boundary conditions;
    3. truncate ``ftilde`` at radius ``k = L/eps`` with the periodic rule;
    4. choose the orthant ``nu`` minimizing the L2 error of the truncation
       against ``fbar`` (the analysis guarantees one good orthant exists; we
       scan all ``2^d`` and take the argmin, each scored by one contraction on
       a grid with :meth:`Grid.wide_axes`, and refuse a scan past the cap);
    5. shift/rescale back, yielding a polynomial at scale ``rho = 1/2``.

    The caller asserts ``f`` is ``lipschitz``-Lipschitz with ``|E f| <= lipschitz``.
    Under that contract the residual is at most ``epsilon`` plus quadrature
    error, and coefficients are bounded by ``lipschitz``.  When no orthant's
    error is finite, as for a target whose values overflow, raises
    ``FloatingPointError``.
    """
    if lipschitz <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("lipschitz and epsilon must be positive")
    if lipschitz / epsilon < 1.0:
        raise ParameterOutOfRange(
            f"reflection truncation needs L/eps >= 1, got {lipschitz / epsilon}"
        )
    _check_cube(grid)
    d = grid.dimension
    # ftilde at the nodes, truncated at the periodic radius of its Lipschitz
    # constant 2L; not checked, so that a target with no finite value reaches
    # the orthant scan, which reports it
    ftilde = evaluate_on(f, 2.0 * np.abs(grid.nodes) - 1.0)
    inner = _truncate_on_ball(ftilde, grid.weights * ftilde, (2.0 * lipschitz) / (2.0 * epsilon),
                              grid)
    _check_orthant_scan(d, count_ball(inner.degree_radius, d), grid.nodes.shape[0])
    ptilde = inner.polynomial

    # Orthant chosen by measured error of ptilde(nu * (x+1)/2) against f on the grid.
    f_vals = evaluate_on(f, grid.nodes)
    axes = grid.wide_axes(2 * math.isqrt(radius_sq_bound(inner.degree_radius)) + 1)
    shifted = _shifted_on_axes(ptilde, axes) if axes is not None else (
        lambda nu: ptilde.evaluate(np.asarray(nu, dtype=float) * (grid.nodes + 1.0) / 2.0))
    best_nu, best_err = None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # only a finite error is kept
        for nu in itertools.product((-1, 1), repeat=d):
            err = float(np.sum(grid.weights * (shifted(nu) - f_vals) ** 2))
            if err < best_err:
                best_nu, best_err = nu, err
    if best_nu is None:
        raise FloatingPointError("no orthant's truncation has a finite error on the grid")

    poly = shift_polynomial_to_half_scale(ptilde, best_nu)
    residual = grid.norm(f_vals - poly.evaluate(grid.nodes))
    return TruncationReport(poly, inner.degree_radius, residual,
                            poly.max_coefficient(), orthant=best_nu)


def _sobolev_radius(s: int, gamma: float, epsilon: float) -> float:
    """The ball radius :func:`truncate_sobolev` keeps."""
    return math.sqrt(s) * gamma ** (1.0 / s) / (2.0 * epsilon) ** (1.0 / s)


def truncate_sobolev(f, s: int, gamma: float, epsilon: float, grid: Grid) -> TruncationReport:
    """Truncate a function of ``s``-order Sobolev norm at most ``gamma``.

    Keeps the ball of radius ``k = sqrt(s) gamma^(1/s) / (2 eps)^(1/s)``;
    under the asserted norm bound the dropped tail is at most ``epsilon``.  A
    target that is not finite on the grid raises ``FloatingPointError``, as in
    :func:`truncate_periodic`.
    """
    if s < 1 or int(s) != s:
        raise ParameterOutOfRange(f"Sobolev order must be a positive integer, got {s}")
    if gamma <= 0 or epsilon <= 0:
        raise ParameterOutOfRange("gamma and epsilon must be positive")
    _check_cube(grid)
    return _truncate_on_ball(*checked_values(f, grid), _sobolev_radius(s, gamma, epsilon),
                             grid)


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
