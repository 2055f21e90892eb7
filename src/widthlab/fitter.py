"""Least-squares fitting over random ReLU spans and empirical width search.

The L2 projection of a target onto the span of ``r`` sampled features is
realized as weighted least squares on a quadrature grid (SVD pseudo-inverse,
relative cutoff ``rcond``).  On top of that sit Monte Carlo estimates of the
success probability ``P[inf-over-span error <= eps]`` and a doubling-plus-
bisection search for the smallest width reaching a target success rate.

All randomness flows through ``numpy`` generators seeded per trial as
``default_rng([seed, trial])``, so results are independent of thread count
and of the order trials complete, and feature draws are *coupled* across
widths: trial ``t`` at width ``r+1`` extends the same draw used at width
``r`` by one more feature, making residuals monotone per trial.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, EmptyFeatureList, ParameterOutOfRange
from .quadrature import Grid, evaluate_on
from .relu import ReluFeature, ReluParamDist, feature_arrays


@dataclass(frozen=True)
class FittedSpan:
    """Optimal coefficients over a fixed feature list, with the grid residual."""

    features: list[ReluFeature]
    coefficients: np.ndarray
    l2_error: float
    grid_id: str

    def __post_init__(self):
        if len(self.coefficients) != len(self.features):
            raise ParameterOutOfRange("one coefficient per feature required")

    def evaluate(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        vals = _design_matrix(*feature_arrays(self.features), pts) @ self.coefficients
        return float(vals[0]) if single else vals

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"bias": feat.bias, "weight": feat.weight.tolist()} for feat in self.features
            ],
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


def _weighted_lstsq(design: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                    rcond: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum_i w_i (design_i . c - targets_i)^2; targets may be (n, m).

    Returns (coefficients, residual norms) with residuals recomputed from the
    product so rank-deficient systems report correctly.
    """
    root_w = np.sqrt(weights)
    scaled = design * root_w[:, None]
    rhs = targets * (root_w[:, None] if targets.ndim == 2 else root_w)
    coeffs = np.linalg.lstsq(scaled, rhs, rcond=rcond)[0]
    misfit = scaled @ coeffs - rhs
    if targets.ndim == 2:
        return coeffs, np.sqrt(np.sum(misfit**2, axis=0))
    return coeffs, np.sqrt(np.sum(misfit**2))


def fit_span(features: list[ReluFeature], f, grid: Grid, rcond: float = 1e-10) -> FittedSpan:
    """Project ``f`` onto the span of the features, in the grid's L2 norm.

    Duplicate or nearly parallel features are handled by the SVD cutoff; the
    residual is invariant to feature order and duplication because the span
    is.
    """
    if not features:
        raise EmptyFeatureList("cannot fit over an empty feature list")
    targets = evaluate_on(f, grid.nodes)
    design = _design_matrix(*feature_arrays(features), grid.nodes)
    coeffs, residual = _weighted_lstsq(design, targets, grid.weights, rcond)
    return FittedSpan(features=list(features), coefficients=coeffs,
                      l2_error=float(residual), grid_id=grid.spec.label())


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score 95% interval (default z) for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterOutOfRange(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


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


def trial_residuals(targets: np.ndarray, grid: Grid, dist: ReluParamDist, r: int, seed,
                    trials: int, threads: int = 1, rcond: float = 1e-10) -> np.ndarray:
    """Residual norms of ``targets`` against the span of ``r`` random features, per trial.

    Trial ``t`` draws its features from ``default_rng([seed, t])`` and solves
    one weighted least squares; ``targets`` of shape ``(n,)`` give one norm per
    trial, shape ``(n, m)`` one row of ``m`` norms per trial.  Trials run on
    ``threads`` workers without changing any result.
    """
    def residual(trial: int) -> np.ndarray:
        rng = np.random.default_rng([*np.atleast_1d(seed).tolist(), trial])
        design = _design_matrix(*dist.sample_batch(rng, r), grid.nodes)
        return _weighted_lstsq(design, targets, grid.weights, rcond)[1]

    if threads > 1:
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(residual, range(trials))))
    return np.array([residual(t) for t in range(trials)])


def success_probability(f, epsilon: float, dist: ReluParamDist, r: int, trials: int,
                        grid: Grid, seed, threads: int = 1,
                        rcond: float = 1e-10) -> SuccessEstimate:
    """Fraction of independent trials whose fitted span reaches error <= eps."""
    if trials < 1:
        raise ParameterOutOfRange(f"trials must be >= 1, got {trials}")
    if r < 1:
        raise ParameterOutOfRange(f"width must be >= 1, got {r}")
    if epsilon <= 0:
        raise ParameterOutOfRange(f"epsilon must be positive, got {epsilon}")
    residuals = trial_residuals(evaluate_on(f, grid.nodes), grid, dist, r, seed, trials,
                                threads, rcond)
    successes = int(np.count_nonzero(residuals <= epsilon))
    lo, hi = wilson_interval(successes, trials)
    return SuccessEstimate(probability=successes / trials, ci_lo=lo, ci_hi=hi,
                           trials=trials, r=r, epsilon=epsilon)


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


def estimate_minwidth(f, epsilon: float, delta: float, dist: ReluParamDist,
                      grid: Grid, trials: int, r_max: int, seed,
                      threads: int = 1) -> MinWidthEstimate:
    """Doubling then bisection for the smallest width with success >= 1 - delta.

    Per-trial seeds depend only on (seed, trial), so the feature draws are
    nested across widths and the empirical success curve is monotone up to
    MC noise; bisection against it returns the smallest tested passing width.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRange(f"delta must be in (0, 1), got {delta}")
    if r_max < 1:
        raise ParameterOutOfRange(f"r_max must be >= 1, got {r_max}")
    threshold = 1.0 - delta
    trace: list[tuple[int, float]] = []

    def probe(r: int) -> float:
        est = success_probability(f, epsilon, dist, r, trials, grid, seed, threads)
        trace.append((r, est.probability))
        return est.probability

    r, last_fail = 1, 0
    prob = probe(r)
    while prob < threshold:
        if r >= r_max:
            raise CapExceeded(
                f"no width <= {r_max} reached success probability {threshold}"
            )
        last_fail = r
        r = min(2 * r, r_max)
        prob = probe(r)

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
