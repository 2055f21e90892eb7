"""The benchmark's workloads: which experiments one round runs, generated from a seed.

A round is a fixed list of experiments, each one call into a public entry
point of widthlab.  Round ``i`` of workload seed ``s`` is a pure function of
``(s, i)``: the seed picks per-experiment seeds and target coefficients and
never changes sizes, so every seed does the same work up to the search path
of ``minwidth``.

Targets are random images of a fixed base polynomial under the signed
permutations of the coordinates, with a random overall sign.  The feature
distribution, the cube and the tensor grids are all invariant under that
group, so every image is exactly as hard to fit as the base; a fully random
target would change the width a fit needs by a factor of two from one seed
to the next and drown the timing in input variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Experiment kinds that are not widthlab CLI kinds; the runner calls them directly.
SAN = "sample_average_network"


@dataclass(frozen=True)
class Experiment:
    """One timed call: a CLI config (``kind`` + ``parameters``) or a direct call."""

    kind: str
    parameters: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[int, int], list[Experiment]]
    warmup: Callable[[], list[Experiment]]
    # Rounds a traced run repeats untraced and traced; fixed so that the
    # per-layer counts of one seed repeat exactly.
    trace_rounds: int


def _leads_positive(K) -> bool:
    return next((c > 0 for c in K if c != 0), False)


def symmetric_image(terms: dict, perm, signs, flip: float) -> dict:
    """Coefficients of ``x -> flip * P(S x)`` for ``P = sum beta_K T_K``.

    ``S`` is the signed permutation with ``(S x)[perm[i]] = signs[i] * x[i]``,
    so ``<K, S x> = <J, x>`` with ``J[i] = signs[i] * K[perm[i]]``.  The sin or
    cos of ``pi <J, x>`` is then rewritten on the canonical basis, where the
    sign of the first nonzero coordinate of the index selects sin or cos.
    """
    out = {}
    for K, beta in terms.items():
        J = tuple(int(signs[i]) * K[perm[i]] for i in range(len(K)))
        minus_J = tuple(-c for c in J)
        if not any(K):
            index, sign = J, 1.0
        elif _leads_positive(K):  # sqrt(2) sin(pi <J, x>)
            index, sign = (J, 1.0) if _leads_positive(J) else (minus_J, -1.0)
        else:  # sqrt(2) cos(pi <J, x>), even in J
            index, sign = (minus_J, 1.0) if _leads_positive(J) else (J, 1.0)
        out[index] = flip * sign * beta
    return out


def _random_image(terms: dict, rng: np.random.Generator) -> dict:
    d = len(next(iter(terms)))
    perm = rng.permutation(d)
    signs = rng.choice([-1, 1], size=d)
    flip = float(rng.choice([-1.0, 1.0]))
    return symmetric_image(terms, perm, signs, flip)


def _normalized(terms: dict) -> dict:
    norm = math.sqrt(sum(b * b for b in terms.values()))
    return {K: b / norm for K, b in terms.items()}


def _trig_target(terms: dict) -> dict:
    return {"type": "trig_poly", "polynomial": {
        "scale": 1.0,
        "terms": [{"K": list(K), "beta": float(b)} for K, b in sorted(terms.items())],
    }}


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _rng(seed: int, round_index: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, slot])


# Unit-norm base targets.  At d = 2 and epsilon 0.4 the minimum width is about
# 45-55, so the doubling search stops at 64 and bisects inside (32, 64]: about
# 350-400 features fitted per trial.
_BASE_1D = _normalized({(1,): 0.8, (-1,): -0.5, (2,): 0.3})
_BASE_2D = _normalized({(1, 0): 0.8, (0, -1): -0.5, (1, 1): 0.3, (-1, 1): 0.4})
_BASE_3D = _normalized({(1, 0, 0): 0.7, (0, 1, -1): -0.5, (-1, 1, 1): 0.4, (0, 0, 2): 0.3})
_DK2 = {"kind": "dk", "k": 2}


def _fit_curve_2d(rng: np.random.Generator) -> Experiment:
    return Experiment("fit_curve", {
        "d": 2, "epsilon": 0.4, "trials": 40, "r_list": [4, 16, 64],
        "target": _trig_target(_random_image(_BASE_2D, rng)),
        "dist": _DK2, "seed": _seed(rng)})


def _fit_sweep_round(seed: int, round_index: int) -> list[Experiment]:
    # Two d = 2 curves put the round's median experiment inside one kind, so
    # exp_s.p50 does not sit on the boundary between two kinds' timings.
    rngs = [_rng(seed, round_index, slot) for slot in range(5)]
    return [
        Experiment("fit_curve", {
            "d": 1, "epsilon": 0.1, "trials": 40, "r_list": [2, 4, 8, 16, 32],
            "target": _trig_target(_random_image(_BASE_1D, rngs[0])),
            "dist": _DK2, "seed": _seed(rngs[0])}),
        _fit_curve_2d(rngs[1]),
        _fit_curve_2d(rngs[4]),
        Experiment("minwidth", {
            "d": 1, "epsilon": 0.1, "delta": 0.2, "trials": 20, "r_max": 1024,
            "target": _trig_target(_random_image(_BASE_1D, rngs[2])),
            "dist": _DK2, "seed": _seed(rngs[2])}),
        Experiment("minwidth", {
            "d": 2, "epsilon": 0.4, "delta": 0.2, "trials": 20, "r_max": 1024,
            "target": _trig_target(_random_image(_BASE_2D, rngs[3])),
            "dist": _DK2, "seed": _seed(rngs[3])}),
    ]


def _fit_sweep_warmup() -> list[Experiment]:
    target = _trig_target(_BASE_1D)
    return [
        Experiment("fit_curve", {"d": 1, "epsilon": 0.1, "trials": 2, "r_list": [1, 2],
                                 "target": target, "dist": _DK2, "seed": 0}),
        Experiment("minwidth", {"d": 1, "epsilon": 2.0, "delta": 0.5, "trials": 2,
                                "r_max": 4, "target": target, "dist": _DK2, "seed": 0}),
    ]


def _lower_bound_round(seed: int, round_index: int) -> list[Experiment]:
    rngs = [_rng(seed, round_index, slot) for slot in range(3)]
    return [
        Experiment("lb_projection", {
            "d": 4, "family": {"type": "symmetric", "ell": 2}, "r_list": [1, 2, 3],
            "trials": 20, "dist": _DK2, "seed": _seed(rngs[0])}),
        Experiment("lb_projection", {
            "d": 3, "family": {"type": "ball", "k": 2}, "r_list": [4, 8],
            "trials": 10, "dist": _DK2, "seed": _seed(rngs[1])}),
        Experiment("lb_explicit", {
            "d": 4, "ell": 2, "epsilon": 0.1, "r_list": [1, 2, 4], "trials": 40,
            "dist": _DK2, "seed": _seed(rngs[2])}),
    ]


def _lower_bound_warmup() -> list[Experiment]:
    return [
        Experiment("lb_projection", {"d": 2, "family": {"type": "symmetric", "ell": 1},
                                     "r_list": [0, 1], "trials": 2, "seed": 0}),
        Experiment("lb_explicit", {"d": 2, "ell": 1, "epsilon": 0.1, "r_list": [1],
                                   "trials": 2, "seed": 0}),
    ]


def _sobolev_parameters(terms: dict, s: int, radius: float) -> tuple[float, float]:
    """(gamma, epsilon) with gamma >= |P|_{H^s} and truncation radius ``radius``.

    ``c_{K,s} <= (1 + pi^2 |K|^2)^s`` bounds the Sobolev weight, and
    ``k = sqrt(s) gamma^(1/s) / (2 eps)^(1/s)`` is solved for ``eps``.
    """
    gamma = 1.01 * math.sqrt(sum(b * b * (1.0 + math.pi**2 * sum(c * c for c in K)) ** s
                                 for K, b in terms.items()))
    epsilon = gamma * (math.sqrt(s) / radius) ** s / 2.0
    return gamma, epsilon


def _construct_round(seed: int, round_index: int) -> list[Experiment]:
    rngs = [_rng(seed, round_index, slot) for slot in range(2)]
    sobolev_terms = _random_image(_BASE_3D, rngs[0])
    gamma, epsilon = _sobolev_parameters(sobolev_terms, 1, 3.0)
    return [
        Experiment("hermite_check", {"d": 3, "L": 1.0, "epsilon": 0.35, "target": "abs"}),
        Experiment("approx_sobolev", {"d": 3, "s": 1, "gamma": gamma, "epsilon": epsilon,
                                      "target": _trig_target(sobolev_terms)}),
        # Reflect |x_1| at L/eps = 4: the radius-4 polynomial the network below samples.
        Experiment("approx_trig", {"d": 2, "L": 1.0, "epsilon": 0.25, "target": "abs",
                                   "mode": "reflect"}),
        Experiment(SAN, {"r": 4096, "k": 4.0, "d": 2, "seed": _seed(rngs[1])}),
        Experiment("mixture_check", {"d": 2, "k": 2, "rho": 0.5, "z_count": 9}),
    ]


def _construct_warmup() -> list[Experiment]:
    return [
        Experiment("hermite_check", {"d": 1, "L": 1.0, "epsilon": 1.0, "target": "abs"}),
        Experiment("approx_sobolev", {"d": 1, "s": 1, "gamma": 10.0, "epsilon": 2.0,
                                      "target": _trig_target(_BASE_1D)}),
        Experiment("approx_trig", {"d": 1, "L": 1.0, "epsilon": 0.5, "target": "abs",
                                   "mode": "reflect"}),
        Experiment(SAN, {"r": 2, "k": 2.0, "d": 1, "seed": 0}),
        Experiment("mixture_check", {"d": 1, "k": 1, "z_count": 2}),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fit_sweep",
        why="Monte Carlo fits over random ReLU spans: per-feature sampling and many small "
            "solves whose design matrix fits in L2",
        make_round=_fit_sweep_round, warmup=_fit_sweep_warmup, trace_rounds=8),
    Workload(
        name="lower_bound",
        why="projection lower bounds: tall multi-RHS solves past L2 and the family "
            "re-evaluated on every trial, with negligible sampling",
        make_round=_lower_bound_round, warmup=_lower_bound_warmup, trace_rounds=8),
    Workload(
        name="construct",
        why="the constructive pipeline with no least squares: truncation, then scalar "
            "Python in the ReLU mixture, importance weights and lattice rays",
        make_round=_construct_round, warmup=_construct_warmup, trace_rounds=5),
)}
