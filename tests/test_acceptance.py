"""Release gate: eleven end-to-end checks, one test per criterion.

Each check pins its tolerance and prints one ``ACCEPTANCE nn <name>: PASS``
line (visible with ``pytest -rA`` or ``-s``).  Cross-checks use the
independent computations in :mod:`oracles` (convolution counts, adaptive
quadrature, numpy's ``hermite_e``) rather than the library's own algorithms
wherever the quantity admits a second route.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from numpy.testing import assert_allclose

from widthlab import (
    DkDistribution,
    HermitePolynomial,
    TrigPolynomial,
    count_ball,
    c_ks,
    enumerate_ball,
    eval_T,
    explicit_hard_function,
    h_univariate,
    h_weight,
    hard_family_symmetric,
    hermite_truncate,
    H_multivariate,
    partial_derivative,
    projection_residuals,
    psi_K,
    ray_members,
    reflect_and_truncate,
    sample_average_network,
    sobolev_norm_from_coeffs,
    success_probability,
    tensor_gauss_grid,
    term_by_term_coeffs,
    truncate_periodic,
    unit_direction,
)
from widthlab.cli import run_config
from widthlab.quadrature import GAUSSIAN, UNIFORM_CUBE

from oracles import brute_counts, dk_expectation, mixture_quad

SQRT2 = math.sqrt(2.0)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_trig_orthonormality():
    """Gram matrices of the degree-3 basis slice are the identity to 1e-9.

    All pairs K, K' with ||K||_2 <= 3 in d = 1, 2, 3 on a 24-point tensor
    Gauss grid; must finish inside a minute.
    """
    start = time.perf_counter()
    for d in (1, 2, 3):
        grid = tensor_gauss_grid(UNIFORM_CUBE, d, 24)
        ball = enumerate_ball(3, d)
        values = np.column_stack([eval_T(K, grid.nodes) for K in ball])
        gram = values.T @ (grid.weights[:, None] * values)
        deviation = np.max(np.abs(gram - np.eye(len(ball))))
        assert deviation <= 1e-9, (d, deviation)
    assert time.perf_counter() - start < 60.0
    _passed(1, "trig orthonormality")


def test_criterion_02_lattice_counts():
    """count_ball equals the exhaustive convolution count for d <= 6, k <= 5,
    and is monotone in both arguments."""
    brute = brute_counts(5, 6)
    for d in range(1, 7):
        for k in range(0, 6):
            assert count_ball(k, d) == brute[(k, d)], (k, d)
    for d in range(1, 7):
        for k in range(0, 5):
            assert count_ball(k, d) <= count_ball(k + 1, d)
    for d in range(1, 6):
        for k in range(0, 6):
            assert count_ball(k, d) <= count_ball(k, d + 1)
    _passed(2, "lattice counts")


def test_criterion_03_mixture_exactness():
    """E_b[psi_K(b) relu(<w_K, x> - b)] reproduces T_K(rho x) to 1e-6.

    Every index with ||K||_2 <= 3 for d <= 3 and both scales rho in
    {1/2, 1}; the expectation side is scipy's adaptive quadrature from the
    oracle module, not the library's fixed Gauss rule.
    """
    points_per_dim = {1: 21, 2: 5, 3: 3}
    worst = 0.0
    for d in (1, 2, 3):
        axis = np.linspace(-1.0, 1.0, points_per_dim[d])
        pts = np.array(list(itertools.product(axis, repeat=d)))
        for K in enumerate_ball(3, d):
            w = unit_direction(K, d)
            z_values = pts @ w
            for rho in (0.5, 1.0):
                targets = np.atleast_1d(eval_T(K, rho * pts))
                got = mixture_quad(lambda b: psi_K(K, rho, d, b), d, z_values)
                worst = max(worst, float(np.max(np.abs(got - targets))))
    assert worst <= 1e-6, worst
    _passed(3, "relu mixture exactness")


def test_criterion_04_h_weight_reconstruction():
    """Importance-weighted feature expectation under D_2 returns P(x) to 1e-5.

    Random sparse P supported on the radius-2 ball in d = 2; the expectation
    is computed semi-analytically per lattice ray by the oracle.
    """
    d, k = 2, 2.0
    rng = np.random.default_rng(42)
    ball = enumerate_ball(k, d)
    chosen = rng.choice(len(ball), size=5, replace=False)
    P = TrigPolynomial({ball[i]: float(rng.normal()) for i in chosen}, dimension=d)

    directions = {}
    for K in ball:
        directions[tuple(np.round(unit_direction(K, d), 12))] = None
    rays = []
    for key in directions:
        w = np.array(key)
        rays.append((w, len(ray_members(w, k, d))))
    assert sum(count for _, count in rays) == count_ball(k, d)

    points = rng.uniform(-1.0, 1.0, size=(50, d))
    worst = 0.0
    for x in points:
        expected = float(P.evaluate(x))
        got = dk_expectation(lambda b, w: h_weight(b, w, P, k, d), rays,
                             count_ball(k, d), d, x)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-5, worst
    _passed(4, "h-weight reconstruction")


def test_criterion_05_concentration_rate():
    """Sample-average networks lose error like 1/sqrt(r).

    For a fixed P at d = 2, k = 2 over 20 seeds, the median error at
    r = 4096 must land within factor 1.5 of half the median at r = 1024,
    and no drawn feature weight may exceed 360 d beta_bar k^2 Q_{k,d}.
    """
    P = TrigPolynomial({(1, 0): 0.8, (0, -1): -0.5, (1, 1): 0.3, (-1, 1): 0.4},
                       dimension=2)
    dist = DkDistribution(k=2.0, dimension=2)
    grid = tensor_gauss_grid(UNIFORM_CUBE, 2, 24)
    beta_bar = max(abs(b) for b in P.terms.values())
    weight_cap = 360.0 * 2 * beta_bar * 2.0**2 * count_ball(2, 2)

    errors = {1024: [], 4096: []}
    for s in range(20):
        for r in (1024, 4096):
            net = sample_average_network(P, r, dist, [11, s], grid)
            errors[r].append(net.l2_error)
            assert float(np.max(np.abs(net.coefficients))) * r <= weight_cap
    ratio = float(np.median(errors[1024])) / float(np.median(errors[4096]))
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5, ratio
    _passed(5, "concentration rate")


def test_criterion_06_truncation_guarantees():
    """Truncation residuals are honest.

    For a target with a known expansion the squared residual equals the
    Parseval tail of the dropped terms to 1e-9; for |x| at L = 1,
    eps = 0.25 the measured residual respects the advertised budget.
    """
    grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 48)
    target = TrigPolynomial({(1,): 0.6, (3,): 0.3, (5,): 0.2}, dimension=1)
    # L/(2 eps) = 4 keeps (1,) and (3,) and drops exactly the (5,) term.
    report = truncate_periodic(target.evaluate, 12.0, 1.5, grid)
    assert report.degree_radius == pytest.approx(4.0)
    assert abs(report.residual_estimate**2 - 0.2**2) <= 1e-9
    assert report.polynomial.terms[(1,)] == pytest.approx(0.6, abs=1e-9)
    assert report.polynomial.terms[(3,)] == pytest.approx(0.3, abs=1e-9)

    kink = reflect_and_truncate(lambda X: np.abs(X[:, 0]), 1.0, 0.25, grid)
    assert kink.residual_estimate <= 0.25
    _passed(6, "truncation guarantees")


def test_criterion_07_sobolev_identity():
    """Coefficient-side Sobolev norms agree with derivative quadrature.

    For random polynomials of degree <= 3 (s <= 2, d <= 2) the closed-form
    sum over c_{K,s} matches summing grid norms of every derivative
    polynomial to 1e-8, and c_{K,s} >= (pi^2 ||K||^2 / s)^s on 1000 random
    index/order pairs.
    """
    rng = np.random.default_rng(7)
    for d in (1, 2):
        grid = tensor_gauss_grid(UNIFORM_CUBE, d, 32)
        ball = enumerate_ball(3, d)
        for s in (1, 2):
            chosen = rng.choice(len(ball), size=6, replace=False)
            poly = TrigPolynomial({ball[i]: float(rng.normal()) for i in chosen},
                                  dimension=d)
            total_sq = 0.0
            for M in itertools.product(range(s + 1), repeat=d):
                if sum(M) > s:
                    continue
                derived: dict = {}
                for K, beta in poly.terms.items():
                    coeff, shifted = partial_derivative(K, M)
                    if coeff != 0.0:
                        derived[shifted] = derived.get(shifted, 0.0) + beta * coeff
                vals = TrigPolynomial(derived, dimension=d).evaluate(grid.nodes)
                total_sq += float(np.sum(grid.weights * vals**2))
            assert_allclose(sobolev_norm_from_coeffs(poly, s), math.sqrt(total_sq),
                            rtol=1e-8)

    for _ in range(1000):
        d = int(rng.integers(1, 5))
        s = int(rng.integers(1, 5))
        K = tuple(int(c) for c in rng.integers(-6, 7, size=d))
        floor = (math.pi**2 * sum(c * c for c in K) / s) ** s
        assert c_ks(K, s) >= floor * (1.0 - 1e-12)
    _passed(7, "sobolev identity")


def test_criterion_08_projection_lower_bound():
    """Random spans cannot capture a symmetric orthonormal family.

    d = 4, the six functions sqrt(2) sin(pi(x_i + x_j)), 200 trials of
    D_2 features for each r in {1, 2, 3}: the trial-mean of the mean
    residual stays above 1 - r/6 - 0.02, and no two members have
    statistically distinguishable residual means at 3 sigma.  Budget:
    five minutes.
    """
    start = time.perf_counter()
    family = hard_family_symmetric(2, 4)
    grid = tensor_gauss_grid(UNIFORM_CUBE, 4, 12)
    dist = DkDistribution(k=2.0, dimension=4)
    trials = 200
    for r in (1, 2, 3):
        per_member = np.zeros((trials, len(family)))
        for t in range(trials):
            rng = np.random.default_rng([23, r, t])
            features = [dist.sample_feature(rng) for _ in range(r)]
            per_member[t] = projection_residuals(features, family, grid).residuals
        assert float(np.mean(per_member)) >= 1.0 - r / 6.0 - 0.02
        means = per_member.mean(axis=0)
        errors = per_member.std(axis=0, ddof=1) / math.sqrt(trials)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                gap = abs(means[i] - means[j])
                assert gap <= 3.0 * math.hypot(errors[i], errors[j]), (r, i, j)
    assert time.perf_counter() - start < 300.0
    _passed(8, "projection lower bound")


def test_criterion_09_explicit_hard_function():
    """4 sqrt(2) eps sin(pi(x1 + x2)) defeats single random features at d=4.

    With eps = 0.1 and 200 trials the Wilson upper confidence limit on the
    success probability at r = 1 stays below 1/2 -- consistent with a
    minimum width of C(4,2)/4 = 1.5 > 1 -- and the sampled Lipschitz
    quotient never exceeds 4 pi eps sqrt(2*2).
    """
    epsilon, d = 0.1, 4
    hard = explicit_hard_function(epsilon, 2, d)
    grid = tensor_gauss_grid(UNIFORM_CUBE, d, 12)
    dist = DkDistribution(k=2.0, dimension=d)
    estimate = success_probability(hard, epsilon, dist, r=1, trials=200,
                                   grid=grid, seed=[31])
    assert estimate.ci_hi < 0.5, estimate

    assert hard.lip_bound == pytest.approx(4.0 * math.pi * epsilon * 2.0)
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, size=(4000, d))
    y = rng.uniform(-1.0, 1.0, size=(4000, d))
    quotients = np.abs(hard.evaluate(x) - hard.evaluate(y)) / np.linalg.norm(
        x - y, axis=1)
    assert float(np.max(quotients)) <= hard.lip_bound + 1e-9
    _passed(9, "explicit hard function")


def test_criterion_10_hermite_suite():
    """The Gaussian-space analogue holds end to end.

    Orthonormality to 1e-8 for total degree <= 8 up to d = 3; recurrence
    and derivative identities against numpy's hermite_e to 1e-9; quadrature
    coefficients of H_(3,1) and of its x0-derivative match the index
    algebra to 1e-8; truncation recovers in-budget members exactly and
    reports residual 1 for just-out-of-budget ones.
    """
    for d, nodes in ((1, 40), (2, 40), (3, 30)):
        grid = tensor_gauss_grid(GAUSSIAN, d, nodes)
        indices = [M for M in itertools.product(range(9), repeat=d) if sum(M) <= 8]
        values = np.column_stack([H_multivariate(M, grid.nodes) for M in indices])
        gram = values.T @ (grid.weights[:, None] * values)
        assert np.max(np.abs(gram - np.eye(len(indices)))) <= 1e-8, d

    z = np.linspace(-4.0, 4.0, 33)
    for n in range(1, 26):
        scale = math.sqrt(math.factorial(n))
        reference = hermite_e.hermeval(z, [0.0] * n + [1.0]) / scale
        assert np.max(np.abs(h_univariate(n, z) - reference)) <= 1e-9
        derivative = hermite_e.hermeval(z, hermite_e.hermeder([0.0] * n + [1.0])) / scale
        assert np.max(np.abs(math.sqrt(n) * h_univariate(n - 1, z) - derivative)) <= 1e-9
        recurrence = (z * h_univariate(n, z) - math.sqrt(n) * h_univariate(n - 1, z))
        assert np.max(np.abs(math.sqrt(n + 1) * h_univariate(n + 1, z) - recurrence)) <= 1e-9

    grid2 = tensor_gauss_grid(GAUSSIAN, 2, 40)
    e3, e1 = [0.0, 0.0, 0.0, 1.0], [0.0, 1.0]
    f_vals = (hermite_e.hermeval(grid2.nodes[:, 0], e3) / math.sqrt(6.0)
              * hermite_e.hermeval(grid2.nodes[:, 1], e1))
    index_set = [M for M in itertools.product(range(7), repeat=2) if sum(M) <= 6]
    for M in index_set:
        coefficient = float(np.sum(grid2.weights * f_vals * H_multivariate(M, grid2.nodes)))
        assert abs(coefficient - (1.0 if M == (3, 1) else 0.0)) <= 1e-8, M

    symbolic = term_by_term_coeffs(HermitePolynomial({(3, 1): 1.0}), 0)
    df_vals = (hermite_e.hermeval(grid2.nodes[:, 0], hermite_e.hermeder(e3)) / math.sqrt(6.0)
               * hermite_e.hermeval(grid2.nodes[:, 1], e1))
    for M in index_set:
        coefficient = float(np.sum(grid2.weights * df_vals * H_multivariate(M, grid2.nodes)))
        assert abs(coefficient - symbolic.terms.get(M, 0.0)) <= 1e-8, M

    grid1 = tensor_gauss_grid(GAUSSIAN, 1, 40)
    inside = hermite_truncate(lambda X: h_univariate(2, X[:, 0]), 2.0, 1.0, grid1)
    assert inside.degree_budget == 4
    assert inside.polynomial.terms[(2,)] == pytest.approx(1.0, abs=1e-8)
    assert inside.residual_estimate <= 1e-8
    outside = hermite_truncate(lambda X: h_univariate(5, X[:, 0]), 2.0, 1.0, grid1)
    assert outside.residual_estimate == pytest.approx(1.0, abs=1e-8)
    assert outside.max_coefficient <= 1e-8
    _passed(10, "hermite suite")


def test_criterion_11_csv_determinism(tmp_path):
    """Every stochastic experiment kind reruns to byte-identical CSVs.

    Same config + seed twice for fit_curve, minwidth, lb_projection and
    lb_explicit.
    """
    trig_target = {"type": "trig_poly", "polynomial":
                   {"scale": 1.0, "terms": [{"K": [1], "beta": 0.7}]}}
    configs = {
        "fit_curve": {
            "kind": "fit_curve",
            "parameters": {"d": 1, "epsilon": 0.25, "trials": 12, "r_list": [1, 4],
                           "target": trig_target, "dist": {"kind": "dk", "k": 1},
                           "seed": 42},
            "output_path": "fit",
        },
        "minwidth": {
            "kind": "minwidth",
            "parameters": {"d": 1, "epsilon": 0.5, "delta": 0.25, "trials": 8,
                           "r_max": 16, "target": trig_target,
                           "dist": {"kind": "dk", "k": 1}, "seed": 42},
            "output_path": "mw",
        },
        "lb_projection": {
            "kind": "lb_projection",
            "parameters": {"d": 2, "ell": 1, "r_list": [0, 1], "trials": 6,
                           "seed": 3},
            "output_path": "lbp",
        },
        "lb_explicit": {
            "kind": "lb_explicit",
            "parameters": {"d": 4, "L": 18.0, "epsilon": 1.0, "trials": 6, "r": 1,
                           "seed": 11},
            "output_path": "lbe",
        },
    }

    def run(name, doc, label):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out_dir = tmp_path / f"{name}_{label}"
        code, _ = run_config(str(cfg), out_dir=str(out_dir))
        assert code == 0, (name, label)
        csvs = sorted(out_dir.glob("*.csv"))
        assert csvs, (name, label)
        return {p.name: p.read_bytes() for p in csvs}

    for name, doc in configs.items():
        assert run(name, doc, "a") == run(name, doc, "b"), name
    _passed(11, "csv determinism")
