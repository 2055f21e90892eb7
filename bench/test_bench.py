"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, symmetric_image  # noqa: E402


def test_self_time_subtracts_the_union_of_overlapping_parallel_children():
    # Parent [0, 10]; two worker threads run children [1, 4] and [2, 6] at once,
    # then [8, 12] runs past the parent's end.  Child [1, 4] has a child [2, 3].
    spans = [
        (0, 1, None, 0.0, 10.0, None),
        (1, 2, 0, 1.0, 4.0, None),
        (2, 2, 0, 2.0, 6.0, None),
        (3, 2, 0, 8.0, 12.0, None),
        (4, 3, 1, 2.0, 3.0, None),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))  # union [1, 6] + [8, 10]
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert tracing.union_length([], 0.0, 1.0) == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_generates_identical_configs_and_fixed_sizes(name):
    workload = WORKLOADS[name]
    first = workload.make_round(7, 3)
    assert workload.make_round(7, 3) == first
    other = workload.make_round(8, 3)

    def sizes(exp):
        return {k: v for k, v in exp.parameters.items()
                if k not in ("seed", "target", "gamma", "epsilon")}

    assert [(e.kind, sizes(e)) for e in other] == [(e.kind, sizes(e)) for e in first]


def test_symmetric_image_is_the_polynomial_at_the_permuted_point():
    from widthlab import TrigPolynomial

    terms = {(1, 0, 0): 0.7, (0, 1, -1): -0.5, (-1, 1, 1): 0.4, (0, 0, 2): 0.3,
             (0, -2, 1): 0.2, (0, 0, 0): 0.1}
    perm, signs, flip = [2, 0, 1], [-1, 1, -1], -1.0
    image = TrigPolynomial(symmetric_image(terms, perm, signs, flip), dimension=3)
    base = TrigPolynomial(terms, dimension=3)
    x = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
    sx = np.empty_like(x)
    sx[:, perm] = x * signs
    np.testing.assert_allclose(image.evaluate(x), flip * base.evaluate(sx), atol=1e-12)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    printed = run.end_to_end([1.0, 2.0, 3.0], 6.0, [0.5], 10.0)
    assert list(printed) == [name for name, *_ in run.END_TO_END]

    layer = run.per_layer_specs(run.cli_kinds(WORKLOADS))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
    computed = tracing.layer_metrics(tracing.Tracer(), 1)
    assert set(computed) <= {name for name, *_ in layer}


def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(30)]
    assert run.tail(samples) == (19.0, pytest.approx(100 * 20 / 30))
    assert run.tail(samples[:10]) == (9.0, 100.0)


def _traced_fit(tracer):
    from widthlab import DkDistribution, cli, tensor_gauss_grid
    from widthlab.quadrature import UNIFORM_CUBE

    grid = tensor_gauss_grid(UNIFORM_CUBE, 1, 24)
    dist = DkDistribution(k=2.0, dimension=1)
    with tracer.experiment():
        # Through the CLI's own alias, with a worker pool.
        cli.success_probability(lambda X: np.abs(X[:, 0]), 0.2, dist, 4, 6, grid, [3],
                                threads=2)


def test_tracer_patches_aliases_attaches_workers_and_repeats_counts():
    from widthlab import cli, fitter, lowerbound, relu

    originals = (cli.success_probability, lowerbound._design_matrix,
                 relu.DkDistribution.sample_feature)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert lowerbound._design_matrix is fitter._design_matrix is not originals[1]
            _traced_fit(tracer)
        finally:
            tracer.uninstall()
        assert tracer.absent == []
        metrics = tracing.layer_metrics(tracer, 1)
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".self_s")})

        by_id = {span[0]: span for span in tracer.spans}
        success = tracer.names.index("fitter.success_probability")
        for name in ("fitter.design", "fitter.lstsq", "relu.sample_feature"):
            fid = tracer.names.index(name)
            parents = {by_id[s[2]][1] for s in tracer.spans if s[1] == fid}
            assert parents == {success}, name

    assert counts[0] == counts[1]
    assert counts[0]["fitter.success_probability.calls"] == 1
    assert counts[0]["fitter.lstsq.calls"] == 6
    assert counts[0]["fitter.features_fitted"] == 24
    assert counts[0]["relu.sample_feature.calls"] == 24
    assert (cli.success_probability, lowerbound._design_matrix,
            relu.DkDistribution.sample_feature) == originals


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("relu.renamed", "widthlab.relu", "no_such_function", None),
        ("gone.module", "widthlab.no_such_module", "f", None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["relu.renamed", "gone.module"]
