import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from widthlab import (
    CapExceeded,
    DimensionMismatch,
    GAUSSIAN,
    MONTE_CARLO,
    Grid,
    QuadratureSpec,
    TENSOR_GAUSS,
    UNIFORM_CUBE,
    UnsupportedCombination,
    WeightsNotNormalized,
    WrongMeasure,
    eval_T,
    evaluate_on,
    l2_error,
    make_grid,
    tensor_gauss_grid,
    trig_coefficient,
)
from widthlab import quadrature
from widthlab.quadrature import _gauss_1d, along_axes, significant

from oracles import product_grid, sum_rounding


class TestTensorGauss:
    """Deterministic tensor-product rules for both measures."""

    def test_weights_sum_to_one(self):
        for measure in (UNIFORM_CUBE, GAUSSIAN):
            g = tensor_gauss_grid(measure, 2, 7)
            assert_allclose(np.sum(g.weights), 1.0, rtol=1e-14)

    def test_weights_off_one_raise_a_typed_error_under_optimization(self, monkeypatch):
        """The weight-sum check is a raise, not an assert, so ``python -O`` keeps it."""
        from widthlab import quadrature

        def skewed(measure, n):
            x, w = np.polynomial.legendre.leggauss(n)
            return x, w / 2.0 * 1.01

        monkeypatch.setattr(quadrature, "_gauss_1d", skewed)
        with pytest.raises(WeightsNotNormalized, match="sum to"):
            tensor_gauss_grid(UNIFORM_CUBE, 2, 5)
        code = ("import numpy as np; from widthlab import quadrature as q\n"
                "q._gauss_1d = lambda m, n: (np.zeros(n), np.full(n, 1.01 / n))\n"
                "try:\n    q.tensor_gauss_grid(q.UNIFORM_CUBE, 1, 4)\n"
                "except q.WeightsNotNormalized:\n    print('raised')\n")
        src = str(Path(quadrature.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "raised", out.stderr

    def test_two_point_gaussian_rule(self):
        """n = 2 Gauss-Hermite nodes for unit-variance weight are +-1."""
        g = tensor_gauss_grid(GAUSSIAN, 1, 2)
        assert_allclose(np.sort(g.nodes[:, 0]), [-1.0, 1.0], atol=1e-14)
        assert_allclose(g.weights, [0.5, 0.5], atol=1e-14)

    def test_gaussian_moments(self):
        """E[z^2] = 1, E[z^4] = 3 under the standard normal."""
        g = tensor_gauss_grid(GAUSSIAN, 1, 8)
        z = g.nodes[:, 0]
        assert_allclose(np.sum(g.weights * z**2), 1.0, rtol=1e-13)
        assert_allclose(np.sum(g.weights * z**4), 3.0, rtol=1e-13)

    def test_uniform_moments(self):
        """E[x^2] = 1/3 on [-1, 1]; odd moments vanish."""
        g = tensor_gauss_grid(UNIFORM_CUBE, 1, 8)
        x = g.nodes[:, 0]
        assert_allclose(np.sum(g.weights * x**2), 1.0 / 3.0, rtol=1e-13)
        assert_allclose(np.sum(g.weights * x**3), 0.0, atol=1e-15)

    def test_tensor_shape(self):
        g = tensor_gauss_grid(UNIFORM_CUBE, 3, 4)
        assert g.nodes.shape == (64, 3)
        assert g.weights.shape == (64,)
        assert g.dimension == 3

    def test_nodes_read_only(self):
        g = tensor_gauss_grid(UNIFORM_CUBE, 1, 4)
        with pytest.raises(ValueError):
            g.nodes[0, 0] = 0.0

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "1000")
        with pytest.raises(CapExceeded):
            tensor_gauss_grid(UNIFORM_CUBE, 6, 24)

    def test_cap_counts_every_coordinate(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "18")  # 3^2 nodes x 2 coordinates
        tensor_gauss_grid(UNIFORM_CUBE, 2, 3)
        monkeypatch.setenv("WIDTHLAB_CAP", "17")
        with pytest.raises(CapExceeded, match=r"tensor grid 3\^2 x 2 coordinates"):
            tensor_gauss_grid(UNIFORM_CUBE, 2, 3)

    def test_at_most_31_axes(self):
        """The nodes are laid out as an array of ``d + 1`` dimensions, and numpy
        1.24 allows 32."""
        assert tensor_gauss_grid(GAUSSIAN, 31, 1).nodes.shape == (1, 31)
        with pytest.raises(CapExceeded, match="tensor grid of 32 axes exceeds the d <= 31"):
            tensor_gauss_grid(GAUSSIAN, 32, 1)

    def test_unknown_measure(self):
        with pytest.raises(UnsupportedCombination):
            make_grid(QuadratureSpec(measure="lebesgue", scheme=TENSOR_GAUSS,
                                     dimension=1, nodes_per_dim=4))

    @pytest.mark.parametrize("measure", [UNIFORM_CUBE, GAUSSIAN])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_tensor_grids_keep_the_bits_of_the_meshgrid_construction(self, measure, d):
        """Nodes as the ``ij`` meshgrid stacks them, and weights multiplied in the
        meshgrid's order, axis 0 first; a uint64 view tells +0 from -0."""
        for n in (1, 2, 3, 5, {1: 24, 2: 12, 3: 8, 4: 6, 5: 4, 6: 3}[d]):
            grid = make_grid(QuadratureSpec(measure, TENSOR_GAUSS, d, nodes_per_dim=n))
            x, w = _gauss_1d(measure, n)
            nodes = np.stack([m.reshape(-1) for m in np.meshgrid(*[x] * d, indexing="ij")],
                             axis=-1)
            weights = np.ones(n**d)
            for wm in np.meshgrid(*[w] * d, indexing="ij"):
                weights = weights * wm.reshape(-1)
            assert np.array_equal(grid.nodes.view(np.uint64), nodes.view(np.uint64)), n
            assert np.array_equal(grid.weights.view(np.uint64), weights.view(np.uint64)), n
            assert grid.nodes.flags.c_contiguous and grid.weights.flags.c_contiguous


class TestAxes:
    """The 1-D factors of a product grid, read from its nodes."""

    @pytest.mark.parametrize("measure, d, nodes_per_dim", [
        (UNIFORM_CUBE, 1, 7), (UNIFORM_CUBE, 2, 1), (UNIFORM_CUBE, 3, 5),
        (UNIFORM_CUBE, 4, 4), (GAUSSIAN, 2, 40), (GAUSSIAN, 3, 6),
    ])
    def test_tensor_grid_is_the_product_of_its_axes(self, measure, d, nodes_per_dim):
        grid = tensor_gauss_grid(measure, d, nodes_per_dim)
        first = np.unique(grid.nodes[:, 0])
        assert len(grid.axes) == d
        for axis in grid.axes:
            assert np.array_equal(axis, first)
            assert not axis.flags.writeable
        assert np.array_equal(product_grid(grid.axes).nodes, grid.nodes)

    def test_axes_of_unequal_lengths_and_a_single_node(self):
        axes = (np.array([-0.5, 0.25, 0.75]), np.array([0.125]), np.linspace(-1.0, 1.0, 4))
        found = product_grid(axes).axes
        assert [a.tolist() for a in found] == [a.tolist() for a in axes]

    def test_monte_carlo_grid_has_none(self):
        grid = make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 2, sample_count=100,
                                        seed=5))
        assert grid.axes is None

    def test_permuted_product_nodes_have_none(self):
        tensor = tensor_gauss_grid(UNIFORM_CUBE, 2, 5)
        order = np.random.default_rng(0).permutation(25)
        grid = Grid(spec=tensor.spec, nodes=tensor.nodes[order], weights=tensor.weights[order])
        assert grid.axes is None

    def test_one_dimensional_monte_carlo_grid_is_its_own_axis(self):
        grid = make_grid(QuadratureSpec(GAUSSIAN, MONTE_CARLO, 1, sample_count=50, seed=3))
        (axis,) = grid.axes
        assert np.array_equal(axis, grid.nodes[:, 0])

    def test_along_axes_is_the_sum_over_every_node(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(3, 4, 5))
        tables = [rng.normal(size=(2, 3)), rng.normal(size=(6, 4)), rng.normal(size=(1, 5))]
        expected = np.einsum("abc,ia,jb,kc->ijk", values, *tables)
        magnitude = np.einsum("abc,ia,jb,kc->ijk", np.abs(values), *map(np.abs, tables))
        # each entry sums 60 products of 4 factors: at most 60 + 3 roundings in each route
        slack = 2 * (values.size + 3) * np.finfo(float).eps * magnitude
        assert np.all(np.abs(along_axes(values, tables) - expected) <= slack)


class TestGaussRules:
    """The 1-D rules behind tensor grids are built once per measure and size."""

    def test_a_second_grid_reuses_its_rule(self, monkeypatch):
        specs = [QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 1, nodes_per_dim=13),
                 QuadratureSpec(GAUSSIAN, TENSOR_GAUSS, 2, nodes_per_dim=13)]
        first = [make_grid(spec) for spec in specs]
        x, w = np.polynomial.legendre.leggauss(13)
        assert np.array_equal(first[0].nodes[:, 0], x)
        assert np.array_equal(first[0].weights, w / 2.0)

        def rebuilt(n):
            raise AssertionError("the Gauss rule was rebuilt")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", rebuilt)
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", rebuilt)
        for spec, grid in zip(specs, first):
            again = make_grid(spec)
            assert np.array_equal(again.nodes, grid.nodes)
            assert np.array_equal(again.weights, grid.weights)
        for measure in (UNIFORM_CUBE, GAUSSIAN):
            assert not any(a.flags.writeable for a in _gauss_1d(measure, 13))


@pytest.fixture
def memo(monkeypatch):
    """A fresh process memo of the default budget, so no earlier build is served."""
    fresh = quadrature._Memo(quadrature._MEMO_BYTES)
    monkeypatch.setattr(quadrature, "_MEMO", fresh)
    return fresh


class TestGridMemo:
    """Equal specs share one read-only grid while the byte-bounded process memo keeps it;
    the checks of every call come first."""

    @pytest.mark.parametrize("spec", [
        QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 3, nodes_per_dim=6),
        QuadratureSpec(GAUSSIAN, MONTE_CARLO, 2, sample_count=50, seed=(4, 10007)),
        QuadratureSpec(GAUSSIAN, MONTE_CARLO, 1, sample_count=50, seed=3),
    ], ids=["tensor", "monte_carlo", "monte_carlo_1d"])
    def test_equal_specs_share_one_read_only_grid(self, memo, spec):
        grid = make_grid(spec)
        assert make_grid(dataclasses.replace(spec)) is grid
        columns = grid.column_major_nodes
        assert columns.flags.f_contiguous and np.array_equal(columns, grid.nodes)
        assert grid.column_major_nodes is columns
        for array in (grid.nodes, grid.weights, columns, *(grid.axes or ())):
            assert not array.flags.writeable
        assert list(memo.entries) == [("grid", spec, *(part.tobytes() for part in (
            _gauss_1d(spec.measure, spec.nodes_per_dim) if spec.nodes_per_dim else ())))]
        assert memo.used == quadrature._grid_bytes(grid) <= memo.budget

    def test_column_major_nodes_leave_a_hand_built_grid_writable(self):
        nodes = np.linspace(-1.0, 1.0, 5)[:, None]
        grid = Grid(spec=QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 1, sample_count=5, seed=0),
                    nodes=nodes, weights=np.full(5, 0.2))
        assert not grid.column_major_nodes.flags.writeable
        assert nodes.flags.writeable

    def test_a_grid_past_the_budget_is_not_kept(self, monkeypatch):
        spec = QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 2, nodes_per_dim=12)
        grid = make_grid(spec)
        held = 2 * grid.nodes.nbytes + grid.weights.nbytes  # with the column-major copy
        small = quadrature._Memo(held - 1)
        monkeypatch.setattr(quadrature, "_MEMO", small)
        first = make_grid(spec)
        assert np.array_equal(first.nodes, grid.nodes)
        assert make_grid(spec) is not first
        assert small.used == 0 and not small.entries

    def test_the_least_recently_used_grid_goes_first(self, monkeypatch):
        """Three grids of 144 nodes in 2-D hold equal bytes, and the budget keeps two."""
        a, b, c = (QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 2, nodes_per_dim=12),
                   QuadratureSpec(GAUSSIAN, TENSOR_GAUSS, 2, nodes_per_dim=12),
                   QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 2, sample_count=144, seed=1))
        size = quadrature._grid_bytes(make_grid(a))
        memo = quadrature._Memo(2 * size)
        monkeypatch.setattr(quadrature, "_MEMO", memo)
        kept_a, kept_b = make_grid(a), make_grid(b)
        assert make_grid(a) is kept_a  # a is now the more recent
        kept_c = make_grid(c)
        assert memo.used == 2 * size
        assert make_grid(a) is kept_a and make_grid(c) is kept_c
        assert make_grid(b) is not kept_b

    def test_threads_keep_the_byte_count(self):
        """Gets and puts from more threads than cores, switching often: the bytes counted
        are those of the entries kept, and never past the budget."""
        memo = quadrature._Memo(1000)

        def work(seed):
            for key in np.random.default_rng(seed).integers(50, size=2000).tolist():
                if memo.get(key) is None:
                    memo.put(key, str(key), 10 + 7 * key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert memo.used == sum(size for _, size in memo.entries.values()) <= memo.budget
        assert all(value == str(key) for key, (value, _) in memo.entries.items())

    def test_a_lowered_cap_still_refuses_a_kept_grid(self, memo, monkeypatch):
        specs = [QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 2, nodes_per_dim=3),
                 QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 2, sample_count=9, seed=1)]
        monkeypatch.setenv("WIDTHLAB_CAP", "18")  # 9 nodes x 2 coordinates
        grids = [make_grid(spec) for spec in specs]
        monkeypatch.setenv("WIDTHLAB_CAP", "17")
        for spec in specs:
            with pytest.raises(CapExceeded, match="x 2 coordinates exceeds the cap 17"):
                make_grid(spec)
        monkeypatch.setenv("WIDTHLAB_CAP", "18")
        assert [make_grid(spec) for spec in specs] == grids

    def test_a_patched_rule_is_never_served_a_kept_grid(self, memo, monkeypatch):
        """A tensor grid is keyed by its Gauss rule, so a call that builds from another
        rule builds its own grid."""
        spec = QuadratureSpec(UNIFORM_CUBE, TENSOR_GAUSS, 2, nodes_per_dim=5)
        grid = make_grid(spec)

        def skewed(measure, n):
            x, w = _gauss_1d(measure, n)
            return x, w * 1.01

        def halved(measure, n):
            x, w = _gauss_1d(measure, n)
            return x / 2.0, w

        monkeypatch.setattr(quadrature, "_gauss_1d", skewed)
        with pytest.raises(WeightsNotNormalized):
            make_grid(spec)
        monkeypatch.setattr(quadrature, "_gauss_1d", halved)
        assert np.array_equal(make_grid(spec).nodes, grid.nodes / 2.0)
        monkeypatch.setattr(quadrature, "_gauss_1d", _gauss_1d)
        assert make_grid(spec) is grid


class TestSignificant:
    """The first-order rounding bound of a quadrature sum, as the oracle states it."""

    @pytest.mark.parametrize("grid_name", ["tensor_2d", "monte_carlo_2d", "monte_carlo_1d"])
    def test_matches_the_oracle_bound(self, grid_name):
        grid = {"tensor_2d": tensor_gauss_grid(UNIFORM_CUBE, 2, 9),
                "monte_carlo_2d": make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 2,
                                                           sample_count=64, seed=1)),
                "monte_carlo_1d": make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 1,
                                                           sample_count=64, seed=1))}[grid_name]
        rng = np.random.default_rng(7)
        n = grid.nodes.shape[0]
        for scale in (1.0, 1e-13, 1e-14, 1e-15, 1e-16):
            products = rng.normal(size=n)
            products -= np.mean(products)  # a sum of rounding size
            products[0] += scale
            total = np.sum(products)
            bound = sum_rounding(grid.axes or (), products)
            assert significant(total, np.sum(np.abs(products)), grid) == (abs(total) > bound)
        assert not significant(0.0, 0.0, grid)
        assert significant(np.array([1.0, 1e-30]), np.array([1.0, 1.0]), grid).tolist() == [
            True, False]


class TestMonteCarlo:
    """Seeded uniform-weight sampling."""

    def test_requires_seed(self):
        spec = QuadratureSpec(measure=UNIFORM_CUBE, scheme=MONTE_CARLO,
                              dimension=2, sample_count=100)
        with pytest.raises(UnsupportedCombination):
            make_grid(spec)

    def test_cap_counts_every_coordinate(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "1000")
        make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 10, sample_count=100, seed=0))
        with pytest.raises(CapExceeded, match="100 samples x 11 coordinates"):
            make_grid(QuadratureSpec(UNIFORM_CUBE, MONTE_CARLO, 11, sample_count=100, seed=0))

    def test_reproducible(self):
        spec = QuadratureSpec(measure=UNIFORM_CUBE, scheme=MONTE_CARLO,
                              dimension=2, sample_count=100, seed=7)
        a, b = make_grid(spec), make_grid(spec)
        assert_allclose(a.nodes, b.nodes)
        assert a.spec.label() == b.spec.label()

    def test_equal_weights(self):
        spec = QuadratureSpec(measure=GAUSSIAN, scheme=MONTE_CARLO,
                              dimension=1, sample_count=50, seed=3)
        g = make_grid(spec)
        assert_allclose(g.weights, np.full(50, 1 / 50))

    def test_measure_respected(self):
        """Uniform samples stay in the cube; Gaussian samples do not."""
        u = make_grid(QuadratureSpec(measure=UNIFORM_CUBE, scheme=MONTE_CARLO,
                                     dimension=2, sample_count=400, seed=1))
        assert np.max(np.abs(u.nodes)) <= 1.0
        z = make_grid(QuadratureSpec(measure=GAUSSIAN, scheme=MONTE_CARLO,
                                     dimension=2, sample_count=400, seed=1))
        assert np.max(np.abs(z.nodes)) > 1.0


class TestFunctionals:
    """Inner products, norms, and coefficient extraction."""

    def test_evaluate_on_scalar_fallback(self, cube_grid_1d):
        """Row-by-row fallback agrees with the vectorized convention."""

        def scalar_only(p):
            (x,) = p  # rejects a whole (n, d) batch at once
            return x ** 2

        vectorized = evaluate_on(lambda X: X[:, 0] ** 2, cube_grid_1d.nodes)
        scalar = evaluate_on(scalar_only, cube_grid_1d.nodes)
        assert_allclose(scalar, vectorized, rtol=1e-15)

    def test_evaluate_on_propagates_a_bug_in_a_vectorized_callable(self, cube_grid_1d):
        """An error no scalar-only callable raises on a batch is not retried row by row."""
        calls = []

        def buggy(X):
            calls.append(X.shape)
            return {"wrong": X[:, 0]}["key"]

        with pytest.raises(KeyError):
            evaluate_on(buggy, cube_grid_1d.nodes)
        assert calls == [cube_grid_1d.nodes.shape]

    def test_evaluate_on_constant_callable(self, cube_grid_1d):
        vals = evaluate_on(lambda p: 3.0, cube_grid_1d.nodes)
        assert_allclose(vals, np.full(cube_grid_1d.nodes.shape[0], 3.0))

    def test_l2_norm_constant(self, cube_grid_2d):
        assert_allclose(cube_grid_2d.norm(np.full(cube_grid_2d.nodes.shape[0], 2.0)), 2.0,
                        rtol=1e-14)

    def test_l2_error_zero_on_identical(self, cube_grid_1d):
        f = lambda X: np.sin(X[:, 0])
        assert l2_error(f, f, cube_grid_1d) <= 1e-15

    def test_l2_error_pythagoras(self, cube_grid_1d):
        """||f - 0|| equals the norm of f."""
        f = lambda X: 1.0 + X[:, 0]
        zero = lambda X: np.zeros(X.shape[0])
        assert_allclose(l2_error(f, zero, cube_grid_1d),
                        cube_grid_1d.norm(evaluate_on(f, cube_grid_1d.nodes)), rtol=1e-14)

    def test_trig_coefficient_of_identity(self, cube_grid_1d):
        """<x, T_1> = sqrt(2)/pi on [-1, 1]."""
        got = trig_coefficient(lambda X: X[:, 0], (1,), cube_grid_1d)
        assert_allclose(got, math.sqrt(2.0) / math.pi, rtol=1e-12)
        # the projection onto the cosine partner vanishes by parity
        odd = trig_coefficient(lambda X: X[:, 0], (-1,), cube_grid_1d)
        assert abs(odd) <= 1e-14

    def test_trig_coefficient_recovers_basis(self, cube_grid_2d):
        f = lambda X: np.asarray(eval_T((1, -1), X))
        assert_allclose(trig_coefficient(f, (1, -1), cube_grid_2d), 1.0, rtol=1e-12)
        assert abs(trig_coefficient(f, (0, 1), cube_grid_2d)) <= 1e-12

    def test_trig_coefficient_needs_uniform_measure(self, gauss_grid_1d):
        with pytest.raises(WrongMeasure):
            trig_coefficient(lambda X: X[:, 0], (1,), gauss_grid_1d)

    def test_trig_coefficient_dimension_check(self, cube_grid_2d):
        with pytest.raises(DimensionMismatch):
            trig_coefficient(lambda X: X[:, 0], (1,), cube_grid_2d)


class TestSpecLabels:
    """Grid identity strings used for cache keys and result metadata."""

    def test_label_mentions_shape(self):
        g = tensor_gauss_grid(UNIFORM_CUBE, 2, 5)
        assert "uniform_cube" in g.spec.label()
        assert "5" in g.spec.label() and "2" in g.spec.label()

    def test_monte_carlo_label_mentions_seed(self):
        g = make_grid(QuadratureSpec(measure=UNIFORM_CUBE, scheme=MONTE_CARLO,
                                     dimension=1, sample_count=10, seed=11))
        assert "seed" in g.spec.label() and "11" in g.spec.label()
