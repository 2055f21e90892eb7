import importlib.metadata
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import widthlab
from widthlab import (
    GAUSSIAN,
    TENSOR_GAUSS,
    UNIFORM_CUBE,
    CapExceeded,
    DkDistribution,
    InvalidCapSetting,
    ParameterOutOfRange,
    QuadratureSpec,
    active_cap,
    coherence,
    estimate_minwidth,
    gaussian_hard_family,
    hard_family_ball,
    hard_family_symmetric,
    make_grid,
    projection_residuals,
    reflect_and_truncate,
    tensor_gauss_grid,
)
from widthlab import cli, fitter, lowerbound, quadrature, relu
from widthlab.cli import emit_curve, main, run_config, validate_config


def read_curve(path):
    """The ``(x, y, ci_lo, ci_hi)`` rows of a curve CSV that ``emit_curve`` wrote."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,ci_lo,ci_hi", lines[:1]
    return [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _declared_console_script():
    """The ``widthlab`` value of ``[project.scripts]`` in the imported tree's pyproject."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(widthlab.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip(f"no pyproject.toml beside the imported package: {pyproject}")
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["widthlab"]


def _widthlab_installed():
    try:
        importlib.metadata.distribution("widthlab")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run(tmp_path, doc, out="out", **kwargs):
    cfg = _write_config(tmp_path, doc)
    out_dir = tmp_path / out
    code, result = run_config(cfg, out_dir=str(out_dir), **kwargs)
    return code, result, out_dir


class TestCurveFiles:
    """CSV emission and parsing."""

    def test_round_trip_preserves_17_digits(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        points = [(1.0, 1.0 / 3.0, 0.1 + 0.2, 0.96059601),
                  (2.0, math.pi, 0.0, 1.0)]
        emit_curve(points, path)
        back = read_curve(path)
        assert back == [tuple(float(v) for v in p) for p in points]

    def test_header_and_order(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        emit_curve([(2, 0.5, 0.4, 0.6), (1, 0.25, 0.2, 0.3)], path)
        text = (tmp_path / "curve.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "x,y,ci_lo,ci_hi"
        assert lines[1].startswith("2,")  # input order preserved
        assert text.endswith("\n")

    def test_empty_curve_rejected(self, tmp_path):
        with pytest.raises(ParameterOutOfRange):
            emit_curve([], str(tmp_path / "c.csv"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(FloatingPointError):
            emit_curve([(1.0, math.nan, 0.0, 1.0)], str(tmp_path / "c.csv"))


class TestCountLattice:
    def test_known_row(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "count_lattice",
            "parameters": {"k": 2, "d": 2},
            "output_path": "counts",
        })
        assert code == 0
        text = (out_dir / "counts_counts.csv").read_text()
        assert text.splitlines() == ["k,d,count", "2,2,13"]
        assert result["results"]["counts"][0]["count"] == 13

    def test_lists_cross_product(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "count_lattice",
            "parameters": {"k_list": [1, 2], "d_list": [1, 2]},
        })
        assert code == 0
        rows = (out_dir / "count_lattice_counts.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 4 combinations
        counts = {(c["k"], c["d"]): c["count"] for c in result["results"]["counts"]}
        assert counts[(2, 2)] == 13 and counts[(1, 1)] == 3

    def test_config_text_echoed_exactly(self, tmp_path):
        cfg_path = _write_config(tmp_path, {"kind": "count_lattice",
                                            "parameters": {"k": 1, "d": 1}})
        code, result = run_config(cfg_path, out_dir=str(tmp_path / "o"))
        assert code == 0
        with open(cfg_path, encoding="utf-8") as fh:
            assert result["config_text"] == fh.read()

    def test_result_file_written(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "count_lattice", "parameters": {"k": 1, "d": 1},
            "output_path": "c",
        })
        on_disk = json.loads((out_dir / "c_result.json").read_text())
        assert on_disk["results"] == result["results"]
        assert on_disk["csv_files"] == ["c_counts.csv"]
        assert "widthlab" in on_disk["versions"]


class TestApproxKinds:
    def test_trig_reflect_abs(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "approx_trig",
            "parameters": {"d": 1, "L": 1.0, "epsilon": 0.25, "target": "abs"},
            "output_path": "abs",
        })
        assert code == 0
        doc = result["results"]
        assert doc["degree_radius"] == 4.0
        assert doc["residual_estimate"] <= 0.25
        assert doc["orthant"] in ([1], [-1])
        header = (out_dir / "abs_coefficients.csv").read_text().splitlines()[0]
        assert header == "k1,beta"

    def test_result_file_is_compact_json(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "approx_trig",
            "parameters": {"d": 1, "L": 1.0, "epsilon": 0.25, "target": "abs"},
            "output_path": "abs",
        })
        assert code == 0
        text = (out_dir / "abs_result.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, separators=(",", ":")) + "\n"
        assert doc == json.loads(json.dumps(result))

    def test_trig_periodic_polynomial(self, tmp_path):
        poly = {"scale": 1.0, "terms": [{"K": [1], "beta": 0.7}]}
        code, result, _ = _run(tmp_path, {
            "kind": "approx_trig",
            "parameters": {"d": 1, "L": 8.0, "epsilon": 1.0, "mode": "periodic",
                           "target": {"type": "trig_poly", "polynomial": poly}},
        })
        assert code == 0
        assert result["results"]["residual_estimate"] <= 1e-9
        assert result["results"]["mode"] == "periodic"

    def test_periodic_ratio_rejected(self, tmp_path):
        code, result, _ = _run(tmp_path, {
            "kind": "approx_trig",
            "parameters": {"d": 1, "L": 1.0, "epsilon": 1.0, "mode": "periodic",
                           "target": "abs"},
        })
        assert code == 2 and result is None

    def test_sobolev_norm_reported(self, tmp_path):
        poly = {"scale": 1.0, "terms": [{"K": [1], "beta": 1.0}]}
        code, result, _ = _run(tmp_path, {
            "kind": "approx_sobolev",
            "parameters": {"d": 1, "s": 1, "gamma": 8.0, "epsilon": 1.0,
                           "f": {"type": "trig_poly", "polynomial": poly}},
        })
        assert code == 0
        doc = result["results"]
        assert doc["degree_radius"] == 4.0
        assert doc["residual_estimate"] <= 1e-9
        assert_allclose(doc["kept_sobolev_norm"], math.sqrt(1 + math.pi**2), rtol=1e-9)

    def test_hermite_check(self, tmp_path):
        poly = {"basis": "hermite", "terms": [{"K": [1], "beta": 1.0}]}
        code, result, out_dir = _run(tmp_path, {
            "kind": "hermite_check",
            "parameters": {"d": 1, "L": 2.0, "epsilon": 1.0,
                           "target": {"type": "hermite_poly", "polynomial": poly}},
            "output_path": "herm",
        })
        assert code == 0
        assert result["results"]["residual_estimate"] <= 1e-8
        assert result["results"]["degree_budget"] == 4
        lines = (out_dir / "herm_coefficients.csv").read_text().splitlines()
        assert lines[0] == "k1,beta"

    def test_mixture_check(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "mixture_check",
            "parameters": {"d": 1, "k": 1, "rho": 0.5, "z_count": 11},
            "output_path": "mix",
        })
        assert code == 0
        assert result["results"]["max_error"] <= 1e-10
        lines = (out_dir / "mix_mixture_errors.csv").read_text().splitlines()
        assert lines[0] == "k1,max_err"
        assert len(lines) == 4  # header + ball of radius 1 in d = 1


class TestStochasticKinds:
    def test_fit_curve_runs_and_is_deterministic(self, tmp_path):
        doc = {
            "kind": "fit_curve",
            "parameters": {"d": 1, "epsilon": 0.25, "trials": 12, "r_list": [1, 4],
                           "target": {"type": "trig_poly", "polynomial":
                                      {"scale": 1.0, "terms": [{"K": [1], "beta": 0.7}]}},
                           "dist": {"kind": "dk", "k": 1}, "seed": 42},
            "output_path": "fit",
        }
        code_a, _, out_a = _run(tmp_path, doc, out="a")
        code_b, _, out_b = _run(tmp_path, doc, out="b")
        assert code_a == 0 and code_b == 0
        bytes_a = (out_a / "fit_curve.csv").read_bytes()
        assert bytes_a == (out_b / "fit_curve.csv").read_bytes()
        rows = read_curve(str(out_a / "fit_curve.csv"))
        assert [r[0] for r in rows] == [1.0, 4.0]

    def test_seed_override_beats_config_seed(self, tmp_path):
        base = {
            "kind": "lb_projection",
            "parameters": {"d": 2, "k": 1, "r": 1, "trials": 2, "seed": 5},
            "output_path": "p",
        }
        _, res_override, out_o = _run(tmp_path, base, out="o", seed_override=9)
        direct = dict(base, parameters=dict(base["parameters"], seed=9))
        _, res_direct, out_d = _run(tmp_path, direct, out="d")
        assert res_override["seed"] == 9
        assert ((out_o / "p_r1_residuals.csv").read_bytes()
                == (out_d / "p_r1_residuals.csv").read_bytes())

    def test_different_seeds_differ(self, tmp_path):
        doc = {
            "kind": "lb_projection",
            "parameters": {"d": 2, "k": 1, "r": 1, "trials": 1, "seed": 5},
            "output_path": "p",
        }
        _, _, out_a = _run(tmp_path, doc, out="s5")
        doc2 = dict(doc, parameters=dict(doc["parameters"], seed=9))
        _, _, out_b = _run(tmp_path, doc2, out="s9")
        assert ((out_a / "p_r1_residuals.csv").read_bytes()
                != (out_b / "p_r1_residuals.csv").read_bytes())

    def test_missing_seed_is_config_error(self, tmp_path):
        code, result, _ = _run(tmp_path, {
            "kind": "fit_curve",
            "parameters": {"d": 1, "epsilon": 0.25, "r": 2, "target": "abs"},
        })
        assert code == 2 and result is None

    def test_minwidth_trivial_target(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "minwidth",
            "parameters": {"d": 1, "epsilon": 10.0, "delta": 0.25, "trials": 8,
                           "r_max": 16, "target": {"type": "trig_poly", "polynomial":
                                                   {"scale": 1.0, "terms": [{"K": [1], "beta": 0.7}]}},
                           "dist": {"kind": "dk", "k": 1}, "seed": 42},
            "output_path": "mw",
        })
        assert code == 0
        doc = result["results"]
        assert doc["r_hat"] == 1
        assert doc["success_prob_at_r_hat"] == 1.0
        rows = read_curve(str(out_dir / "mw_trace.csv"))
        assert rows[0][0] == 1.0 and rows[0][1] == 1.0

    def test_lb_projection_summary(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "lb_projection",
            "parameters": {"d": 2, "ell": 1, "r_list": [0, 1], "trials": 4, "seed": 3},
            "output_path": "proj",
        })
        assert code == 0
        doc = result["results"]
        assert doc["family"] == {"type": "symmetric", "ell": 1}
        assert doc["N"] == 2
        per_r = {entry["r"]: entry for entry in doc["per_r"]}
        assert_allclose(per_r[0]["mean_residual"], 1.0, atol=1e-10)
        assert per_r[0]["bound"] == 1.0
        assert per_r[1]["bound"] == 0.5  # 1 - r (1 + kappa) / N at r=1, N=2
        lines = (out_dir / "proj_r0_residuals.csv").read_text().splitlines()
        assert lines[0] == "trial,member,residual"
        assert len(lines) == 1 + 4 * 2  # trials x members

    def test_lb_projection_of_a_gaussian_family(self, tmp_path):
        """The packed ridge sines on the default Gaussian grid: the reported kappa is the
        family's coherence, the members have unit norm, no mean falls below its bound,
        and a rerun writes the same CSVs byte for byte."""
        doc = {"kind": "lb_projection",
               "parameters": {"d": 2, "family": {"type": "gaussian", "L": 2, "N": 5},
                              "r_list": [0, 2, 4], "trials": 3, "seed": 7},
               "output_path": "g"}
        runs = [_run(tmp_path, doc, out=f"out{i}") for i in range(2)]
        for code, _, _ in runs:
            assert code == 0
        results = runs[0][1]["results"]
        grid = make_grid(QuadratureSpec(GAUSSIAN, TENSOR_GAUSS, 2,
                                        nodes_per_dim=cli._DEFAULT_NODES[GAUSSIAN][2]))
        family = gaussian_hard_family(2.0, 5, 2, 7, grid)
        assert results["family"]["kappa"] == coherence(family, grid)
        out_dir = runs[0][2]
        r0 = (out_dir / "g_r0_residuals.csv").read_text().splitlines()[1:]
        assert len(r0) == 3 * 5
        assert_allclose([float(row.split(",")[2]) for row in r0], 1.0, rtol=0, atol=1e-12)
        for entry in results["per_r"]:
            assert entry["mean_residual"] >= entry["bound"] - 1e-12, entry["r"]
        for name in runs[0][1]["csv_files"]:
            assert (runs[1][2] / name).read_bytes() == (out_dir / name).read_bytes()

    def test_lb_explicit_from_lipschitz_budget(self, tmp_path):
        code, result, _ = _run(tmp_path, {
            "kind": "lb_explicit",
            "parameters": {"d": 4, "L": 18.0, "epsilon": 1.0, "trials": 4,
                           "r": 1, "seed": 11},
        })
        assert code == 0
        doc = result["results"]
        assert doc["ell"] == 1 and doc["family_size"] == 4
        assert doc["quarter_family"] == 1.0
        assert_allclose(doc["k_nonexplicit"], 1.0)
        assert_allclose(doc["lip_bound"], 4 * math.pi * math.sqrt(2.0), rtol=1e-12)

    def test_lb_explicit_degenerate_is_config_error(self, tmp_path):
        code, result, _ = _run(tmp_path, {
            "kind": "lb_explicit",
            "parameters": {"d": 4, "L": 1.0, "epsilon": 1.0, "trials": 2,
                           "r": 1, "seed": 11},
        })
        assert code == 2 and result is None


class TestTrialEngine:
    """``lb_projection`` draws and solves every trial through ``fitter.width_residuals``."""

    _DOC = {"kind": "lb_projection",
            "parameters": {"d": 3, "ell": 2, "r_list": [0, 1, 4], "trials": 3, "seed": 5,
                           "dist": {"k": 2}, "grid": {"nodes_per_dim": 8}},
            "output_path": "p"}

    @pytest.mark.parametrize("runs", [1, 2])
    def test_rows_match_projection_residuals(self, tmp_path, runs):
        # A second run in the same process must not see state left by the first.
        out_dirs = []
        for run in range(runs):
            code, _, out_dir = _run(tmp_path, self._DOC, out=f"out{run}")
            assert code == 0
            out_dirs.append(out_dir)
        grid = tensor_gauss_grid(UNIFORM_CUBE, 3, 8)
        family = hard_family_symmetric(2, 3)
        dist = DkDistribution(k=2, dimension=3)
        for out_dir, r in itertools.product(out_dirs, (0, 1, 4)):
            lines = (out_dir / f"p_r{r}_residuals.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == 3 * len(family)
            for t in range(3):
                rng = np.random.default_rng([5, t])
                W, b = dist.sample_batch(rng, r)
                expected = projection_residuals(W, b, family, grid).residuals
                mine = rows[t * len(family):(t + 1) * len(family)]
                assert [row[0] for row in mine] == [str(t)] * len(family)
                assert [row[1] for row in mine] == [" ".join(map(str, S)) for S in family.labels]
                got = [float(row[2]) for row in mine]
                if r in (0, 4):  # no span, or the width every trial is factored at
                    assert got == expected.tolist()
                else:  # a leading block of the widest factor: equal up to rounding
                    assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_dead_draws_report_the_r0_rows(self, tmp_path):
        """A trial whose feature is zero at every node reports the ``r = 0`` rows bit
        for bit: both read the one squared norm per member."""
        doc = {"kind": "lb_projection",
               "parameters": {"d": 3, "family": {"type": "ball", "k": 2}, "r_list": [0, 1],
                              "trials": 12, "seed": 5, "dist": {"k": 2},
                              "grid": {"nodes_per_dim": 8}},
               "output_path": "p"}
        code, _, out_dir = _run(tmp_path, doc)
        assert code == 0
        grid = tensor_gauss_grid(UNIFORM_CUBE, 3, 8)
        dist = DkDistribution(k=2, dimension=3)
        dead = [t for t in range(12)
                if not relu._live(*fitter._draw(dist, 1, 5, t), relu._reach(grid.nodes))[0]]
        assert 0 < len(dead) < 12
        rows = {r: (out_dir / f"p_r{r}_residuals.csv").read_text().splitlines()[1:]
                for r in (0, 1)}
        members = len(rows[0]) // 12
        for t in dead:
            block = slice(t * members, (t + 1) * members)
            assert rows[1][block] == rows[0][block], t

    def test_each_trial_is_drawn_once_per_run(self, tmp_path, monkeypatch):
        draws = []
        original = fitter._draw

        def counting(dist, w, seed, trial):
            draws.append((trial, w))
            return original(dist, w, seed, trial)

        monkeypatch.setattr(fitter, "_draw", counting)
        code, _, _ = _run(tmp_path, self._DOC)
        assert code == 0
        assert draws == [(0, 4), (1, 4), (2, 4)]
        draws.clear()
        code, _, _ = _run(tmp_path, _with(self._DOC, r_list=[0]), out="zero")
        assert code == 0
        assert draws == []

    def test_family_is_evaluated_once_per_run(self, tmp_path, monkeypatch):
        """With nothing kept yet, a run evaluates its family once, for its weighted
        form, and keeps only that form, with the bits of weighting its values."""
        memo = quadrature._Memo(quadrature._MEMO_BYTES)
        monkeypatch.setattr(quadrature, "_MEMO", memo)
        calls = []
        original = lowerbound._value_matrix

        def counting(family, grid):
            calls.append(len(family))
            return original(family, grid)

        monkeypatch.setattr(lowerbound, "_value_matrix", counting)
        code, _, _ = _run(tmp_path, self._DOC)
        assert code == 0
        assert calls == [3]
        kept = {key[0]: value for key, (value, _) in memo.entries.items()}
        assert sorted(kept) == ["ball", "grid", "weighted"]
        grid = kept["grid"]
        values = original(lowerbound.hard_family_symmetric(2, 3), grid)
        for got, want in zip(kept["weighted"], fitter._weighted(values, grid.weights)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_residual_exits_4_and_writes_nothing(self, tmp_path, monkeypatch,
                                                               capsys, value):
        """The residual CSVs are checked in one pass before any is written, so one
        non-finite residual anywhere exits 4 with one line and leaves no file."""
        original = cli.width_residuals

        def poisoned(*args):
            norms = original(*args)
            norms[2, -1, 1] = value  # the last trial, the last width
            return norms

        monkeypatch.setattr(cli, "width_residuals", poisoned)
        code, result, out_dir = _run(tmp_path, self._DOC)
        assert (code, result) == (4, None)
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: non-finite value in output"]
        assert list(out_dir.iterdir()) == []

    _MEMO_DOCS = {
        "p": {"kind": "lb_projection",
              "parameters": {"d": 3, "family": {"type": "ball", "k": 2}, "r_list": [1, 4],
                             "trials": 3, "seed": 5, "grid": {"nodes_per_dim": 8}},
              "output_path": "p"},
        "e": {"kind": "lb_explicit",
              "parameters": {"d": 3, "ell": 2, "epsilon": 0.1, "r_list": [1, 2], "trials": 4,
                             "seed": 5, "dist": {"k": 1}, "grid": {"nodes_per_dim": 8}},
              "output_path": "e"},
    }

    @pytest.mark.parametrize("budget", ["default", "none"])
    def test_a_memo_hit_keeps_the_bits_of_a_miss_and_of_a_fresh_process(self, tmp_path,
                                                                        monkeypatch, budget):
        """A second ``lb_projection`` and a second ``lb_explicit`` run in one process are
        served what the first built: the grid, the family's values and their weighted
        form, the hard function's weighted values and each D_k ball.  So they weight
        no target, evaluate none and enumerate no ball.  Their CSVs and results, the
        wall time aside, are the first runs' and those of runs in a new process, and
        so are those of runs whose memo keeps nothing."""
        size = quadrature._MEMO_BYTES if budget == "default" else 0
        monkeypatch.setattr(quadrature, "_MEMO", quadrature._Memo(size))
        builds = []

        def counted(name, build):
            def counting(*args):
                builds.append(name)
                return build(*args)
            return counting

        for module, name in ((quadrature, "_build_grid"), (lowerbound, "_basis_on_axes"),
                             (relu, "enumerate_ball"), (fitter, "_weighted"),
                             (lowerbound, "_weighted"), (lowerbound.HardFunction, "evaluate")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        runs = {}
        for prefix, doc in self._MEMO_DOCS.items():
            runs[prefix] = [_run(tmp_path, doc, out=f"{prefix}{i}") for i in range(2)]
        projection = ["_build_grid", "enumerate_ball", "_basis_on_axes", "_weighted"]
        explicit = ["evaluate", "_weighted", "enumerate_ball"]  # on the grid kept above
        if budget == "default":
            assert builds == projection + explicit
        else:  # every run builds all it reads
            assert builds == projection * 2 + (["_build_grid"] + explicit) * 2
        src = str(Path(widthlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for prefix, doc in self._MEMO_DOCS.items():
            cfg = _write_config(tmp_path, doc, name=f"fresh_{prefix}.json")
            fresh_dir = tmp_path / f"fresh_{prefix}"
            proc = subprocess.run([sys.executable, "-m", "widthlab.cli", "run", "--config", cfg,
                                   "--out-dir", str(fresh_dir)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            fresh = json.loads((fresh_dir / f"{prefix}_result.json").read_text())
            for code, result, out_dir in runs[prefix]:
                assert code == 0
                assert result["results"] == fresh["results"]
                assert result["csv_files"] == fresh["csv_files"]
                for name in fresh["csv_files"]:
                    assert (out_dir / name).read_bytes() == (fresh_dir / name).read_bytes()


class TestResultDocuments:
    """Results serialize from their fields: a dataclass is its fields in order, a
    polynomial its own document and a tuple a list."""

    def test_min_width_estimate_is_json_friendly(self, cube_grid_1d):
        est = estimate_minwidth(lambda X: np.zeros(X.shape[0]), 0.1, 0.1,
                                DkDistribution(k=1, dimension=1), cube_grid_1d,
                                trials=5, r_max=8, seed=42)
        doc = cli._jsonable(est)
        assert list(doc) == ["r_hat", "success_prob_at_r_hat", "trials", "epsilon", "delta",
                             "search_trace"]
        assert doc["search_trace"] == [list(step) for step in est.search_trace]
        assert all(isinstance(step, list) for step in doc["search_trace"])
        assert doc["r_hat"] == 1
        assert json.loads(json.dumps(doc)) == doc

    def test_a_report_keeps_its_polynomial_document_and_lists_its_orthant(self, cube_grid_1d):
        report = reflect_and_truncate(lambda X: np.abs(X[:, 0]), 1.0, 0.5, cube_grid_1d)
        doc = cli._jsonable(report)
        assert list(doc) == ["polynomial", "degree_radius", "residual_estimate",
                             "max_coefficient", "orthant"]
        assert doc["polynomial"] == report.polynomial.to_json_dict()
        assert doc["orthant"] == list(report.orthant)
        assert json.loads(json.dumps(doc)) == doc


class TestExitCodes:
    def test_unknown_kind(self, tmp_path):
        code, result, _ = _run(tmp_path, {"kind": "words", "parameters": {}})
        assert code == 2 and result is None

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, result = run_config(str(bad), out_dir=str(tmp_path / "o"))
        assert code == 2 and result is None

    def test_cap_exceeded_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "10")
        code, result, _ = _run(tmp_path, {
            "kind": "mixture_check",
            "parameters": {"d": 2, "k": 2, "rho": 0.5, "z_count": 5},
        })
        assert code == 3 and result is None

    def test_every_error_class_keeps_its_exit_code(self, capsys):
        """Each library error, and ``ConfigError``, reaches ``_report`` through one of
        three bases; a new class fails here until its code is pinned."""
        pinned = {
            "InvalidInput": (2, "error"), "ConfigError": (2, "error"),
            "ParameterOutOfRange": (2, "error"), "DimensionMismatch": (2, "error"),
            "WrongMeasure": (2, "error"), "UnsupportedCombination": (2, "error"),
            "ScaleNotUnit": (2, "error"), "NegativeIndex": (2, "error"),
            "InvalidCapSetting": (2, "error"),
            "CapExceeded": (3, "cap exceeded"), "DegreeCap": (3, "cap exceeded"),
            "NumericalFailure": (4, "numerical failure"),
            "PackingFailed": (4, "numerical failure"), "OutOfSupport": (4, "numerical failure"),
            "WeightNotInSupport": (4, "numerical failure"),
            "NotUnitNorm": (4, "numerical failure"),
            "WeightsNotNormalized": (4, "numerical failure"),
            "EmptyFeatureList": (4, "numerical failure"),
        }
        walk, classes = [widthlab.WidthlabError], []
        while walk:
            subclasses = walk.pop().__subclasses__()
            walk.extend(subclasses)
            classes.extend(subclasses)
        assert sorted(cls.__name__ for cls in classes) == sorted(pinned)
        for cls in classes:
            assert cli._report(cls("boom")) == pinned[cls.__name__][0], cls
            assert capsys.readouterr().err == f"{pinned[cls.__name__][1]}: boom\n"
        for cls in (np.linalg.LinAlgError, FloatingPointError, OverflowError, OSError):
            assert cli._report(cls("boom")) == 4, cls
            assert capsys.readouterr().err == "numerical failure: boom\n"

    def test_numerical_failure_is_exit_4(self, tmp_path):
        # a 1-dimensional sphere has one axial direction; packing 2 fails
        code, result, _ = _run(tmp_path, {
            "kind": "lb_projection",
            "parameters": {"d": 1, "family": {"type": "gaussian", "L": 2.0, "N": 2},
                           "r": 0, "trials": 1, "seed": 4},
        })
        assert code == 4 and result is None


_FIT = {"kind": "fit_curve",
        "parameters": {"d": 1, "epsilon": 0.25, "trials": 4, "r_list": [1, 2],
                       "target": "abs", "seed": 1}}
_TRIG = {"kind": "approx_trig",
         "parameters": {"d": 1, "L": 1.0, "epsilon": 0.25, "target": "abs"}}
_LBP = {"kind": "lb_projection",
        "parameters": {"d": 2, "ell": 1, "r": 1, "trials": 2, "seed": 3}}
_MIX = {"kind": "mixture_check", "parameters": {"d": 1, "k": 1}}
_EXPLICIT = {"kind": "lb_explicit",  # sized so that only the family size matters
             "parameters": {"epsilon": 0.1, "r": 1, "trials": 1, "seed": 1, "dist": {"k": 0.5},
                            "grid": {"scheme": "monte_carlo", "sample_count": 2}}}


# two trig terms of 1e308 each, whose sum overflows on the grid
_OVERFLOWING = {"type": "trig_poly", "polynomial": {"scale": 1.0, "terms": [
    {"K": [1], "beta": 1e308}, {"K": [-1], "beta": 1e308}]}}


def _with(base, **changes):
    return dict(base, parameters=dict(base["parameters"], **changes))


def _lbp_family(family, **changes):
    """``_LBP`` with ``family`` in place of the ``ell`` beside it, which no table would read."""
    params = {k: v for k, v in _LBP["parameters"].items() if k != "ell"}
    return dict(_LBP, parameters=dict(params, family=family, **changes))


def _both_commands(tmp_path, capsys, doc, text=None):
    """Exit codes and stderr of ``validate`` then ``run`` on one config."""
    cfg = tmp_path / "probe.json"
    cfg.write_text(text if text is not None else json.dumps(doc), encoding="utf-8")
    out = []
    for argv in (["validate", "--config", str(cfg)],
                 ["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]):
        code = main(argv)
        out.append((code, capsys.readouterr().err))
    return out


def _assert_one_line(err, prefix):
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith(prefix) and "Traceback" not in err, err


class TestConfigSchema:
    """``validate`` and ``run`` share one parse: same exit code, one stderr line."""

    @pytest.mark.parametrize("doc, text", [
        (_with(_FIT, seed="abc"), None),
        (None, json.dumps(_with(_FIT, seed="@")).replace('"@"', "1e400")),
        (_with(_FIT, d="x"), None),
        (_with(_TRIG, grid={"nodes_per_dim": "many"}), None),
        (_with(_TRIG, grid="x"), None),
        (_with(_TRIG, target={"type": "trig_poly", "polynomial": {"scale": 1.0}}), None),
        (_lbp_family({"type": "ball", "k": "x"}), None),
        (_with(_FIT, r_list=[1, "a"]), None),
        (_with(_TRIG, mode="zzz"), None),
        (_with(_FIT, trials=2.5), None),
        (_with(_FIT, dist={"k": "2"}), None),
        (_with(_TRIG, L=True), None),
        (_with(_FIT, seed=-1), None),
        (_with(_LBP, ell=3), None),
        (_with(_LBP, r_list=[1, 0, 1]), None),
        (_with(_FIT, r_list=[2, 2]), None),
        (_with(_EXPLICIT, d=2, ell=1, r_list=[1, 1]), None),
        (_with(_MIX, rho=1.5), None),
        ({"kind": ["fit_curve"], "parameters": {}}, None),
    ], ids=["seed_str", "seed_1e400", "d_str", "grid_nodes_str", "grid_str",
            "trig_poly_no_terms", "family_k_str", "r_list_str_entry", "mode_unknown",
            "trials_fractional", "dist_k_str", "L_bool", "seed_negative",
            "ell_over_d", "r_list_repeated_width", "fit_curve_repeated_width",
            "lb_explicit_repeated_width", "rho_over_1", "kind_list"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, doc, text):
        for code, err in _both_commands(tmp_path, capsys, doc, text):
            assert code == 2
            _assert_one_line(err, "error: ")
            assert "nonnegative" not in err
        assert not (tmp_path / "o").exists()  # run stopped before any work

    @pytest.mark.parametrize("doc, cap, fragment", [
        (_with(_MIX, z_count=1_000_000_000), 1000, "z_count"),
        (_with(_FIT, trials=50, r_list=[50]), 1000,
         "trials x max(r) = 50 x 50 exceeds the cap 1000; the widest width that fits is 20\n"),
        (_with(_FIT, r_list=[100], grid={"nodes_per_dim": 20}), 1000,
         "design matrix of 20 grid nodes x 100 features exceeds the cap 1000; "
         "the widest width that fits is 50\n"),
        (_with(_FIT, d=3, r_list=[4096]), None,
         "design matrix of 13824 grid nodes x 4096 features exceeds the cap 10000000; "
         "the widest width that fits is 723\n"),
        ({"kind": "minwidth", "parameters": {"d": 3, "epsilon": 0.5, "delta": 0.25, "trials": 4,
                                             "target": "abs", "seed": 1}}, None,
         "design matrix of 13824 grid nodes x 4096 features exceeds the cap 10000000; "
         "the widest width that fits is 723\n"),
        (_with(_LBP, d=12, ell=6), 100, "C(12, 6)"),
        (_lbp_family({"type": "ball", "k": 4000}, d=3), None, "ball"),
        (_with(_FIT, d=3, dist={"k": 4000}), None, "ball"),
        (_with(_MIX, k=10, z_count=5), 10, "ball"),
        (_with(_TRIG, d=3, grid={"nodes_per_dim": 100}), 1000, "tensor grid"),
        # one node per axis, but an array of 71 dimensions
        (_with(_TRIG, d=70, epsilon=0.5, mode="periodic", grid={"nodes_per_dim": 1}), None,
         "tensor grid of 70 axes exceeds the d <= 31 cap\n"),
        (_with(_FIT, d=600, dist={"k": 1}, grid={"scheme": "monte_carlo", "sample_count": 20000}),
         None, "monte_carlo grid of 20000 samples x 600 coordinates exceeds the cap 10000000\n"),
        (_with(_FIT, d=5000, dist={"k": 1}, grid={"scheme": "monte_carlo", "sample_count": 1}),
         None, "10001 indices x 5000 coordinates"),
        (_with(_TRIG, d=16, L=1, epsilon=1,
               grid={"scheme": "monte_carlo", "sample_count": 20000, "seed": 1}), None,
         "orthant scan of 2^16 orthants x 33 indices x 20000 grid nodes exceeds the cap "
         "10000000\n"),
        (_with(_TRIG, d=2, epsilon=0.5, grid={"nodes_per_dim": 4}), 500,
         "orthant scan of 2^2 orthants x 13 indices x 16 grid nodes exceeds the cap 500\n"),
        # 2^21 orthants x 43 indices x 1 node fit this cap; the dimension does not
        (_with(_TRIG, d=21, L=1, epsilon=1,
               grid={"scheme": "monte_carlo", "sample_count": 1, "seed": 1}), 10**9,
         "orthant scan over 2^21 orthants exceeds the d <= 20 cap\n"),
    ], ids=["z_count", "trials_x_r", "design", "design_default_cap", "minwidth_r_max",
            "symmetric_family", "ball_family", "dist_ball", "mixture_ball", "grid",
            "tensor_grid_axes", "monte_carlo_grid_coordinates", "dist_direction_table",
            "orthant_scan", "orthant_scan_small_cap", "orthant_dim"])
    def test_size_caps_exit_3(self, tmp_path, capsys, monkeypatch, doc, cap, fragment):
        if cap is not None:
            monkeypatch.setenv("WIDTHLAB_CAP", str(cap))
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 3
            _assert_one_line(err, "cap exceeded: ")
            assert fragment in err
        assert not (tmp_path / "o").exists()  # run stopped before any work

    @pytest.mark.parametrize("doc, cap, fragment", [
        ({"kind": "count_lattice", "parameters": {"k": 10, "d": 2}}, 1000,
         "count of ball k=10, d=2"),
        ({"kind": "count_lattice", "parameters": {"k_list": [1, 10], "d_list": [1, 2]}}, 1000,
         "count of ball k=10, d=2"),
        ({"kind": "count_lattice", "parameters": {"k": 400, "d": 3}}, None, "k=400, d=3"),
        (_lbp_family({"type": "gaussian", "L": 2.0, "N": 1e8}), 1000,
         "gaussian family pool"),
        (_lbp_family({"type": "gaussian", "L": 2.0, "N": 100}), 1000,
         "gaussian family pool"),
        # the grid's 144 nodes x 2 coordinates and the pool's 96 x 3 directions fit this cap
        (_lbp_family({"type": "gaussian", "L": 2.0, "N": 3},
               grid={"nodes_per_dim": 12}), 300, "value matrix of 3 members x 144"),
        (_lbp_family({"type": "ball", "k": 12}, d=3), None,
         "value matrix of 7153 members x 13824 grid nodes"),
        (_with(_LBP, r_list=[0], trials=10**9), None,
         "residuals of 1000000000 trials x 1 widths x 2 members"),
        (_with(_LBP, d=10**6, ell=500000, grid={"scheme": "monte_carlo", "sample_count": 1}),
         None, "C(1000000, 500000)"),
        (_with(_EXPLICIT, d=10**6, ell=500000), None,
         "family size C(1000000, 500000) exceeds the float range"),
        (_with(_EXPLICIT, d=1030, ell=515), None, "family size C(1030, 515)"),
        (_with(_TRIG, d=2, L=1000, epsilon=1), None,
         "truncation onto 3141549 ball indices x 576 grid nodes exceeds the cap 10000000\n"),
        (_with(_TRIG, d=2, L=2000, epsilon=1, mode="periodic"), None,  # radius L / (2 eps)
         "truncation onto 3141549 ball indices x 576 grid nodes"),
        ({"kind": "approx_sobolev", "parameters": {"d": 3, "s": 3000, "gamma": 1,
                                                   "epsilon": 0.5, "target": "abs"}}, None,
         "truncation onto 688245 ball indices x 13824 grid nodes"),
        ({"kind": "approx_sobolev", "parameters": {"d": 1, "s": 1000, "gamma": 1,
                                                   "epsilon": 100, "target": "abs"}}, None,
         "Sobolev norm of 63 indices x d s^2 = 1000000 steps"),
        ({"kind": "hermite_check", "parameters": {"d": 3, "L": 14, "epsilon": 1,
                                                  "target": "abs"}}, None,
         "truncation onto 1293699 simplex indices x 13824 grid nodes"),
        ({"kind": "hermite_check", "parameters": {"d": 1, "L": 15, "epsilon": 1,
                                                  "target": "abs"}}, None,
         "degree budget 225 exceeds the stability cap 200"),
    ], ids=["count", "count_list", "count_default_cap", "gaussian_N_1e8", "gaussian_pool",
            "gaussian_values", "ball_family_values", "projection_residuals",
            "symmetric_family_huge_d", "explicit_family_huge_d",
            "explicit_family_just_past_float", "trig_ball_x_nodes", "trig_periodic_radius",
            "sobolev_ball_x_nodes", "sobolev_norm_steps", "hermite_simplex_x_nodes",
            "hermite_degree"])
    def test_count_and_family_caps_exit_3(self, tmp_path, capsys, monkeypatch, doc, cap,
                                          fragment):
        if cap is not None:
            monkeypatch.setenv("WIDTHLAB_CAP", str(cap))
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 3
            _assert_one_line(err, "cap exceeded: ")
            assert fragment in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc, cap, builds", [
        (_with(_FIT, d=4, dist={"k": 2}), 100,
         [lambda: DkDistribution(k=2.0, dimension=4)]),
        (_lbp_family({"type": "ball", "k": 2}, d=4), 100, [lambda: hard_family_ball(2, 4)]),
        (_with(_LBP, d=14, ell=6), 1000, [lambda: hard_family_symmetric(6, 14)]),
        (_lbp_family({"type": "gaussian", "L": 1.0, "N": 200}, d=3), 20000,
         [lambda grid=tensor_gauss_grid(GAUSSIAN, 3, 4):
          gaussian_hard_family(1.0, 200, 3, 0, grid)]),
        (_lbp_family({"type": "ball", "k": 5}, grid={"nodes_per_dim": 30}), 5000, [
            lambda grid=tensor_gauss_grid(UNIFORM_CUBE, 2, 30):
                coherence(hard_family_ball(5, 2), grid),
            lambda grid=tensor_gauss_grid(UNIFORM_CUBE, 2, 30):
                projection_residuals([[1.0, 0.0]], [0.0], hard_family_ball(5, 2), grid),
            lambda grid=tensor_gauss_grid(UNIFORM_CUBE, 2, 30): fitter.width_residuals(
                lowerbound._weighted_family(hard_family_ball(5, 2), grid), grid,
                DkDistribution(k=2, dimension=2), [1], 1, 2),
        ]),
    ], ids=["dist_direction_table", "ball_family_indices", "symmetric_family", "gaussian_pool",
            "value_matrix"])
    def test_the_library_refuses_what_validate_refuses(self, tmp_path, capsys, monkeypatch,
                                                       doc, cap, builds):
        """Under one cap, ``validate`` and ``run`` exit 3, and each library call that
        builds the same thing raises ``CapExceeded`` with the same message."""
        monkeypatch.setenv("WIDTHLAB_CAP", str(cap))
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 3
            _assert_one_line(err, "cap exceeded: ")
        for build in builds:
            with pytest.raises(CapExceeded) as raised:
                build()
            assert err == f"cap exceeded: {raised.value}\n"

    def test_explicit_family_just_inside_float_runs(self, tmp_path, capsys):
        doc = _with(_EXPLICIT, d=1029, ell=514)
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 0, err
        code, result, _ = _run(tmp_path, doc)
        assert code == 0
        assert result["results"]["family_size"] == math.comb(1029, 514)
        assert result["results"]["quarter_family"] == math.comb(1029, 514) / 4.0

    @pytest.mark.parametrize("doc", [
        _with(_FIT, trials=3, r_list=[2, 4], target=_OVERFLOWING),
        {"kind": "minwidth",
         "parameters": {"d": 1, "epsilon": 0.25, "delta": 0.5, "trials": 3, "r_max": 4,
                        "target": _OVERFLOWING, "seed": 1}},
        {"kind": "lb_projection",
         "parameters": {"d": 2, "family": {"type": "gaussian", "L": 1e308, "N": 2},
                        "r_list": [0, 2], "trials": 2, "seed": 3}},
    ], ids=["fit_curve", "minwidth", "lb_projection"])
    def test_non_finite_targets_exit_4(self, tmp_path, capsys, doc):
        """Targets that overflow on the grid stop the solve: exit 4, one stderr line, no
        warning and no CSV."""
        cfg = _write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        _assert_one_line(err, "numerical failure: ")
        assert "not finite" in err
        assert ("grid norm nan" in err) == (doc["kind"] == "lb_projection")
        assert not list((tmp_path / "o").glob("*.csv"))
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("doc", [
        {"kind": "approx_sobolev",
         "parameters": {"d": 1, "s": 1, "gamma": 8.0, "epsilon": 1.0, "target": {
             "type": "trig_poly",
             "polynomial": {"scale": 1.0, "terms": [{"K": [1], "beta": 1e308}]}}}},
        {"kind": "hermite_check",
         "parameters": {"d": 1, "L": 2.0, "epsilon": 1.0, "target": {
             "type": "hermite_poly",
             "polynomial": {"basis": "hermite", "terms": [{"K": [2], "beta": 1e308}]}}}},
        _with(_TRIG, mode="periodic", target={"type": "trig_poly", "polynomial": {
            "scale": 1.0, "terms": [{"K": [1], "beta": 1e308}]}}),
        _with(_TRIG, mode="reflect", target={"type": "trig_poly", "polynomial": {
            "terms": [{"K": [1], "beta": 1e308}, {"K": [-1], "beta": 1e308}]}}),
    ], ids=["approx_sobolev", "hermite_check", "approx_trig_periodic", "approx_trig_reflect"])
    def test_a_truncation_of_a_non_finite_target_exits_4_with_one_line(self, tmp_path, capsys,
                                                                      doc):
        """A target whose weighted squared norm overflows stops each truncation where it
        starts, though ``validate`` passes it: exit 4, one stderr line, no warning and
        no output."""
        cfg = _write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == 4
        _assert_one_line(capsys.readouterr().err,
                         "numerical failure: the target's values on the grid, or their weighted "
                         "squared norm, are not finite")
        assert not caught, [str(w.message) for w in caught]
        assert not (tmp_path / "o").exists() or not list((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("doc, fragment", [
        ({"kind": "lb_explicit", "parameters": {"d": 4, "L": 18, "epsilon": 1e-308,
                                                "trials": 2, "seed": 1}},
         "hard-instance size (L/eps)^2 = (inf)^2 exceeds the float range"),
        ({"kind": "hermite_check", "parameters": {"d": 1, "L": 1, "epsilon": 1e-308,
                                                  "target": "abs"}},
         "degree budget (L/eps)^2 = (1e+308)^2 exceeds the stability cap 200"),
    ], ids=["lb_explicit", "hermite_check"])
    def test_a_tiny_epsilon_is_a_size_past_the_cap(self, tmp_path, capsys, doc, fragment):
        """``epsilon^2`` underflows to 0 at 1e-308; the sizes square ``L / epsilon``, and a
        square past the float range exits 3 from both commands."""
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 3
            _assert_one_line(err, "cap exceeded: ")
            assert fragment in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_result_exits_4(self, tmp_path, capsys):
        """A kept Sobolev norm that overflows to infinity is not JSON: exit 4, one line,
        and no result document."""
        doc = {"kind": "approx_sobolev", "parameters": {"d": 1, "s": 400, "gamma": 1,
                                                        "epsilon": 100, "target": "abs"}}
        code = main(["run", "--config", _write_config(tmp_path, doc),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        _assert_one_line(err, "numerical failure: ")
        assert "non-finite" in err
        # the coefficients CSV was written before the norm overflowed: no file at all
        assert not list((tmp_path / "o").iterdir())

    def test_a_failed_move_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        """Two CSVs and the result document are moved into place; when the second move
        fails, the CSV already moved goes too, with every staged file."""
        replace, targets = os.replace, []

        def failing(src, dst):
            targets.append(os.path.basename(dst))
            if len(targets) == 2:
                raise OSError("no space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        code = main(["run", "--config", _write_config(tmp_path, _with(_LBP, r_list=[1, 2])),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 4
        _assert_one_line(capsys.readouterr().err, "numerical failure: ")
        assert targets == ["lb_projection_r1_residuals.csv", "lb_projection_r2_residuals.csv"]
        assert not list((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("doc", [
        {"kind": "count_lattice", "parameters": {"k": 1, "d": 5000}},
        {"kind": "mixture_check", "parameters": {"d": 5000, "k": 0.5, "z_count": 2}},
        {"kind": "hermite_check",
         "parameters": {"d": sys.getrecursionlimit() + 200, "L": 1.0, "epsilon": 1.0,
                        "target": "abs",
                        "grid": {"scheme": "monte_carlo", "sample_count": 50, "seed": 3}}},
    ], ids=["count_lattice", "mixture_check", "hermite_check"])
    def test_thousands_of_dimensions_run(self, tmp_path, capsys, doc):
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 0, err

    @pytest.mark.parametrize("value", ["lots", "1.5", "0", "-4", ""])
    @pytest.mark.parametrize("doc", [_TRIG, {"kind": "count_lattice",
                                             "parameters": {"k": 1, "d": 1}}],
                             ids=["capped_kind", "uncapped_kind"])
    def test_bad_cap_setting_exits_2(self, tmp_path, capsys, monkeypatch, value, doc):
        monkeypatch.setenv("WIDTHLAB_CAP", value)
        with pytest.raises(InvalidCapSetting, match="WIDTHLAB_CAP"):
            active_cap()
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 2
            _assert_one_line(err, "error: WIDTHLAB_CAP")

    def test_valid_cap_setting(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "12")
        assert active_cap() == 12

    def test_validate_accepts_what_run_runs(self, tmp_path, capsys):
        (validated, _), (ran, _) = _both_commands(tmp_path, capsys, _with(_FIT, d=1.0))
        assert validated == ran == 0

    def test_count_lattice_keeps_written_number_types(self, tmp_path):
        code, result, out_dir = _run(tmp_path, {
            "kind": "count_lattice", "parameters": {"k_list": [2, 2.0, 2.5], "d": 2.0},
        })
        assert code == 0
        rows = (out_dir / "count_lattice_counts.csv").read_text().splitlines()
        assert rows[1:] == ["2,2,13", "2,2,13", "2.5,2,21"]
        assert [c["k"] for c in result["results"]["counts"]] == [2, 2.0, 2.5]
        assert isinstance(result["results"]["counts"][1]["k"], float)

    def test_shorthands(self, tmp_path):
        """``f`` for ``target``; outer ``ell`` and ``epsilon`` for explicit_hard."""
        code, result, _ = _run(tmp_path, {
            "kind": "fit_curve",
            "parameters": {"d": 2, "epsilon": 0.5, "ell": 2, "trials": 3, "r": 2,
                           "f": {"type": "explicit_hard"}, "seed": 3},
        })
        assert code == 0
        assert result["results"]["target"]["ell"] == 2
        assert result["results"]["target"]["epsilon"] == 0.5

    def test_family_fields_beside_it_and_a_list_beside_its_scalar(self, tmp_path):
        """A family's fields may sit beside it, and ``r_list`` replaces ``r``."""
        code, result, _ = _run(tmp_path, _with(_LBP, family={"type": "symmetric"},
                                               r_list=[0, 2]))
        assert code == 0
        assert result["results"]["family"] == {"type": "symmetric", "ell": 1}
        assert [row["r"] for row in result["results"]["per_r"]] == [0, 2]

    @pytest.mark.parametrize("doc, fragment", [
        (dict(_FIT, seed=3), "config key 'seed'; expected one of ['kind', 'output_path', "
                             "'parameters']"),
        (_with(_FIT, trails=3), "parameter 'trails'"),
        (_with(_FIT, grid={"nodes_per_dimm": 4}), "parameter 'grid.nodes_per_dimm'; "
                                                   "expected one of ['nodes_per_dim', 'scheme']"),
        (_with(_FIT, grid={"scheme": "monte_carlo", "nodes_per_dim": 4}),
         "parameter 'grid.nodes_per_dim'"),
        (_with(_FIT, dist={"k": 1, "kinds": "dk"}), "parameter 'dist.kinds'"),
        (_with(_TRIG, target={"type": "abs", "L": 2}), "parameter 'target.L'"),
        (_with(_TRIG, target={"type": "trig_poly", "polynomial": {
            "basis": "trig", "terms": [{"K": [1], "beta": 1.0}]}}),
         "parameter 'target.polynomial.basis'"),
        (_with(_TRIG, target={"type": "trig_poly", "polynomial": {
            "terms": [{"K": [1], "beta": 1.0, "b": 2.0}]}}),
         "parameter 'target.polynomial.terms.b'"),
        (_lbp_family({"type": "ball", "k": 1, "ell": 1}), "parameter 'family.ell'"),
        # beside a target or family that does not read them
        (_with(_FIT, ell=1), "parameter 'ell'"),
        (_lbp_family({"type": "ball", "k": 1}, ell=1), "parameter 'ell'"),
        (_lbp_family({"type": "symmetric", "ell": 1}, ell=1), "parameter 'ell'"),
        # 'f' is read only in place of 'target'
        (_with(_FIT, f="abs"), "parameter 'f'"),
    ], ids=["top_level", "parameters", "grid", "grid_other_scheme", "dist", "target",
            "polynomial", "term", "family", "ell_beside_a_target", "ell_beside_a_ball_family",
            "ell_beside_a_family_with_ell", "f_beside_target"])
    def test_unread_keys_exit_2(self, tmp_path, capsys, doc, fragment):
        for code, err in _both_commands(tmp_path, capsys, doc):
            assert code == 2
            _assert_one_line(err, "error: unexpected ")
            assert fragment in err
        assert not (tmp_path / "o").exists()


def _assert_prefix_refused(tmp_path, capsys, prefix):
    """``output_path`` ``prefix`` exits 2 from ``validate`` and ``run`` with one line,
    and the run writes nothing, inside ``--out-dir`` or beside it."""
    for code, err in _both_commands(tmp_path, capsys, dict(_FIT, output_path=prefix)):
        assert code == 2
        _assert_one_line(err, "error: 'output_path' must be a file-name prefix")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["probe.json"]


class TestOutputPrefix:
    """``output_path`` is a plain file-name prefix, written inside ``--out-dir``."""

    def test_a_separator_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "sub/x")

    def test_a_prefix_leaving_the_out_dir_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "../esc")

    def test_a_backslash_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "sub\\x")

    def test_a_nul_character_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "x\0y")

    def test_dot_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, ".")

    def test_dot_dot_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "..")

    def test_the_empty_string_exits_2(self, tmp_path, capsys):
        _assert_prefix_refused(tmp_path, capsys, "")

    @pytest.mark.parametrize("prefix", [None, 7, ["fit"], {"name": "fit"}],
                             ids=["null", "number", "list", "object"])
    def test_a_value_that_is_not_a_string_exits_2(self, tmp_path, capsys, prefix):
        _assert_prefix_refused(tmp_path, capsys, prefix)

    @pytest.mark.parametrize("prefix, name", [("a.b c-..", "a.b c-.."), (None, "fit_curve")],
                             ids=["dots_and_spaces", "absent"])
    def test_a_plain_prefix_or_none_names_the_outputs(self, tmp_path, prefix, name):
        doc = _FIT if prefix is None else dict(_FIT, output_path=prefix)
        code, result, out_dir = _run(tmp_path, doc)
        assert code == 0
        assert result["csv_files"] == [f"{name}_curve.csv"]
        assert sorted(p.name for p in out_dir.iterdir()) == [f"{name}_curve.csv",
                                                              f"{name}_result.json"]


class TestEntryPoints:
    def test_main_run_and_validate(self, tmp_path):
        cfg = _write_config(tmp_path, {"kind": "count_lattice",
                                       "parameters": {"k": 2, "d": 2}})
        assert main(["validate", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "count_lattice_counts.csv").exists()
        doc = json.loads((tmp_path / "o" / "count_lattice_result.json").read_text())
        assert doc["threads"] == 1  # a fixed record: trials run in order on one thread

    def test_run_has_no_threads_flag(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"kind": "count_lattice",
                                       "parameters": {"k": 2, "d": 2}})
        with pytest.raises(SystemExit) as exc:
            main(["run", "--threads", "2", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_rejects_bad_config(self, tmp_path):
        cfg = _write_config(tmp_path, {"kind": "nope", "parameters": {}})
        assert validate_config(cfg) == 2

    def test_console_script_installed(self, tmp_path):
        """The declared ``widthlab`` script resolves to ``cli.main`` and runs as pip's wrapper would."""
        ep = importlib.metadata.EntryPoint(name="widthlab", value=_declared_console_script(),
                                           group="console_scripts")
        assert ep.load() is main
        wrapper = f"import sys\nfrom {ep.module} import {ep.attr}\nsys.exit({ep.attr}())\n"
        src = str(Path(widthlab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def script(*args):
            return subprocess.run([sys.executable, "-c", wrapper, *args],
                                  capture_output=True, text=True, env=env)

        good = _write_config(tmp_path, {"kind": "count_lattice", "parameters": {"k": 2, "d": 2}},
                             name="good.json")
        bad = _write_config(tmp_path, {"kind": "nope", "parameters": {}}, name="bad.json")
        proc = script("validate", "--config", good)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok: count_lattice\n"
        assert script("validate", "--config", bad).returncode == 2
        proc = script("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: widthlab")

    @pytest.mark.skipif(not _widthlab_installed(),
                        reason="widthlab distribution not installed "
                               "(importlib.metadata.PackageNotFoundError)")
    def test_installed_console_script_on_path(self, tmp_path):
        dist = importlib.metadata.distribution("widthlab")
        (ep,) = dist.entry_points.select(group="console_scripts", name="widthlab")
        assert ep.value == _declared_console_script()
        search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", "")])
        exe = shutil.which("widthlab", path=search)
        assert exe is not None, f"widthlab script not found on {search}"
        good = _write_config(tmp_path, {"kind": "count_lattice", "parameters": {"k": 2, "d": 2}})
        proc = subprocess.run([exe, "validate", "--config", good], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_subprocess_run(self, tmp_path):
        cfg = _write_config(tmp_path, {"kind": "count_lattice",
                                       "parameters": {"k": 2, "d": 2},
                                       "output_path": "sub"})
        proc = subprocess.run(
            [sys.executable, "-m", "widthlab.cli", "run", "--config", cfg,
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sub_result.json" in proc.stdout
        assert (tmp_path / "o" / "sub_counts.csv").read_text().splitlines()[1] == "2,2,13"
