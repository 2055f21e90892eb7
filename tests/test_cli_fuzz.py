"""Generated malformed configs: ``validate`` and ``run`` agree on exit 2 or 3.

Each case starts from one of the README's example configs and breaks it in
one place: it drops a parameter the kind cannot run without, gives a value
the wrong JSON type, puts a number below its range, or makes a size-like
number huge.  Both commands must then refuse it with the same exit code and
exactly one line on stderr, never a traceback.

A magnitude sweep sets each real parameter of the same examples, one at a
time, to the float extremes: both commands, with warnings raised as errors,
must end in exit 0 with nothing on stderr or in exit 2, 3 or 4 with one line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from widthlab.cli import main  # noqa: E402

from readme_blocks import README, blocks  # noqa: E402

EXAMPLES = [json.loads(block) for block in blocks("json")]

_POLY = ("target", "polynomial")
_TERM = (*_POLY, "terms", 0)
# Paths, inside "parameters", that each example cannot run without.
REQUIRED = {
    "count_lattice": [("k_list",), ("d_list",)],
    "approx_trig": [("d",), ("L",), ("epsilon",), ("target",)],
    "approx_sobolev": [("d",), ("s",), ("gamma",), ("epsilon",), ("target",),
                       ("target", "type"), _POLY, (*_POLY, "terms"), (*_TERM, "K"),
                       (*_TERM, "beta")],
    "fit_curve": [("d",), ("epsilon",), ("r_list",), ("target",), ("seed",),
                  ("target", "type"), _POLY, (*_POLY, "terms"), (*_TERM, "K"),
                  (*_TERM, "beta")],
    "minwidth": [("d",), ("epsilon",), ("delta",), ("target",), ("seed",),
                 ("target", "type"), ("target", "ell")],
    "lb_projection": [("d",), ("ell",), ("r_list",), ("seed",)],
    "lb_explicit": [("d",), ("L",), ("epsilon",), ("seed",)],
    "hermite_check": [("d",), ("L",), ("epsilon",), ("target",), ("target", "type"),
                      _POLY, (*_POLY, "basis"), (*_POLY, "terms"), (*_TERM, "K"),
                      (*_TERM, "beta")],
    "mixture_check": [("d",), ("k",)],
}
# Size-like parameters, whose huge values must hit a cap.
SIZES = {"trials", "r_list", "r", "r_max", "z_count", "k", "d", "d_list"}

_OTHER_VALUES = {
    "number": st.one_of(st.integers(-5, 5), st.floats(-1e3, 1e3)),
    "string": st.sampled_from(["x", "", "1", "2.5"]),
    "bool": st.booleans(),
    "list": st.sampled_from([[], [1], ["a"]]),
    "object": st.sampled_from([{}, {"x": 1}]),
    "null": st.none(),
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "list", dict: "object"}[type(value)]


def _paths(node, prefix=()):
    """Every path to a value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


def _parent(params, path):
    node = params
    for key in path[:-1]:
        node = node[key]
    return node


@st.composite
def malformed_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(EXAMPLES)))
    params = doc["parameters"]
    paths = list(_paths(params))
    numbers = [p for p in paths if _json_type(_parent(params, p)[p[-1]]) == "number"
               and "K" not in p and "beta" not in p]
    sizes = [p for p in numbers
             if p[0] in SIZES or p[:2] == ("dist", "k")]
    how = draw(st.sampled_from(["drop", "retype", "below_range", "huge"]
                               if sizes else ["drop", "retype", "below_range"]))
    if how == "drop":
        path = draw(st.sampled_from(REQUIRED[doc["kind"]]))
        del _parent(params, path)[path[-1]]
        return doc
    path = draw(st.sampled_from({"retype": paths, "below_range": numbers,
                                 "huge": sizes}[how]))
    parent = _parent(params, path)
    if how == "retype":
        kind = _json_type(parent[path[-1]])
        others = [name for name in _OTHER_VALUES if name != kind]
        parent[path[-1]] = draw(st.sampled_from(others).flatmap(_OTHER_VALUES.get))
    elif how == "below_range":
        parent[path[-1]] = draw(st.sampled_from([-1, -0.5, -1e9]))
    else:
        parent[path[-1]] = 10**9
    return doc


def _command(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def test_readme_has_nine_examples():
    if not README.is_file():
        pytest.skip(f"no README.md beside the tests: {README}")
    assert sorted(doc["kind"] for doc in EXAMPLES) == sorted(REQUIRED)


@pytest.mark.parametrize("doc", EXAMPLES, ids=[doc["kind"] for doc in EXAMPLES])
def test_readme_examples_validate(tmp_path, doc):
    cfg = tmp_path / "example.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert _command(["validate", "--config", str(cfg)]) == (0, "")


@pytest.mark.skipif(not EXAMPLES, reason="no README.md examples to start from")
@settings(max_examples=300, deadline=None)
@given(malformed_configs())
def test_malformed_configs_exit_2_or_3_everywhere(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        validated = _command(["validate", "--config", str(cfg)])
        ran = _command(["run", "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
        assert not (Path(tmp) / "out").exists()
    for code, err in (validated, ran):
        assert code in (2, 3), (doc, err)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
    assert validated[0] == ran[0], (doc, validated, ran)


# Real parameters by name, the polynomials' scale and coefficients included, and
# the float extremes each is set to.
REALS = {"L", "epsilon", "gamma", "delta", "rho", "k", "k_list", "scale", "beta"}
MAGNITUDES = (1e308, -1e308, 1e-308)
_ONE_TERM = {"type": "trig_poly",
             "polynomial": {"scale": 1.0, "terms": [{"K": [1], "beta": 1.0}]}}
SWEPT = EXAMPLES + [
    {"kind": "approx_trig",
     "parameters": {"d": 1, "L": 1.0, "epsilon": 0.25, "mode": mode, "target": _ONE_TERM}}
    for mode in ("reflect", "periodic")]


def _magnitude_cases():
    for doc in SWEPT:
        params = doc["parameters"]
        name = "-".join(filter(None, (doc["kind"], params.get("mode"))))
        for path in _paths(params):
            key = next(k for k in reversed(path) if isinstance(k, str))
            if key in REALS and _json_type(_parent(params, path)[path[-1]]) == "number":
                for value in MAGNITUDES:
                    changed = copy.deepcopy(doc)
                    _parent(changed["parameters"], path)[path[-1]] = value
                    yield pytest.param(changed, id=f"{name}-{'.'.join(map(str, path))}={value!r}")


@pytest.mark.parametrize("doc", list(_magnitude_cases()))
def test_extreme_magnitudes_exit_cleanly(tmp_path, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validated = _command(["validate", "--config", str(cfg)])
        ran = _command(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    for code, err in (validated, ran):
        assert code in (0, 2, 3, 4), err
        assert err == "" if code == 0 else (err.count("\n") == 1 and err.endswith("\n")), err
    # validate makes every check run makes before its work
    assert ran[0] == validated[0] or (validated[0], ran[0]) == (0, 4), (validated, ran)
