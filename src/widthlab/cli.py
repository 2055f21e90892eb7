"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Every experiment is one JSON document with a ``kind``, a ``parameters`` map,
and an optional ``output_path``: a file-name prefix, the kind by default, so
every output lands in the output directory.  Runs are deterministic given the
config and seed — per-trial seeds derive from ``(seed, trial)`` and trials
run in order on one thread, so rerunning a config at the same BLAS thread
count rewrites byte-identical CSV files.  The BLAS splits its sums by thread,
so the last bits of some results (``lb_projection``'s residuals, for one)
change with that count; nothing here pins it, while CI and ``bench/run.py``
pin 1 thread.

Each kind declares its parameters in one table (``_KINDS``); ``validate`` and
``run`` both check a config against it with :func:`_parse` before any work.

Exit codes: 0 success; 2 invalid configuration (or ``WIDTHLAB_CAP``); 3 a
size/degree cap was hit; 4 numerical failure during an otherwise valid run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .approx import (
    _check_orthant_scan,
    _sobolev_radius,
    reflect_and_truncate,
    sobolev_norm_from_coeffs,
    truncate_periodic,
    truncate_sobolev,
)
from .caps import _cap, active_cap
from .errors import CapExceeded, InvalidInput, NumericalFailure, ParameterOutOfRange
from .fitter import check_sampling_cap, estimate_minwidth, success_probability
from .fitter import width_residuals, wilson_interval
from .hermite import HermitePolynomial, _degree_budget, _simplex_count, hermite_truncate
from .lattice import _check_ball_table, check_ball_cap, count_ball, enumerate_ball, radius_sq_bound
from .lowerbound import (
    _check_pool,
    _check_symmetric,
    _check_values,
    _weighted_family,
    _weighted_hard,
    explicit_hard_function,
    gaussian_hard_family,
    hard_family_ball,
    hard_family_symmetric,
    lb_parameters,
    randict_bound,
)
from .quadrature import (
    GAUSSIAN,
    MONTE_CARLO,
    TENSOR_GAUSS,
    UNIFORM_CUBE,
    QuadratureSpec,
    check_grid_cap,
    make_grid,
)
from .relu import DkDistribution, mixture_expectation, phi_K
from .trig import TrigPolynomial


class ConfigError(InvalidInput):
    """The configuration document is malformed or violates a precondition."""


_EXITS = (  # (exit code, stderr label, the errors reported with them)
    (2, "error", (InvalidInput,)),
    (3, "cap exceeded", (CapExceeded,)),
    (4, "numerical failure", (NumericalFailure, np.linalg.LinAlgError, FloatingPointError,
                              OverflowError, OSError)),
)
_HANDLED = tuple(error for _, _, errors in _EXITS for error in errors)

# Default tensor-grid resolutions keeping node counts workable per dimension.
_DEFAULT_NODES = {UNIFORM_CUBE: {1: 24, 2: 24, 3: 24, 4: 12, 5: 8, 6: 6},
                  GAUSSIAN: {1: 40, 2: 40, 3: 24, 4: 12, 5: 8, 6: 6}}


def _fmt(values) -> list[str]:
    """Each of ``values``, in C order, as ``%.17g``, after one check that all are finite."""
    array = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(array)):
        raise FloatingPointError("non-finite value in output")
    return list(map("%.17g".__mod__, array.ravel().tolist()))


def _jsonable(value):
    """A result as JSON values: a dataclass is its fields in order, a tuple or list a
    list, and a polynomial its own document."""
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value.to_json_dict() if hasattr(value, "to_json_dict") else value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_lines(path: str, lines: list[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def emit_curve(points, path: str) -> None:
    """Write (x, y, ci_lo, ci_hi) rows as CSV, preserving input order."""
    if not points:
        raise ParameterOutOfRange("cannot emit an empty curve")
    cells = _fmt(points)
    _write_lines(path, ["x,y,ci_lo,ci_hi"] + [",".join(cells[i:i + 4])
                                               for i in range(0, len(cells), 4)])


_RANGES = {
    ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
    "> 0": lambda v: v > 0, "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


class _P(NamedTuple):
    """One parameter of a table.

    ``type`` is "int", "real" (read as a float), "num" (an int or float kept
    as written), a tuple of allowed strings, or, for a JSON object, a table or
    a function ``(raw, key, p)`` given the parameters read so far.  ``default``
    is ``...`` for a required parameter and ``None`` for an optional one;
    ``many`` names the list form; ``cap`` checks the value against the cap as
    a "size" or as the radius of a lattice "ball" in ``d`` dimensions.
    """

    type: object
    range: str | None = None
    default: object = ...
    many: str | None = None
    cap: str | None = None


def _convert(key: str, spec: _P, raw, p):
    if callable(spec.type) or isinstance(spec.type, dict):
        if not isinstance(raw, dict):
            raise ConfigError(f"parameter {key!r} must be an object, got {raw!r}")
        if isinstance(spec.type, dict):
            return _read(raw, spec.type, p, key + ".")
        return spec.type(raw, key, p)
    if isinstance(spec.type, tuple):
        ok, want = isinstance(raw, str) and raw in spec.type, f"one of {list(spec.type)}"
    else:
        want = "an integer" if spec.type == "int" else "a finite number"
        try:  # booleans are not numbers; ints past the float range are not finite
            ok = (not isinstance(raw, bool) and math.isfinite(raw)
                  and (spec.type != "int" or raw == int(raw)))
        except (TypeError, OverflowError):
            ok = False
    if not ok:
        raise ConfigError(f"parameter {key!r} must be {want}, got {raw!r}")
    value = int(raw) if spec.type == "int" else float(raw) if spec.type == "real" else raw
    if spec.range and not _RANGES[spec.range](value):
        raise ConfigError(f"parameter {key!r} must be {spec.range}, got {value}")
    if spec.cap == "ball":
        _check_ball_table(value, p.d)
    elif spec.cap:
        _cap(f"{key} = {value}", value)
    return value


def _value(params: dict, name: str, spec: _P, p, where: str = ""):
    if spec.many in params:
        key, raw = where + spec.many, params[spec.many]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"parameter {key!r} must be a nonempty list, got {raw!r}")
        return [_convert(key, spec, v, p) for v in raw]
    if name not in params and spec.default is ...:
        raise ConfigError(f"missing required parameter {where + name!r}")
    raw = params.get(name, spec.default)
    if raw is None and spec.default is None:
        return None
    value = _convert(where + name, spec, raw, p)
    return [value] if spec.many else value


def _only(obj: dict, known: set, what: str, where: str = "") -> None:
    """Refuse a key of ``obj`` that is not in ``known``."""
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ConfigError(f"unexpected {what} {where + unknown[0]!r}; "
                          f"expected one of {sorted(known)}")


def _read(params: dict, table: dict, p=None, where: str = "", read=()) -> SimpleNamespace:
    """Read every parameter of ``table`` from ``params``, in table order, after refusing
    a key that neither the table nor ``read`` (the keys read already) names."""
    _only(params, {*read, *table, *(spec.many for spec in table.values() if spec.many)},
          "parameter", where)
    out = SimpleNamespace()
    for name, spec in table.items():
        setattr(out, name, _value(params, name, spec, out if p is None else p, where))
    return out


_TERMS = _P({"K": _P("int", many="K"), "beta": _P("real")}, many="terms")
_TARGETS = {
    "abs": {},
    "trig_poly": {"polynomial": _P({"scale": _P("real", "in (0, 1]", 1.0), "terms": _TERMS})},
    "hermite_poly": {"polynomial": _P({"basis": _P(("hermite",)), "terms": _TERMS})},
    "explicit_hard": {"epsilon": _P("real", "> 0"), "ell": _P("int", ">= 1")},
}


def _target(raw, key, p):
    """Resolve the target to ``(callable, description)``."""
    kind = _value(raw, "type", _P(tuple(_TARGETS)), p, key + ".")
    t = _read(raw, _TARGETS[kind], p, key + ".", read=("type",))
    if kind == "abs":
        return (lambda nodes: np.abs(np.asarray(nodes, dtype=float)[:, 0])), {"type": "abs"}
    if kind == "explicit_hard":
        hard = explicit_hard_function(t.epsilon, t.ell, p.d)
        return hard.evaluate, {"type": kind, "ell": t.ell, "epsilon": t.epsilon,
                               "lip_bound": hard.lip_bound}
    cls = TrigPolynomial if kind == "trig_poly" else HermitePolynomial
    poly = cls.from_json_dict(raw["polynomial"])  # its types are checked above
    if poly.dimension != p.d:
        raise ConfigError(f"target dimension {poly.dimension} != experiment dimension {p.d}")
    return poly.evaluate, {"type": kind, "terms": len(poly.terms)}


_GRIDS = {
    TENSOR_GAUSS: {"nodes_per_dim": _P("int", ">= 1", None)},
    MONTE_CARLO: {"sample_count": _P("int", ">= 1", 20000), "seed": _P("int", ">= 0", None)},
}


def _grid(raw, key, p, measure=UNIFORM_CUBE) -> QuadratureSpec:
    """The grid's spec, checked against the cap; the runner builds the grid."""
    if measure is None:  # lb_projection: a gaussian family lives in Gaussian space
        measure = GAUSSIAN if p.family["type"] == "gaussian" else UNIFORM_CUBE
    scheme = _value(raw, "scheme", _P(tuple(_GRIDS), default=TENSOR_GAUSS), p, key + ".")
    g = _read(raw, _GRIDS[scheme], p, key + ".", read=("scheme",))
    if scheme == MONTE_CARLO:
        if g.seed is None and p.seed is None:
            raise ConfigError("monte_carlo grid needs a seed")
        # a derived seed stays disjoint from the trial seeds
        spec = QuadratureSpec(measure, MONTE_CARLO, p.d, sample_count=g.sample_count,
                              seed=(p.seed, 10007) if g.seed is None else g.seed)
    else:
        nodes = g.nodes_per_dim or _DEFAULT_NODES[measure].get(p.d)
        if nodes is None:
            raise ConfigError(f"no default tensor grid for dimension {p.d}; supply a grid spec")
        spec = QuadratureSpec(measure, TENSOR_GAUSS, p.d, nodes_per_dim=nodes)
    check_grid_cap(spec)
    return spec


_FAMILIES = {
    "symmetric": {"ell": _P("int", ">= 1")},
    "ball": {"k": _P("num", ">= 0", cap="ball")},
    "gaussian": {"L": _P("real", "> 0"), "N": _P("int", ">= 1")},
}


def _family(raw, key, p) -> dict:
    """The hard family's description: its type and size parameters."""
    kind = _value(raw, "type", _P(tuple(_FAMILIES), default="symmetric" if "ell" in raw
                                  else "ball"), p, key + ".")
    f = _read(raw, _FAMILIES[kind], p, key + ".", read=("type",))
    if kind == "symmetric":
        if f.ell > p.d:
            raise ConfigError(f"need 1 <= ell <= d, got ell={f.ell}, d={p.d}")
        _check_symmetric(f.ell, p.d)
    elif kind == "gaussian":
        _check_pool(f.N, p.d)
    return {"type": kind, **vars(f)}


def _check_count(p) -> None:
    """The exact count of each ball takes about ``d floor(k^2) floor(k)`` steps."""
    for k in p.k:
        budget = radius_sq_bound(k)
        for d in p.d:
            _cap(f"count of ball k={k}, d={d} (d floor(k^2) floor(k) steps)",
                 d * budget * math.isqrt(budget))


def _node_count(p) -> int:
    return p.grid.sample_count or p.grid.nodes_per_dim ** p.d


def _check_sampling(p) -> None:
    """Distinct widths; the trials' draws and the design matrix at the widest width
    (:func:`fitter.check_sampling_cap`)."""
    if hasattr(p, "r") and len(set(p.r)) < len(p.r):
        raise ConfigError(f"parameter 'r_list' must not repeat a width, got {p.r}")
    check_sampling_cap(p.trials, p.r_max if hasattr(p, "r_max") else max(p.r), _node_count(p))


def _check_projection(p) -> None:
    """The family's values on the grid, and one residual per trial, width and member."""
    _check_sampling(p)
    family = p.family
    if family["type"] == "symmetric":  # _family capped C(d, ell) itself
        members = math.comb(p.d, family["ell"])
    elif family["type"] == "ball":
        members = count_ball(family["k"], p.d)
    else:
        members = family["N"]
    _check_values(members, _node_count(p))
    _cap(f"residuals of {p.trials} trials x {len(p.r)} widths x {members} members",
         p.trials * len(p.r) * members)


def _check_indices(indices: int, kind: str, p) -> None:
    """A truncation's per-index loop evaluates each basis index at every grid node."""
    nodes = _node_count(p)
    _cap(f"truncation onto {indices} {kind} indices x {nodes} grid nodes", indices * nodes)


def _check_ball(p, k: float) -> int:
    """Cap the truncation onto the radius-``k`` ball; returns its index count."""
    check_ball_cap(k, p.d)  # before the exact count, whose cost grows with the ball
    indices = count_ball(k, p.d)
    _check_indices(indices, "ball", p)
    return indices


def _check_truncation(p) -> None:
    ratio, least = p.L / p.epsilon, (2.0 if p.mode == "periodic" else 1.0)
    if ratio < least:
        raise ConfigError(f"{p.mode} truncation needs L/epsilon >= {least:g}, got {ratio}")
    if p.mode == "periodic":
        _check_ball(p, p.L / (2.0 * p.epsilon))
    else:  # a 2L-Lipschitz extension truncated periodically, then 2^d orthants scored
        indices = _check_ball(p, (2.0 * p.L) / (2.0 * p.epsilon))
        _check_orthant_scan(p.d, indices, _node_count(p))


def _check_sobolev(p) -> None:
    """The truncation, then the kept norm: each index's ``c_{K,s}`` takes ``d s^2`` steps."""
    indices = _check_ball(p, _sobolev_radius(p.s, p.gamma, p.epsilon))
    _cap(f"Sobolev norm of {indices} indices x d s^2 = {p.d * p.s**2} steps",
         indices * p.d * p.s**2)


def _check_hermite(p) -> None:
    k = _degree_budget(p.L, p.epsilon, p.d)
    _check_indices(_simplex_count(k, p.d), "simplex", p)


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_explicit(p) -> None:
    """Plan ``ell`` from ``L`` unless it is given, and build the hard function."""
    p.planned = None
    if p.ell is None:
        if p.L is None:
            raise ConfigError("missing required parameter 'L' (or 'ell')")
        p.planned = lb_parameters(p.L, p.epsilon, p.d)
        if p.planned.degenerate:
            raise ConfigError(f"L={p.L}, epsilon={p.epsilon} give a degenerate instance (ell = 0)")
        p.ell = p.planned.ell
    p.hard = explicit_hard_function(p.epsilon, p.ell, p.d)
    # quarter_family = C(d, ell) / 4 must be a float; lgamma spares the exact
    # binomial unless it lies near the float limit
    log_size = math.lgamma(p.d + 1) - math.lgamma(p.ell + 1) - math.lgamma(p.d - p.ell + 1)
    if log_size > _LOG_FLOAT_MAX + 1 or (
            log_size > _LOG_FLOAT_MAX - 1 and math.comb(p.d, p.ell) > sys.float_info.max):
        raise CapExceeded(f"family size C({p.d}, {p.ell}) exceeds the float range")
    _check_sampling(p)


class _Run:
    """Shared state for one experiment run: where its files go, and their names.

    Every output is written under a temporary name beside its own and moved
    into place only once the whole run has succeeded (:meth:`commit`), the
    result document last, so a reader sees every output of a run or none.
    """

    def __init__(self, out_dir: str, prefix: str):
        self.out_dir = out_dir
        self.prefix = prefix
        self.csv_files: list[str] = []
        self.staged: dict[str, str] = {}  # final path: temporary path, in write order

    def stage(self, name: str) -> str:
        """The temporary path to write the output ``name`` to."""
        final = os.path.join(self.out_dir, name)
        return self.staged.setdefault(final, f"{final}.{os.getpid()}.tmp")

    def path(self, suffix: str) -> str:
        name = f"{self.prefix}_{suffix}"
        self.csv_files.append(name)
        return self.stage(name)

    def commit(self) -> None:
        """Move every staged output into place; if a move fails, remove the outputs
        already moved, so that none is left (:meth:`discard` removes the rest)."""
        moved = []
        try:
            for final, tmp in self.staged.items():
                os.replace(tmp, final)
                moved.append(final)
        except BaseException:
            for final in moved:
                os.remove(final)
            raise
        self.staged = {}

    def discard(self) -> None:
        for tmp in self.staged.values():
            if os.path.exists(tmp):
                os.remove(tmp)


def _run_count_lattice(p, run: _Run) -> dict:
    rows, counts = [], []
    for k in p.k:
        for d in p.d:
            q = count_ball(k, d)
            rows.append(f"{_fmt(k)[0] if isinstance(k, float) else k},{d},{q}")
            counts.append({"k": k, "d": d, "count": q})
    _write_lines(run.path("counts.csv"), ["k,d,count"] + rows)
    return {"counts": counts}


def _coefficients(report, p, run: _Run) -> dict:
    """A truncation's result document; its coefficients go to a CSV, not into it."""
    doc = _jsonable(report)
    header = ",".join(f"k{i + 1}" for i in range(p.d)) + ",beta"
    terms = doc["polynomial"].pop("terms")
    rows = [",".join(str(c) for c in term["K"]) + "," + beta
            for term, beta in zip(terms, _fmt([term["beta"] for term in terms]))]
    _write_lines(run.path("coefficients.csv"), [header] + rows)
    doc["target"] = p.target[1]
    return doc


def _run_approx_trig(p, run: _Run) -> dict:
    truncate = truncate_periodic if p.mode == "periodic" else reflect_and_truncate
    report = truncate(p.target[0], p.L, p.epsilon, make_grid(p.grid))
    doc = _coefficients(report, p, run)
    # whole, terms too: in reflect mode its scale of 1/2 is not in the CSV
    doc["polynomial"] = report.polynomial.to_json_dict()
    doc["mode"] = p.mode
    return doc


def _run_approx_sobolev(p, run: _Run) -> dict:
    report = truncate_sobolev(p.target[0], p.s, p.gamma, p.epsilon, make_grid(p.grid))
    doc = _coefficients(report, p, run)
    doc["s"] = p.s
    doc["kept_sobolev_norm"] = sobolev_norm_from_coeffs(report.polynomial, p.s)
    return doc


def _run_hermite_check(p, run: _Run) -> dict:
    return _coefficients(hermite_truncate(p.target[0], p.L, p.epsilon, make_grid(p.grid)),
                         p, run)


def _success_curve(f, grid, p, run: _Run) -> list[dict]:
    """Success probability of the target ``f`` on ``grid`` at each width of ``p.r``,
    from one factorization per trial at the widest; writes the curve CSV."""
    dist = DkDistribution(k=p.dist.k, dimension=p.d)
    estimates = success_probability(f, p.epsilon, dist, p.r, p.trials, grid, p.seed)
    emit_curve([(est.r, est.probability, est.ci_lo, est.ci_hi) for est in estimates],
               run.path("curve.csv"))
    return _jsonable(estimates)


def _run_fit_curve(p, run: _Run) -> dict:
    curve = _success_curve(p.target[0], make_grid(p.grid), p, run)
    return {"target": p.target[1], "epsilon": p.epsilon, "trials": p.trials,
            "dist_k": p.dist.k, "curve": curve}


def _run_minwidth(p, run: _Run) -> dict:
    dist = DkDistribution(k=p.dist.k, dimension=p.d)
    est = estimate_minwidth(p.target[0], p.epsilon, p.delta, dist, make_grid(p.grid),
                            p.trials, p.r_max, p.seed)
    points = [(r, prob, *wilson_interval(round(prob * p.trials), p.trials))
              for r, prob in est.search_trace]
    emit_curve(points, run.path("trace.csv"))
    doc = _jsonable(est)
    doc["target"] = p.target[1]
    doc["dist_k"] = p.dist.k
    return doc


def _run_lb_projection(p, run: _Run) -> dict:
    grid = make_grid(p.grid)
    family_desc = p.family
    if family_desc["type"] == "symmetric":
        family = hard_family_symmetric(family_desc["ell"], p.d)
    elif family_desc["type"] == "ball":
        family = hard_family_ball(float(family_desc["k"]), p.d)
    else:
        family = gaussian_hard_family(family_desc["L"], family_desc["N"], p.d, p.seed, grid)
        family_desc = {**family_desc, "kappa": family.coherence}
    dist = DkDistribution(k=p.dist.k, dimension=p.d)
    # One draw and one factor per trial, at the widest r, for every r; r = 0 reads the
    # member norms, as a trial with no live feature does.
    norms = width_residuals(_weighted_family(family, grid), grid, dist, p.r, p.seed, p.trials)
    squared = norms**2  # (trial, r, member)
    cells = _fmt(np.moveaxis(squared, 1, 0))  # r by r, each trial by trial
    # each member's squares over the trials in one contiguous row: the bits of its
    # column's mean
    member_means = np.mean(np.ascontiguousarray(squared.transpose(1, 2, 0)), axis=2)
    labels = [" ".join(map(str, label)) if isinstance(label, tuple) else str(label)
              for label in family.labels]
    prefixes = [f"{t},{label}," for t in range(p.trials) for label in labels]
    per_r = []
    for j, r in enumerate(p.r):
        rows = map(str.__add__, prefixes, cells[j * len(prefixes):(j + 1) * len(prefixes)])
        _write_lines(run.path(f"r{r}_residuals.csv"), ["trial,member,residual", *rows])
        per_r.append({
            "r": r,
            "bound": randict_bound(r, len(family), family.coherence),
            "mean_residual": float(np.mean(np.ascontiguousarray(squared[:, j]))),
            "member_means": dict(zip(labels, member_means[j].tolist())),
        })
    return {"family": family_desc, "N": len(family), "trials": p.trials,
            "dist_k": p.dist.k, "per_r": per_r}


def _run_lb_explicit(p, run: _Run) -> dict:
    grid = make_grid(p.grid)
    curve = _success_curve(_weighted_hard(p.hard, grid), grid, p, run)
    family_size = math.comb(p.d, p.ell)
    doc = {"ell": p.ell, "epsilon": p.epsilon, "lip_bound": p.hard.lip_bound,
           "family_size": family_size, "quarter_family": family_size / 4.0,
           "dist_k": p.dist.k, "trials": p.trials, "curve": curve}
    if p.planned is not None:
        doc["k_nonexplicit"] = p.planned.k_nonexplicit
    return doc


def _run_mixture_check(p, run: _Run) -> dict:
    root = math.sqrt(p.d)
    zs = np.linspace(-root, root, p.z_count)
    header = ",".join(f"k{i + 1}" for i in range(p.d)) + ",max_err"
    ball, errors, worst, worst_K = enumerate_ball(p.k, p.d), [], -1.0, None
    for K in ball:
        err = float(np.max(np.abs(mixture_expectation(K, p.rho, p.d, zs) - phi_K(K, p.rho, zs))))
        errors.append(err)
        if err > worst:
            worst, worst_K = err, K
    _write_lines(run.path("mixture_errors.csv"),
                 [header] + [",".join(str(c) for c in K) + "," + err
                             for K, err in zip(ball, _fmt(errors))])
    return {"rho": p.rho, "k": p.k, "d": p.d, "max_error": worst, "worst_K": list(worst_K)}


_D = _P("int", ">= 1")
_POSITIVE = _P("real", "> 0")
_SEED = _P("int", ">= 0")
_NO_SEED = _P("int", ">= 0", None)  # optional: kinds that draw nothing at random
_TARGET = _P(_target)
_CUBE_GRID = _P(_grid, default={})
# Monte Carlo over random features; the grid comes last, after what it depends on.
_SAMPLED = {"trials": _P("int", ">= 1", 200),
            "dist": _P({"kind": _P(("dk",), default="dk"), "k": _P("real", ">= 0", 2, cap="ball")},
                       default={}),
            "grid": _CUBE_GRID}

# kind: (runner, parameter table, check across parameters or None)
_KINDS = {
    "count_lattice": (_run_count_lattice, {
        "seed": _NO_SEED, "k": _P("num", ">= 0", many="k_list"),
        "d": _P("int", ">= 1", many="d_list")}, _check_count),
    "approx_trig": (_run_approx_trig, {
        "seed": _NO_SEED, "d": _D, "L": _POSITIVE, "epsilon": _POSITIVE,
        "mode": _P(("reflect", "periodic"), default="reflect"), "target": _TARGET,
        "grid": _CUBE_GRID}, _check_truncation),
    "approx_sobolev": (_run_approx_sobolev, {
        "seed": _NO_SEED, "d": _D, "s": _P("int", ">= 1"), "gamma": _POSITIVE,
        "epsilon": _POSITIVE, "target": _TARGET, "grid": _CUBE_GRID}, _check_sobolev),
    "fit_curve": (_run_fit_curve, {
        "seed": _SEED, "d": _D, "epsilon": _POSITIVE, "r": _P("int", ">= 1", many="r_list"),
        "target": _TARGET, **_SAMPLED}, _check_sampling),
    "minwidth": (_run_minwidth, {
        "seed": _SEED, "d": _D, "epsilon": _POSITIVE, "delta": _P("real", "in (0, 1)"),
        "r_max": _P("int", ">= 1", 4096), "target": _TARGET, **_SAMPLED}, _check_sampling),
    "lb_projection": (_run_lb_projection, {
        "seed": _SEED, "d": _D, "r": _P("int", ">= 0", many="r_list"),
        "family": _P(_family, default={}), **_SAMPLED,
        "grid": _P(partial(_grid, measure=None), default={})}, _check_projection),
    "lb_explicit": (_run_lb_explicit, {
        "seed": _SEED, "d": _D, "epsilon": _POSITIVE, "ell": _P("int", ">= 1", None),
        "L": _P("real", "> 0", None), "r": _P("int", ">= 1", 1, many="r_list"), **_SAMPLED},
        _check_explicit),
    "hermite_check": (_run_hermite_check, {
        "seed": _NO_SEED, "d": _D, "L": _POSITIVE, "epsilon": _POSITIVE, "target": _TARGET,
        "grid": _P(partial(_grid, measure=GAUSSIAN), default={})}, _check_hermite),
    "mixture_check": (_run_mixture_check, {
        "seed": _NO_SEED, "d": _D, "k": _P("real", ">= 0", cap="ball"),
        "rho": _P("real", "in (0, 1]", 0.5), "z_count": _P("int", ">= 2", 41, cap="size")},
        None),
}


def _load_config(path: str) -> tuple[str, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        cfg = json.loads(raw)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return raw, cfg


def _take_beside(params: dict, table: dict) -> set:
    """Copy into ``target`` and ``family`` the fields of their type that they lack and
    that sit beside them among the parameters (explicit_hard's ``epsilon`` and ``ell``;
    a family's ``ell``, ``k``, ``L`` and ``N``); returns the names copied."""
    taken = set()
    for name, types in (("target", {"explicit_hard": _TARGETS["explicit_hard"]}),
                        ("family", _FAMILIES)):
        obj = params.get(name, {})
        if name in table and isinstance(obj, dict):  # _convert refuses any other value
            # a family's type defaults as in _family; a target's has no default
            kind = obj.get("type", "symmetric" if "ell" in obj or "ell" in params else "ball")
            fields = types.get(kind, ()) if isinstance(kind, str) else ()
            beside = {f: params[f] for f in fields if f in params and f not in obj}
            if beside:
                params[name] = {**obj, **beside}
                taken.update(beside)
    return taken


def _parse(cfg: dict, seed_override=None) -> SimpleNamespace:
    """Check a config against its kind's table; builds no grid, ball or family,
    so ``validate`` makes every check ``run`` makes before its work starts.  The
    parameters come back with the checked ``output_path`` as ``prefix``."""
    active_cap()  # a malformed WIDTHLAB_CAP fails every kind, capped or not
    if not isinstance(cfg.get("kind"), str) or cfg["kind"] not in _KINDS:
        raise ConfigError(f"unknown kind {cfg.get('kind')!r}; choose one of {sorted(_KINDS)}")
    _only(cfg, {"kind", "parameters", "output_path"}, "config key")
    prefix = cfg.get("output_path", cfg["kind"])
    if (not isinstance(prefix, str) or prefix in ("", ".", "..")
            or any(c in prefix for c in "/\\\0")):
        raise ConfigError("'output_path' must be a file-name prefix: a nonempty string with "
                          f"no path separator or NUL, not '.' or '..'; got {prefix!r}")
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("'parameters' must be a JSON object")
    params = dict(params)
    if "f" in params and "target" not in params:  # 'f' is an alias of 'target'
        params["target"] = params.pop("f")
    if isinstance(params.get("target"), str):  # a target type's name alone
        params["target"] = {"type": params["target"]}
    if seed_override is not None:
        params["seed"] = seed_override
    _, table, check = _KINDS[cfg["kind"]]
    p = _read(params, table, read=_take_beside(params, table))
    if check is not None:
        check(p)
    p.prefix = prefix
    return p


def _report(exc: Exception) -> int:
    """Print the one-line message for a handled error; returns its exit code."""
    code, label = next((c, lab) for c, lab, errors in _EXITS if isinstance(exc, errors))
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def run_config(config_path: str, out_dir: str = ".",
               seed_override=None) -> tuple[int, dict | None]:
    """Execute one config; returns (exit_code, result document or None)."""
    start = time.monotonic()
    run = None
    try:
        raw, cfg = _load_config(config_path)
        p = _parse(cfg, seed_override)
        run = _Run(out_dir=out_dir, prefix=p.prefix)
        os.makedirs(out_dir, exist_ok=True)
        results = _KINDS[cfg["kind"]][0](p, run)
        doc = {
            "kind": cfg["kind"],
            "config_text": raw,
            "seed": p.seed,
            "threads": 1,  # trials run in order on the calling thread
            "versions": {
                "widthlab": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "wall_time_s": time.monotonic() - start,
            "csv_files": run.csv_files,
            "results": results,
        }
        try:  # compact, so that json takes its C encoder; NaN and infinity are not JSON
            text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
        except ValueError:
            raise FloatingPointError("non-finite value in the result document") from None
        result_name = f"{p.prefix}_result.json"
        _write_text(run.stage(result_name), text + "\n")
        run.commit()
    except _HANDLED as exc:
        return _report(exc), None
    finally:
        if run is not None:
            run.discard()
    print(os.path.join(out_dir, result_name))
    return 0, doc


def validate_config(config_path: str) -> int:
    """Run every check ``run`` makes before its work, without doing the work."""
    try:
        _, cfg = _load_config(config_path)
        _parse(cfg)
    except _HANDLED as exc:
        return _report(exc)
    print(f"ok: {cfg['kind']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="Random-feature width experiments: approximation, fitting, lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--out-dir", default=".", help="directory for CSV/JSON artifacts")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    args = parser.parse_args(argv)
    if args.command == "validate":
        return validate_config(args.config)
    code, _ = run_config(args.config, out_dir=args.out_dir, seed_override=args.seed)
    return code


if __name__ == "__main__":
    sys.exit(main())
