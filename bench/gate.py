"""Output checks: per-experiment invariants and comparison with recorded reference outputs.

The invariants are the ones the test suite asserts.  Floating comparisons use
1e-9, the tightest tolerance of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math

from runner import Record
from workloads import SAN

TOL = 1e-9
MIXTURE_TOL = 1e-6  # acceptance criterion 03


def _curve_problems(results: dict) -> list[str]:
    problems = []
    curve = sorted(results["curve"], key=lambda pt: pt["r"])
    for pt in curve:
        if not pt["ci_lo"] <= pt["probability"] <= pt["ci_hi"]:
            problems.append(f"r={pt['r']}: p={pt['probability']} outside its Wilson interval")
    for lo, hi in zip(curve, curve[1:]):
        if hi["probability"] < lo["probability"]:
            problems.append(f"success falls from r={lo['r']} to r={hi['r']} "
                            "despite coupled draws")
    return problems


def _residual_rows(path) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        return [float(line.rsplit(",", 1)[1]) for line in fh if line.strip()]


def _projection_problems(record: Record) -> list[str]:
    problems = []
    for entry in record.results["per_r"]:
        if not entry["mean_residual"] >= entry["bound"] - TOL:
            problems.append(f"r={entry['r']}: mean residual {entry['mean_residual']} "
                            f"below the bound {entry['bound']}")
    for path in record.csv_paths:
        for value in _residual_rows(path):
            if not 0.0 <= value <= 1.0 + TOL:
                problems.append(f"{path.name}: residual {value} outside [0, 1]")
                break
    return problems


def _truncation_problems(record: Record) -> list[str]:
    residual = record.results["residual_estimate"]
    epsilon = record.parameters["epsilon"]
    if not math.isfinite(record.results["max_coefficient"]):
        return ["non-finite coefficient"]
    if not residual <= epsilon:
        return [f"residual {residual} over the budget epsilon={epsilon}"]
    return []


def _network_problems(record: Record) -> list[str]:
    from widthlab.lattice import count_ball

    p, res = record.parameters, record.results
    if not math.isfinite(res["l2_error"]):
        return ["non-finite network error"]
    # Acceptance criterion 05: no weight exceeds 360 d beta_bar k^2 Q_{k,d}.
    cap = 360.0 * p["d"] * res["beta_bar"] * p["k"] ** 2 * count_ball(p["k"], p["d"])
    if res["max_abs_coefficient"] * p["r"] > cap:
        return [f"feature weight {res['max_abs_coefficient'] * p['r']} over the cap {cap}"]
    return []


def problems(record: Record) -> list[str]:
    """Everything wrong with one experiment's outputs; empty when it passed."""
    if record.code != 0:
        last = (record.error.splitlines() or [""])[-1]
        return [f"exit code {record.code}: {last}"]
    kind, res = record.kind, record.results
    if kind in ("fit_curve", "lb_explicit"):
        return _curve_problems(res)
    if kind == "minwidth":
        threshold = 1.0 - record.parameters["delta"]
        if not res["success_prob_at_r_hat"] >= threshold:
            return [f"success {res['success_prob_at_r_hat']} at r_hat below {threshold}"]
        return []
    if kind == "lb_projection":
        return _projection_problems(record)
    if kind in ("approx_trig", "approx_sobolev", "hermite_check"):
        return _truncation_problems(record)
    if kind == "mixture_check":
        if not res["max_error"] <= MIXTURE_TOL:
            return [f"mixture error {res['max_error']} over {MIXTURE_TOL}"]
        return []
    if kind == SAN:
        return _network_problems(record)
    return [f"no output check for kind {kind!r}"]


def summary(record: Record) -> dict:
    """The outputs of one experiment that the reference file records."""
    kind, res = record.kind, record.results
    if kind in ("fit_curve", "lb_explicit"):
        return {"probability": [pt["probability"] for pt in res["curve"]]}
    if kind == "minwidth":
        return {"r_hat": res["r_hat"], "search_trace": res["search_trace"]}
    if kind == "lb_projection":
        return {"mean_residual": [entry["mean_residual"] for entry in res["per_r"]]}
    if kind in ("approx_trig", "approx_sobolev", "hermite_check"):
        return {"residual_estimate": res["residual_estimate"],
                "max_coefficient": res["max_coefficient"]}
    if kind == "mixture_check":
        return {"max_error": res["max_error"]}
    return {"l2_error": res["l2_error"], "max_abs_coefficient": res["max_abs_coefficient"]}


def mismatches(got, want, where: str = "") -> list[str]:
    """Differences between two summaries; numbers agree within ``TOL``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if not abs(got - want) <= TOL:
        return [f"{where}: {got!r} != {want!r}"]
    return []
