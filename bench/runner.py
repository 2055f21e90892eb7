"""Runs one benchmark experiment against widthlab and records what it returned.

Program functions are looked up on their modules at call time, so that the
tracer's patches apply to the calls made from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import SAN, Experiment

# Tensor-Gauss nodes per dimension of the network's grid, as the CLI's default for d <= 3.
_SAN_NODES = 24


@dataclass
class Record:
    """Outcome of one experiment: wall seconds of the program call and its results."""

    kind: str
    parameters: dict
    seconds: float
    code: int  # 0 on success; the CLI exit code, or 1 for an exception
    results: dict | None = None
    threads: int | None = None
    csv_paths: list[Path] = field(default_factory=list)
    error: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


class Runner:
    """Executes experiments one after another, writing outputs under ``scratch``."""

    def __init__(self, scratch: Path):
        from widthlab import cli, quadrature, relu, trig

        self.cli, self.quadrature, self.relu, self.trig = cli, quadrature, relu, trig
        self.scratch = scratch
        self.count = 0
        # The latest approx_trig polynomial: the input the next network samples.
        self.polynomial: dict | None = None

    def run(self, exp: Experiment) -> Record:
        tag = f"e{self.count}"
        self.count += 1
        if exp.kind == SAN:
            return self._network(exp)
        config = self.scratch / f"{tag}.json"
        config.write_text(json.dumps({"kind": exp.kind, "parameters": exp.parameters,
                                      "output_path": tag}), encoding="utf-8")
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, doc = self.cli.run_config(str(config), out_dir=str(self.scratch))
        except Exception:  # a crash is a failed experiment, reported with its traceback
            code, doc = 1, None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        record = Record(exp.kind, exp.parameters, seconds, code)
        if doc is None:
            record.code = record.code or 1
            record.error = sink.getvalue().strip()
            return record
        record.results = doc["results"]
        record.threads = doc["threads"]
        record.csv_paths = [self.scratch / name for name in doc["csv_files"]]
        if exp.kind == "approx_trig":
            self.polynomial = doc["results"]["polynomial"]
        return record

    def _network(self, exp: Experiment) -> Record:
        p = exp.parameters
        q = self.quadrature
        start = time.perf_counter()
        try:
            if self.polynomial is None:
                raise RuntimeError("no approx_trig polynomial precedes the network")
            grid = q.make_grid(q.QuadratureSpec(q.UNIFORM_CUBE, q.TENSOR_GAUSS, p["d"],
                                                nodes_per_dim=_SAN_NODES))
            dist = self.relu.DkDistribution(k=p["k"], dimension=p["d"])
            poly = self.trig.TrigPolynomial.from_json_dict(self.polynomial)
            net = self.relu.sample_average_network(poly, p["r"], dist, p["seed"], grid)
        except Exception:  # a crash is a failed experiment, reported with its traceback
            return Record(exp.kind, p, time.perf_counter() - start, 1,
                          error=traceback.format_exc().strip())
        seconds = time.perf_counter() - start
        return Record(exp.kind, p, seconds, 0, results={
            "l2_error": net.l2_error,
            "max_abs_coefficient": float(np.max(np.abs(net.coefficients))),
            "beta_bar": poly.max_coefficient(),
        })
