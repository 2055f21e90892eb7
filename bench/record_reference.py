"""Record ``reference.json``: round 0 of the reference seed of every workload.

    python3 bench/record_reference.py

Run it only when the program's outputs are meant to change; the benchmark
compares every run against the file it writes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    from runner import Runner
    from workloads import WORKLOADS

    scratch = run.OUT_DIR / f"reference-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        runner = Runner(scratch)
        for name, workload in WORKLOADS.items():
            recorded[name], problems = run.reference_round(runner, workload,
                                                           run.REFERENCE_SEED)
            if problems:
                print(f"error: {name}: {problems[0]}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {"seed": run.REFERENCE_SEED, "round": 0, "workloads": recorded}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1) + "\n",
                                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
