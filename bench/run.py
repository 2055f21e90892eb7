"""widthlab benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload fit_sweep --seed 1 --seconds 30 --trace 0

Each experiment starts when the previous one has finished, and the loop runs
whole rounds (see ``workloads.py``) until ``--seconds`` have passed.  Every
output is checked (``gate.py``), one round of a fixed reference seed is
compared with ``reference.json``, and the last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds untraced and then the same rounds traced, and reports the
per-layer metrics of ``tracer.py``; the spans go to ``.bench_out/``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
REFERENCE_SEED = 0
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("exps_per_s", "1/s", "higher"),
    ("exp_s.p50", "s", "lower"),
    ("exp_s.tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_specs(kinds) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    from tracer import TARGETS

    specs = []
    for name, *_ in TARGETS:
        specs += [(f"{name}.calls", "calls/exp", "lower"), (f"{name}.self_s", "s/exp", "lower")]
    specs += [
        ("trig.eval_T.points", "points/exp", "lower"),
        ("relu.useful_feature_ratio", "ratio", "higher"),
        ("fitter.features_fitted", "features/exp", "lower"),
        ("fitter.design.bytes", "B/exp", "lower"),
        ("fitter.lstsq.flops", "flop/exp", "lower"),
        ("cli.write.bytes", "B/exp", "lower"),
    ]
    specs += [(f"cli.{kind}.s", "s", "lower") for kind in kinds]
    specs += [
        ("cli.threads", "threads", "lower"),
        ("cli.cpu_per_wall", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def cli_kinds(workloads) -> list[str]:
    """The CLI kinds the workloads run, in order of first use."""
    from workloads import SAN

    kinds = [exp.kind for w in workloads.values() for exp in w.make_round(0, 0)]
    return [kind for kind in dict.fromkeys(kinds) if kind != SAN]


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With too few samples for that, the maximum at percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(durations, window, setup_samples, peak_rss_mb) -> dict[str, float]:
    return {
        "exps_per_s": len(durations) / window,
        "exp_s.p50": statistics.median(durations),
        "exp_s.tail": tail(durations)[0],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"  # not a git checkout of its own, such as an exported tree
    return lines[1]


def environment(seed: int, threads: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "cli_threads": threads,
        # Pool threads times BLAS threads (pinned to 1) must not exceed the cores.
        "threads_within_nproc": threads is None or threads <= nproc,
    }


def set_up(workload, seed: int, scratch: Path):
    """Import the program, generate the first round and warm up: what setup_s times."""
    import gate
    from runner import Runner

    runner = Runner(scratch)
    first = workload.make_round(seed, 0)
    for exp in workload.warmup():
        record = runner.run(exp)
        problems = gate.problems(record)
        if problems:
            raise BenchError(f"warm-up {exp.kind} failed: {problems[0]}")
    return runner, first


def probe_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    try:
        output = []
        for line in proc.stdout:
            if line.strip() == "ready":
                elapsed = time.perf_counter() - start
                break
            output.append(line)
        else:
            raise BenchError("set-up probe failed:\n" + "".join(output))
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_rounds(runner, workload, seed, first, *, seconds=None, rounds=None, tracer=None,
               between=None):
    """Whole rounds, until ``seconds`` of them have been measured or after ``rounds`` rounds.

    ``between(measured_seconds)`` runs after each round, outside the measured
    time.  Returns (records, measured wall seconds, process CPU seconds).
    """
    records = []
    measured = cpu_used = 0.0
    index, experiments = 0, first
    while True:
        start, cpu = time.perf_counter(), time.process_time()
        for exp in experiments:
            if tracer is None:
                records.append(runner.run(exp))
            else:
                with tracer.experiment():
                    records.append(runner.run(exp))
        measured += time.perf_counter() - start
        cpu_used += time.process_time() - cpu
        index += 1
        if (rounds is not None and index >= rounds) or (
                seconds is not None and measured >= seconds):
            break
        if between is not None:
            between(measured)
        experiments = workload.make_round(seed, index)
    return records, measured, cpu_used


def reference_round(runner, workload, seed: int) -> tuple[list[dict], list[str]]:
    """Summaries of round 0 of ``seed``, or the first problem in it."""
    import gate

    summaries = []
    for exp in workload.make_round(seed, 0):
        record = runner.run(exp)
        problems = gate.problems(record)
        if problems:
            return summaries, [f"reference {exp.kind}: {problems[0]}"]
        summaries.append(gate.summary(record))
    return summaries, []


def check_reference(runner, workload) -> list[str]:
    """Run round 0 of the reference seed and compare it with ``reference.json``."""
    import gate

    recorded = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    got, problems = reference_round(runner, workload, recorded["seed"])
    return problems or gate.mismatches(got, recorded["workloads"][workload.name],
                                       f"reference {workload.name}")


def _median_seconds(records, kind) -> float:
    times = [r.seconds for r in records if r.kind == kind]
    return statistics.median(times) if times else 0.0  # 0: the workload does not run it


def _threads(records) -> int | None:
    return next((r.threads for r in records if r.threads is not None), None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seed: int, seconds: int, scratch: Path):
    """The --trace 0 run: end-to-end metrics over a timed window."""
    setup_samples = []

    def probe_when_due(measured: float) -> None:
        # Spread over the window, so the median of set-up times sees the same
        # machine conditions as the experiments do.
        if len(setup_samples) < SETUP_PROBES and measured >= (
                len(setup_samples) * seconds / SETUP_PROBES):
            setup_samples.append(probe_setup(workload.name, seed))

    runner, first = set_up(workload, seed, scratch)
    records, window, _ = run_rounds(runner, workload, seed, first, seconds=seconds,
                                    between=probe_when_due)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(workload.name, seed))
    durations = [r.seconds for r in records]
    metrics = end_to_end(durations, window, setup_samples, _peak_rss_mb())
    _, percentile = tail(durations)
    notes = {
        "window_s": window,
        "experiments": len(records),
        "exp_s.tail": f"p{percentile:.1f} of {len(records)} experiments",
        "setup_s": f"median of {SETUP_PROBES} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples),
        "kinds_s": {kind: round(_median_seconds(records, kind), 4)
                    for kind in dict.fromkeys(r.kind for r in records)},
    }
    return records, metrics, notes, runner


def trace(workload, seed: int, scratch: Path, workloads: dict):
    """The --trace 1 run: the same rounds untraced and traced, and per-layer metrics."""
    import tracer as tracing

    runner, first = set_up(workload, seed, scratch)
    rounds = workload.trace_rounds
    plain, plain_wall, plain_cpu = run_rounds(runner, workload, seed, first, rounds=rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_wall, _ = run_rounds(runner, workload, seed, first, rounds=rounds,
                                            tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, len(traced))
    for kind in cli_kinds(workloads):
        metrics[f"cli.{kind}.s"] = _median_seconds(plain, kind)
    metrics["cli.threads"] = _threads(plain) or 0
    metrics["cli.cpu_per_wall"] = plain_cpu / plain_wall
    metrics["trace.overhead_ratio"] = 1.0 - (len(traced) / traced_wall) / (
        len(plain) / plain_wall)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)
    notes = {"rounds": rounds, "experiments": len(traced), "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT)), "absent": tracer.absent}
    return plain + traced, metrics, notes, runner


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (ROOT / "src" / "widthlab" / "cli.py").is_file():
        print(f"error: no widthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = OUT_DIR / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            set_up(workload, args.seed, scratch)
            print("ready", flush=True)
            return 0
        import gate

        if args.trace:
            records, metrics, notes, runner = trace(workload, args.seed, scratch, WORKLOADS)
            specs = per_layer_specs(cli_kinds(WORKLOADS))
        else:
            records, metrics, notes, runner = measure(workload, args.seed, args.seconds, scratch)
            specs = END_TO_END
        for record in records:
            record.problems = gate.problems(record)
        reference = check_reference(runner, workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [r for r in records if r.failed]
    for record in failed[:5]:
        print(f"FAILED {record.kind}: {record.problems[0]}")
    for line in reference:
        print(f"FAILED {line}")
    print("env " + json.dumps(environment(args.seed, _threads(records))))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          + json.dumps(notes))
    for name, unit, _ in specs:
        print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(f"{'fail_ratio':40s} {len(failed) / len(records):.6g} ({len(failed)}/{len(records)})")
    correct = not failed and not reference
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
