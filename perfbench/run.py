"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scheme-4x6 --seed 0 --seconds 30 --trace 0

Run from the repository root; waylab is imported from ``src/``.  Each
workload is a closed loop: one client runs its next operation only after
the previous one completes, in whole passes over the workload's inputs,
until ``--seconds`` have passed.  Every operation's output is checked; an
operation that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then two traced phases whose per-operation call counts must
agree exactly, and reports the per-layer metrics and the tracing overhead.
Results and spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in the set-up subprocesses.
# One thread: on a shared 2-vCPU machine a second BLAS thread made luders-d12
# 1.4x faster but doubled its run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import waylab  # noqa: E402

if not os.path.abspath(waylab.__file__).startswith(SRC + os.sep):
    sys.exit(f"waylab was imported from {waylab.__file__}, not from {SRC}")

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class Loop:
    """Counters of one closed loop: attempts, failures, latencies of the rest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def add_counts(self, other: "Loop") -> None:
        """Count ``other``'s attempts, failures and problems, not its latencies."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_op(op, workload, item, loop: Loop, tracer: Tracer | None = None) -> None:
    """One operation, timed (and traced) alone; its check runs after."""
    loop.attempted += 1
    try:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op(item)
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        problems = workload.check(item, out)
    except Exception as exc:  # a failed operation is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        loop.failed += 1
        loop.problems += problems
    else:
        loop.latencies.append(dt)


def run_passes(workload, seconds: float, loop: Loop, tracer: Tracer | None = None) -> None:
    """Whole passes over ``workload.items`` until ``seconds`` have passed."""
    op = workload.op if tracer is None else tracer.span("op", "bench", workload.op)
    start = time.perf_counter()
    while True:
        for item in workload.items:
            run_op(op, workload, item, loop, tracer)
        loop.problems += workload.end_pass()
        if time.perf_counter() - start >= seconds:
            return


def warm_up(workload, loop: Loop) -> None:
    """One checked, untimed operation, so lazy first-call work is not timed."""
    warm = Loop()
    run_op(workload.op, workload, workload.items[0], warm)
    workload.end_pass()  # resets the pass tallies; one operation is not a pass
    loop.add_counts(warm)


def time_setup(workload: str, seed: int) -> float:
    """Median, over fresh processes, of process start to inputs ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
        samples.append(t1 - t0)
    return statistics.median(samples)


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat_ms = [x * 1e3 for x in loop.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def traced(workload, seconds: float, loop: Loop, spans_path: str) -> dict:
    """Two traced phases after the untraced ``loop``; their attempts are added
    to it.  Per-layer metrics come from both phases, spans from the first."""
    base_rate = loop.ops_per_s()
    phases = []
    with Tracer() as tracer:
        for _ in range(2):
            before = dict(tracer.calls)
            phase = Loop()
            run_passes(workload, seconds / 4, phase, tracer)
            phases.append((phase, {n: (c - before.get(n, 0)) / phase.attempted
                                   for n, c in tracer.calls.items() if c != before.get(n, 0)}))
            if len(phases) == 1:
                tracer.write_spans(spans_path)
                tracer.spans.clear()
    (pa, calls_a), (pb, calls_b) = phases
    loop.add_counts(pa)
    loop.add_counts(pb)
    if calls_a != calls_b:
        diff = sorted(n for n in calls_a.keys() | calls_b.keys()
                      if calls_a.get(n) != calls_b.get(n))
        loop.problems.append(f"traced phases disagree on calls per op: {diff}")
    metrics = layer_metrics(tracer, pa.attempted + pb.attempted)
    latencies = pa.latencies + pb.latencies
    if latencies:
        traced_rate = len(latencies) / sum(latencies)
        metrics["trace.ops_per_s_delta"] = (base_rate - traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (base_rate - traced_rate) / base_rate, "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.makedirs(TMP_DIR, exist_ok=True)
    make = WORKLOADS[args.workload]

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as workdir:
            make(args.seed, workdir)
            print("ready", flush=True)
        return 0

    loop = Loop()
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as workdir:
        workload = make(args.seed, workdir)
        workload.prepare_checks()
        warm_up(workload, loop)
        run_passes(workload, args.seconds, loop)
        if not loop.latencies:
            metrics = {}
        elif args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
            metrics = traced(workload, args.seconds, loop, spans)
        else:
            metrics = end_to_end(loop, time_setup(args.workload, args.seed))
    correct = not loop.problems
    for problem in loop.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
