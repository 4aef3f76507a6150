"""Benchmark for filtra: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {homext,filter,approx,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; filtra is imported from ./src.  With
--trace 0 the run does a fixed number of whole rounds of the workload's
operation list, proportional to S, then checks every answer and prints one
JSON line with the end-to-end metrics.  With --trace 1 it runs a fixed
number of rounds, alternating untraced and traced ones, and prints the
per-layer metrics folded from the traced rounds' spans.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 9
#: no new round starts after this many seconds, so a run ends within 180 s
#: even on a machine several times slower than the reference one
ROUND_CUTOFF_S = 120
#: the CPUs this process may run on; rounds (and set-up children) take them
#: in turn, because on a shared host one vCPU can run 1.5x slower than the
#: other for tens of seconds, and a run that stayed on one of them would
#: measure that vCPU
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["homext", "filter", "approx", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import filtra, wrap round 0, print the monotonic clock, exit")
    return parser.parse_args(argv)


def pin(i: int) -> None:
    """Move this process, and the children it starts from now on, to CPU i mod n."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def setup_child(args) -> float:
    """Seconds from launching a fresh process to its first timed operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    launched = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"set-up process failed: {proc.stderr.decode()[-800:]}")
    return float(proc.stdout.decode().split()[-1]) - launched


def tail(times_sorted: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100 * len(times_sorted)) - 1)
    return times_sorted[k]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "filtra" / "__init__.py").is_file():
        fail(f"no filtra sources under {ROOT / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import spans
    from workloads import WORKLOADS

    workdir = HERE / "results" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            wl.prepare()
            wl.round(0)
            print(repr(time.monotonic()))
            return 0
        if args.trace:
            trace_dir = HERE / "results" / f"trace-{args.workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            result = traced_run(wl, spans, trace_dir)
        else:
            setup = []
            for i in range(SETUP_SAMPLES):
                pin(i)
                setup.append(wl.minimal_invocation() if args.workload == "cli"
                             else setup_child(args))
            result = timed_run(wl, args.seconds, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_round(ops, times, records, errors) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # counted as a failed operation, reported on stderr
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        records.append((op, answer))


def check(wl, records, errors) -> bool:
    problems = wl.check(records)
    for line in (errors + problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    return not problems


def timed_run(wl, seconds: float, setup_s: float) -> dict:
    wl.prepare()
    times, records, errors = [], [], []
    attempted = 0
    ops = wl.round(0)
    rounds = max(math.ceil(seconds * wl.rounds_per_second), math.ceil(wl.min_ops / len(ops)))
    started = time.perf_counter()
    for r in range(1, rounds + 1):
        pin(r)
        attempted += len(ops)
        run_round(ops, times, records, errors)
        if r == rounds or time.perf_counter() - started > ROUND_CUTOFF_S:
            break
        ops = wl.round(r)
    if wl.name == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct = check(wl, records, errors)
    ordered = sorted(times)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(times) if times else 0.0, "unit": "ms"},
        "op_tail_ms": {"value": 1000 * tail(ordered, wl.tail_pct) if times else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    return {"correct": correct, "attempted": attempted, "failed": len(errors), "metrics": metrics}


def traced_run(wl, spans, trace_dir: Path) -> dict:
    """trace_rounds untraced and trace_rounds traced rounds, alternating.

    Spans and counts stay in trace_dir: one file pair for an in-process
    workload, one per traced child process for cli.
    """
    wl.prepare()
    wl.trace_dir = trace_dir
    tracer = spans.Tracer()
    plain_times, traced_times, records, errors = [], [], [], []
    nodes = 0
    attempted = 0
    for r in range(2 * wl.trace_rounds):
        ops = wl.round(r)
        pin(r // 2)
        attempted += len(ops)
        traced = r % 2 == 1
        if wl.name == "cli":
            wl.traced = traced
            run_round(ops, traced_times if traced else plain_times, records, errors)
        elif traced:
            tracer.install()
            try:
                for op in ops:
                    run_round([op], traced_times, records, errors)
                    nodes += wl.last_nodes
            finally:
                tracer.uninstall()
        else:
            run_round(ops, plain_times, records, errors)
    correct = check(wl, records, errors)
    if wl.name == "cli":
        totals = {}
        for path in wl.trace_files:
            totals = spans.add(totals, spans.load_and_fold(path))
    else:
        path = trace_dir / "spans"
        tracer.save(path)
        totals = spans.load_and_fold(path)
    totals["decide.nodes"] = nodes
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in spans.metrics(totals).items()}
    plain = sum(plain_times) / len(plain_times) if plain_times else 0.0
    traced = sum(traced_times) / len(traced_times) if traced_times else 0.0
    metrics["trace.overhead_ratio"] = {"value": traced / plain - 1 if plain else 0.0,
                                       "unit": "ratio"}
    return {"correct": correct, "attempted": attempted, "failed": len(errors), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
