"""Runs one workload in a process of its own and prints its result.

Started by ``run.py``; the last line of standard output is one JSON
object.  ``--warm STORE`` instead re-runs the Fig 3a grid against an
already filled store (every cell a store hit) and prints the values it
read, for the fig3a_sweep check and its ``store.read_s``.
"""

import time

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".scratch")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]


def parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="epoch time the benchmark process started")
    parser.add_argument("--traced-only", action="store_true",
                        help="skip the untraced reference round")
    parser.add_argument("--warm", metavar="STORE")
    return parser.parse_args(argv)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def warm(args):
    from spans import Spans, tracing
    from workloads import Fig3aSweep
    from repro.sweep import ResultStore, SweepRunner

    cells = Fig3aSweep(args.seed, None).grid()
    spans = Spans()
    with (tracing(spans) if args.trace else contextlib.nullcontext()):
        start = time.perf_counter()
        result = SweepRunner(ResultStore(args.warm),
                             workers=Fig3aSweep.WORKERS).run(
            "fig3a", cells, resume=False)
        wall = time.perf_counter() - start
    print(json.dumps({
        "values": result.values,
        "sources": [o.source for o in result.outcomes],
        "read_s": spans.total("ResultCache.load_ex"),
        "sweep_s": wall,
    }))


def timed_rounds(workload, seconds):
    """As many whole rounds as fill ``seconds`` at the workload's nominal
    round time: a fixed count for a given run length, so every run
    attempts the same operations and holds the same results in memory,
    however fast the machine or the commit is."""
    count = max(1, round(seconds / workload.NOMINAL_ROUND_S))
    return [workload.round() for _ in range(count)]


def traced_pass(workload, named, dump_path):
    from spans import LAYERS, Spans, tracing

    plain = None if not named else workload.round()
    spans = Spans()
    with tracing(spans):
        with spans.span(f"bench.{workload.name}", "bench"):
            if hasattr(workload, "traced_round"):
                traced = workload.traced_round(spans)
            else:
                traced = workload.round()
        metrics = workload.layer_metrics(spans, traced)
    if plain is not None:
        metrics["bench.trace_overhead_s"] = traced.wall_s - plain.wall_s
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = spans.self_s.get(layer, 0.0)
    metrics["bench.spans"] = len(spans.records)
    spans.dump(dump_path)
    return metrics


def main(argv=None):
    args = parse(argv)
    if args.warm:
        return warm(args)
    t0 = args.t0 if args.t0 is not None else time.time()
    from workloads import WORKLOADS

    scratch = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        workload.setup()
        setup_s = time.time() - t0
        if args.trace:
            metrics = traced_pass(
                workload, not args.traced_only,
                os.path.join(SCRATCH, f"spans-{args.workload}.jsonl"))
            workload.close()
        else:
            rounds = timed_rounds(workload, args.seconds)
            workload.close()
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(r.wall_s for r in rounds),
                "deliveries_per_s": statistics.median(
                    r.deliveries / r.wall_s for r in rounds),
                "peak_rss_mb": peak_rss_mb(),
            }
        problems = workload.verify()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rounds = workload.rounds
    print(json.dumps({
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
