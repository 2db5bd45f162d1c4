"""The benchmark's one command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs each workload in a process of its own (``child.py``): by default
the workloads ``BENCHMARK.json`` lists, with ``all`` all four.  It
prints every metric by name and unit, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``; it is part of the benchmark's calling convention
(``--workload --seed --seconds --trace``).  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics:
the named workload runs one untraced and one traced round (their
difference is the tracing overhead), and the other workloads run one
traced round each, so every layer is measured.  The exit code is 1 when
a correctness check fails and 2 when the program cannot be run at all.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3a_sweep", "scale_ladder", "object_stacks", "aio_stream")


def child_timeout_s(seconds):
    """A hang guard per workload process: its rounds fill ``seconds`` on
    the reference machine, so three times that plus a minute for set-up,
    checks and the traced extras leaves room for a much slower commit."""
    return 60.0 + 3.0 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(args, workload, *, traced_only=False):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.time())]
    if traced_only:
        cmd.append("--traced-only")
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env.pop("REPRO_RUNS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A session of its own, so a timeout can stop the child's workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=child_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within "
             f"{child_timeout_s(args.seconds):.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="default: the workloads BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no program source at {os.path.join(ROOT, 'src', 'repro')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    if args.workload is None:
        names = tuple(w["name"] for w in spec["workloads"])
    elif args.workload == "all":
        names = WORKLOADS
    else:
        names = (args.workload,)
    results = {name: run_child(args, name) for name in names}
    layered = {}
    if args.trace:
        for name in WORKLOADS:
            if name not in names:
                layered[name] = run_child(args, name, traced_only=True)

    correct = True
    attempted = failed = 0
    metrics = {}
    for name, res in list(results.items()) + list(layered.items()):
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"{name}: {res['rounds']} round(s), {res['attempted']} "
              f"operations attempted, {res['failed']} failed, "
              f"{'correct' if res['correct'] else 'INCORRECT'}")
        for problem in res["problems"]:
            print(f"  problem: {problem}")
        for key, value in res["metrics"].items():
            if not args.trace and len(names) > 1:
                key = f"{name}.{key}"
            if key.startswith("layer.") or key == "bench.spans":
                metrics[key] = metrics.get(key, 0) + value
            else:
                metrics.setdefault(key, value)

    missing = [m for m in units
               if not any(k == m or k.endswith("." + m) for k in metrics)]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    report = {}
    for key in sorted(metrics):
        base = key if key in units else key.split(".", 1)[1]
        if base not in units:
            continue
        report[key] = {"value": metrics[key], "unit": units[base]}
        print(f"  {key:40s} {metrics[key]:>14.6g} {units[base]}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": report}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
