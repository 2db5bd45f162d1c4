"""The benchmark's four workloads.

Each workload drives the program only through its front doors
(``repro.api.Experiment.run``, ``repro.sweep``, ``repro.aio.cluster
.AioCluster``, ``repro.sim.executor``, ``repro.obs``) and has the same
life cycle, run by ``child.py`` in a process of its own:

- ``setup()``: imports, inputs, worker pool or cluster; the child times
  everything from process start to the end of set-up;
- ``round()``: one whole round of the workload's operations, timed, as
  a :class:`Round`; a run repeats rounds for the run's duration;
- ``close()``: releases the pool or the cluster;
- ``verify()``: checks the outputs of the rounds (``checks.py``);
- ``layer_metrics(spans, traced)``: in a traced run, the per-layer
  numbers, from the traced round (``traced_round(spans)`` where a
  workload needs more than ``round()`` to trace it) plus measurements
  of its own.

Inputs are made from the benchmark's ``--seed`` only; the program sees
the derived integer seeds.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from appendix_c import load_table

PROTOCOLS = ("drum", "push", "pull")
HERE = os.path.dirname(os.path.abspath(__file__))


def program_seed(seed, workload, index=0):
    """An integer seed for the program, derived from the benchmark seed."""
    tag = sum(ord(c) << (8 * (i % 4)) for i, c in enumerate(workload))
    state = np.random.SeedSequence([int(seed), tag, index]).generate_state(1)
    return int(state[0])


def noop(payload):
    """The pool task that forces the worker processes to start."""
    return payload


def node_rounds(result):
    """n x rounds to coverage summed over runs (censored runs count as
    ``max_rounds``): the work a round engine did, whatever the engine."""
    rounds = result.rounds_to_threshold()
    rounds = np.where(np.isnan(rounds), result.scenario.max_rounds, rounds)
    return float(result.scenario.n * rounds.sum())


@dataclass
class Round:
    wall_s: float
    deliveries: int
    attempted: int
    failed: int
    data: dict = field(default_factory=dict)


class Fig3aSweep:
    """Fig 3a at paper strength through ``SweepRunner`` with 2 workers
    into a fresh empty store."""

    name = "fig3a_sweep"
    #: Round time on the reference machine (see README.md).
    NOMINAL_ROUND_S = 6.5
    RATES = (0, 16, 32, 64, 128)
    RUNS = 1000
    WORKERS = 2

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.rounds = []
        self.first_store = None
        self.warm = None

    def grid(self):
        from repro.sweep import rate_grid

        _, rows = rate_grid(
            PROTOCOLS, self.RATES, n=120, alpha=0.1, malicious_fraction=0.1,
            runs=self.RUNS, seed=program_seed(self.seed, self.name),
            max_rounds=400,
        )
        return [cell for row in rows for cell in row]

    def setup(self):
        from repro.sim.executor import get_pool

        self.table = load_table()
        self.cells = self.grid()
        start = time.perf_counter()
        get_pool(self.WORKERS).run_calls([(noop, None)])
        self.pool_spawn_s = time.perf_counter() - start

    def _store_dir(self):
        path = os.path.join(self.scratch, f"fig3a-store-{len(self.rounds)}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def round(self):
        from repro.sweep import ResultStore, SweepRunner

        path = self._store_dir()
        store = ResultStore(path)
        start = time.perf_counter()
        try:
            result = SweepRunner(store, workers=self.WORKERS).run(
                "fig3a", self.cells)
        except Exception as exc:  # counted as failed cells, not fatal
            wall = time.perf_counter() - start
            print(f"fig3a sweep raised {exc!r}", file=sys.stderr)
            return self._keep(Round(wall, 0, len(self.cells), len(self.cells)))
        wall = time.perf_counter() - start
        failed = deliveries = 0
        for cell in self.cells:
            loaded, _ = store.cache.load_ex(store.key_for(cell), cell.scenario)
            failed += loaded.censored_runs() > 0
            deliveries += int(loaded.counts[:, -1].sum())
        data = {"values": result.values, "store_bytes": sum(
            entry.stat().st_size for entry in os.scandir(path)
            if entry.is_file())}
        if self.first_store is None:
            self.first_store = path
        else:
            shutil.rmtree(path, ignore_errors=True)
        return self._keep(
            Round(wall, deliveries, len(self.cells), failed, data))

    def _keep(self, rnd):
        self.rounds.append(rnd)
        return rnd

    def close(self):
        from repro.sim.executor import close_pool

        close_pool()

    def warm_reread(self, trace):
        """Re-run the grid in a fresh process on the first round's store."""
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--warm",
             self.first_store, "--seed", str(self.seed),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, check=True, timeout=120,
        )
        return json.loads(out.stdout.decode().strip().splitlines()[-1])

    def verify(self):
        done = [r for r in self.rounds if "values" in r.data]
        if not done:
            return ["fig3a: no sweep completed"]
        first = done[0].data
        problems = []
        rows = {p: {} for p in PROTOCOLS}
        for cell, value in zip(self.cells, first["values"]):
            rows[cell.series][int(cell.x)] = value
            problems += checks.model_problems(
                f"fig3a {cell.series} x={int(cell.x)}", value, self.RUNS,
                *self.table[cell.series][int(cell.x)])
        problems += checks.fig3a_shape_problems(rows)
        for later in done[1:]:
            problems += checks.same_values_problems(
                "fig3a repeated sweep", first["values"], later.data["values"])
        if self.warm is None:
            self.warm = self.warm_reread(trace=False)
        problems += checks.same_values_problems(
            "fig3a warm store re-read", first["values"], self.warm["values"])
        if set(self.warm["sources"]) != {"store"}:
            problems.append(
                f"fig3a warm re-read was not served by the store: "
                f"{self.warm['sources']}")
        return problems

    def traced_round(self, spans):
        """A round with the executor counters zeroed first."""
        from repro.sim.executor import stats

        stats().reset()
        rnd = self.round()
        rnd.data["executor"] = stats().snapshot()
        return rnd

    def layer_metrics(self, spans, traced):
        from repro.api import Experiment
        from repro.obs import MemorySink, Tracer
        from repro.sim.executor import get_pool

        snap = traced.data["executor"]
        metrics = {
            "executor.pool_spawn_s": self.pool_spawn_s,
            "executor.tasks": snap["tasks_scheduled"],
            "executor.shm_mb": snap["shm_bytes"] / 1e6,
            "executor.pickled_result_bytes": snap["result_array_bytes"],
        }
        batch = [(noop, i) for i in range(200)]
        start = time.perf_counter()
        get_pool(self.WORKERS).run_calls(batch)
        metrics["executor.noop_task_us"] = (
            (time.perf_counter() - start) / len(batch) * 1e6)

        sweep = "SweepRunner.run"
        key_s = spans.total("ResultStore.key_for", within=sweep)
        write_s = spans.total("ResultCache.store", within=sweep)
        probe_s = spans.total("ResultCache.load_ex", within=sweep)
        metrics["store.key_s"] = key_s
        metrics["store.write_s"] = write_s
        metrics["store.bytes"] = traced.data["store_bytes"]

        # Engine busy time: the same cells, in this process, one worker.
        busy_before = spans.total("run_fast")
        for cell, value in zip(self.cells, traced.data["values"]):
            exp = _experiment_for(cell.scenario, runs=self.RUNS)
            got = exp.run("fast", seed=cell.seed, workers=1).mean_rounds()
            if got != value:
                raise RuntimeError(
                    f"in-process fast run {got} != sweep value {value}")
        busy = spans.total("run_fast") - busy_before
        metrics["fast.busy_s"] = busy
        metrics["executor.idle_s"] = (
            self.WORKERS * traced.wall_s - busy - key_s - write_s - probe_s)

        self.warm = self.warm_reread(trace=True)
        metrics["store.read_s"] = self.warm["read_s"]

        exp = Experiment(protocol="drum", n=120, malicious_fraction=0.1,
                         attack=_attack(0.1, 64), max_rounds=400, runs=256)
        seed = program_seed(self.seed, self.name, 1)
        plain = _best_of(3, lambda: exp.run("fast", seed=seed, workers=1))
        traced_s = _best_of(3, lambda: exp.run(
            "fast", seed=seed, workers=1, tracer=Tracer(MemorySink())))
        metrics["obs.fast_traced_ratio"] = traced_s / plain
        return metrics


class ScaleLadder:
    """Drum under the targeted attack on fast and mega at the ROADMAP's
    four kernel-merge gate points, one worker."""

    name = "scale_ladder"
    #: Round time on the reference machine (see README.md).
    NOMINAL_ROUND_S = 10.5
    POINTS = ((120, 1000, "n120"), (1000, 200, "n1e3"),
              (10_000, 20, "n1e4"), (100_000, 2, "n1e5"))
    ENGINES = ("fast", "mega")

    def __init__(self, seed, scratch):
        self.seed = seed
        self.rounds = []

    def setup(self):
        import repro.sim.mega  # noqa: F401  (both engines load in set-up)
        from repro.api import Experiment

        self.experiments = [
            (tag, n, Experiment(protocol="drum", n=n, malicious_fraction=0.1,
                                attack=_attack(0.1, 64), max_rounds=400,
                                runs=runs),
             program_seed(self.seed, self.name, i))
            for i, (n, runs, tag) in enumerate(self.POINTS)
        ]

    def round(self):
        stats, walls, failed, deliveries = {}, {}, 0, 0
        for tag, n, exp, seed in self.experiments:
            for engine in self.ENGINES:
                t = time.perf_counter()
                try:
                    result = exp.run(engine, seed=seed, workers=1)
                except Exception as exc:
                    print(f"{engine} {tag} raised {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                walls[engine, tag] = time.perf_counter() - t
                failed += result.censored_runs() > 0
                deliveries += int(result.counts[:, -1].sum())
                stats[engine, tag] = (
                    result.mean_rounds(), result.std_rounds(), result.runs,
                    node_rounds(result),
                    getattr(result, "peak_state_bytes", 0) / n)
        rnd = Round(sum(walls.values()), deliveries,
                    len(self.experiments) * 2, failed,
                    {"stats": stats, "walls": walls})
        self.rounds.append(rnd)
        return rnd

    def close(self):
        pass

    def verify(self):
        problems = []
        first = self.rounds[0].data["stats"]
        for tag, _, _, _ in self.experiments:
            if ("fast", tag) in first and ("mega", tag) in first:
                problems += checks.engines_problems(
                    f"scale_ladder {tag}", first["fast", tag][:3],
                    first["mega", tag][:3])
        for later in self.rounds[1:]:
            if later.data["stats"] != first:
                problems.append("scale_ladder: a repeated round differs")
        return problems

    def layer_metrics(self, spans, traced):
        metrics = {}
        for (engine, tag), stat in traced.data["stats"].items():
            metrics[f"{engine}.{tag}.node_rounds_per_s"] = (
                stat[3] / traced.data["walls"][engine, tag])
        metrics["mega.state_bytes_per_node"] = (
            traced.data["stats"]["mega", "n1e5"][4])
        return metrics


class ObjectStacks:
    """The object-level stacks: exact Monte-Carlo runs, then DES streams."""

    name = "object_stacks"
    #: Round time on the reference machine (see README.md).
    NOMINAL_ROUND_S = 10.0
    EXACT_RUNS = 20
    X = 128
    SEND_RATE = 40.0
    #: Messages per DES stream in the timed round / in the traced
    #: single runs that reconcile ObsCounters.
    MESSAGES = 400
    RECONCILE_MESSAGES = 40

    def __init__(self, seed, scratch):
        self.seed = seed
        self.rounds = []

    def setup(self):
        import repro.des.cluster  # noqa: F401
        from repro.api import Experiment

        self.table = load_table()
        attack = _attack(0.1, self.X)
        self.exact = [
            (p, Experiment(protocol=p, n=120, malicious_fraction=0.1,
                           attack=attack, max_rounds=400,
                           runs=self.EXACT_RUNS),
             program_seed(self.seed, self.name, i))
            for i, p in enumerate(PROTOCOLS)]
        self.des = [
            (p, Experiment(protocol=p, n=50, malicious_fraction=0.1,
                           attack=attack, send_rate=self.SEND_RATE,
                           messages=self.MESSAGES),
             program_seed(self.seed, self.name, 10 + i))
            for i, p in enumerate(PROTOCOLS)]

    def round(self):
        """The six calls, timed one by one; each DES delivery log is
        checked and dropped as soon as its call returns, so the
        benchmark's own bookkeeping stays out of the peak RSS."""
        walls, exact, des = {}, {}, {}
        failed = deliveries = 0
        config = self.des[0][1].cluster_config()
        members = range(config.num_correct)
        for protocol, exp, seed in self.exact:
            t = time.perf_counter()
            try:
                result = exp.run("exact", seed=seed, workers=1)
            except Exception as exc:
                print(f"exact {protocol} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            walls["exact", protocol] = time.perf_counter() - t
            failed += result.censored_runs() > 0
            deliveries += int(result.counts[:, -1].sum())
            exact[protocol] = (result.mean_rounds(), result.std_rounds(),
                               node_rounds(result))
        for protocol, exp, seed in self.des:
            t = time.perf_counter()
            try:
                result = exp.run("des", seed=seed)
            except Exception as exc:
                print(f"des {protocol} raised {exc!r}", file=sys.stderr)
                failed += 1
                continue
            walls["des", protocol] = time.perf_counter() - t
            pairs = [(r.receiver, r.msg_id) for r in result.deliveries]
            sent = [r.msg_id for r in result.deliveries
                    if r.receiver == config.source and r.latency_ms == 0.0]
            problems = checks.stream_problems(
                f"des {protocol}", pairs, sent, members)
            if len(sent) != self.MESSAGES:
                problems.append(f"des {protocol}: source sent {len(sent)} "
                                f"of {self.MESSAGES} messages")
            deliveries += len(set(pairs))
            des[protocol] = {
                "deliveries": len(pairs),
                "problems": problems,
                "throughput": result.throughput().mean_msgs_per_sec,
                "stream_s": (result.experiment_end_ms
                             - result.experiment_start_ms) / 1000.0,
            }
            del result, pairs
        rnd = Round(sum(walls.values()), deliveries,
                    len(self.exact) + len(self.des), failed,
                    {"walls": walls, "exact": exact, "des": des})
        self.rounds.append(rnd)
        return rnd

    def close(self):
        pass

    def single_runs(self, traced):
        """One seeded exact run per protocol and one short DES stream
        per protocol, untraced or with a ``repro.obs`` tracer.

        Returns ``(exact_s, des_s, problems, counters)``: the walls, the
        reconciliation mismatches, and the traced runs' counters.
        """
        from repro.obs import Tracer

        exact_s = des_s = 0.0
        problems, counters = [], []
        for protocol, exp, seed in self.exact:
            tracer = Tracer() if traced else None
            t = time.perf_counter()
            result = exp.with_(runs=None).run("exact", seed=seed,
                                              tracer=tracer)
            exact_s += time.perf_counter() - t
            if traced:
                problems += checks.reconcile_problems(
                    f"exact {protocol}", tracer.counters.reconcile_run(result))
                counters.append(tracer.counters)
        for protocol, exp, seed in self.des:
            tracer = Tracer() if traced else None
            t = time.perf_counter()
            result = exp.with_(messages=self.RECONCILE_MESSAGES).run(
                "des", seed=seed, tracer=tracer)
            des_s += time.perf_counter() - t
            if traced:
                problems += checks.reconcile_problems(
                    f"des {protocol}",
                    tracer.counters.reconcile_measurement(result))
        return exact_s, des_s, problems, counters

    def verify(self):
        first = self.rounds[0].data
        problems = []
        for protocol, (mean, _, _) in first["exact"].items():
            problems += checks.model_problems(
                f"exact {protocol} x={self.X}", mean, self.EXACT_RUNS,
                *self.table[protocol][self.X], z=checks.EXACT_Z)
        for rnd in self.rounds:
            for out in rnd.data["des"].values():
                problems += out["problems"]
        if "drum" in first["des"]:
            problems += checks.at_least_problems(
                "des drum throughput (msg/s) under attack",
                first["des"]["drum"]["throughput"], 0.9 * self.SEND_RATE)
        for later in self.rounds[1:]:
            if (later.data["exact"] != first["exact"]
                    or later.data["des"] != first["des"]):
                problems.append("object_stacks: a repeated round differs")
        problems += self.single_runs(traced=True)[2]
        return problems

    def layer_metrics(self, spans, traced):
        metrics = {}
        walls = traced.data["walls"]
        for protocol, (_, _, work) in traced.data["exact"].items():
            metrics[f"exact.{protocol}.node_rounds_per_s"] = (
                work / walls["exact", protocol])
        des_wall = des_stream = des_pairs = 0.0
        for protocol, out in traced.data["des"].items():
            metrics[f"des.{protocol}.s"] = walls["des", protocol]
            des_wall += walls["des", protocol]
            des_stream += out["stream_s"]
            des_pairs += out["deliveries"]
        metrics["des.virtual_s_per_s"] = des_stream / des_wall
        metrics["des.us_per_delivery"] = des_wall / des_pairs * 1e6
        crypto = ("verify", "open_envelope")
        metrics["crypto.verify_calls"] = sum(
            spans.leaf_calls[name] for name in crypto)
        metrics["crypto.verify_s"] = sum(spans.leaf_s[name] for name in crypto)

        exact_plain, des_plain, _, _ = self.single_runs(traced=False)
        exact_traced, des_traced, _, counters = self.single_runs(traced=True)
        metrics["obs.exact_traced_ratio"] = exact_traced / exact_plain
        metrics["obs.des_traced_ratio"] = des_traced / des_plain
        sent = sum(sum(c.sent_by_node.values()) for c in counters)
        flood = sum(sum(c.flood_by_port.values()) for c in counters)
        valid = sum(sum(c.accepted_valid_by_node.values()) for c in counters)
        fabricated = sum(sum(c.accepted_fabricated_by_node.values())
                         for c in counters)
        metrics["net.gossip_sent"] = sent
        metrics["net.flood_sent"] = flood
        metrics["core.accepted_valid"] = valid
        metrics["core.accepted_fabricated"] = fabricated
        for reason in ("bound", "attack", "loss"):
            metrics[f"net.dropped_{reason}"] = sum(
                c.dropped_by_reason.get(reason, 0) for c in counters)
        metrics["core.acceptance_ratio"] = valid / sent
        metrics["exact.us_per_packet"] = exact_plain / (sent + flood) * 1e6
        return metrics


class AioStream:
    """An open-loop stream into a running loopback ``AioCluster``: each
    round multicasts 20 messages on a fixed 20/s schedule and waits
    until every one reaches 99 % of the correct receivers."""

    name = "aio_stream"
    #: Round time on the reference machine (see README.md).
    NOMINAL_ROUND_S = 4.0
    N = 800
    MESSAGES = 20
    SEND_RATE = 20.0
    COVERAGE = 0.99
    #: A message that misses coverage this long after its due time fails.
    TIMEOUT_S = 20.0
    #: Untimed wait after the last round for the stream's tails.
    DRAIN_S = 3.0
    POLL_S = 0.005

    def __init__(self, seed, scratch):
        self.seed = seed
        self.rounds = []
        self.sent = []
        self.cluster = None
        self.loop = None

    def setup(self):
        from repro.aio.cluster import AioCluster
        from repro.api import Experiment

        exp = Experiment(protocol="drum", n=self.N, attack=_attack(0.01, 64),
                         round_duration_ms=200.0, purge_rounds=20,
                         send_rate=self.SEND_RATE, messages=self.MESSAGES)
        self.config = exp.aio_config()
        self.receivers = set(self.config.receiver_ids())
        self.need = math.ceil(self.COVERAGE * len(self.receivers))
        self.loop = asyncio.new_event_loop()
        start = time.perf_counter()
        self.cluster = AioCluster(self.config, seed=program_seed(
            self.seed, self.name))
        self.loop.run_until_complete(self.cluster.start())
        self.start_s = time.perf_counter() - start
        self.scanned = 0
        self.lag_probe = None

    async def _stream(self):
        loop = asyncio.get_running_loop()
        cluster = self.cluster
        first_due = loop.time()
        due, send_lag = {}, []
        for i in range(self.MESSAGES):
            at = first_due + i / self.SEND_RATE
            if at > loop.time():
                await asyncio.sleep(at - loop.time())
            send_lag.append(loop.time() - at)
            msg_id = cluster.multicast(
                self.config.source, f"m{len(self.sent)}".encode())
            self.sent.append(msg_id)
            due[msg_id] = at
        deadline = first_due + (self.MESSAGES - 1) / self.SEND_RATE
        deadline += self.TIMEOUT_S
        while loop.time() < deadline:
            counts = cluster.delivered_counts()
            # The source's own record is in the count; receivers exclude it.
            if all(counts[m] - 1 >= self.need for m in due):
                break
            await asyncio.sleep(self.POLL_S)
        return first_due, due, send_lag

    def round(self, spans=None):
        # The nodes run as callbacks on this loop, so the time spent
        # running it is the aio layer's.
        with (spans.span("aio.loop", "aio") if spans is not None
              else contextlib.nullcontext()):
            first_due, due, send_lag = self.loop.run_until_complete(
                self._stream())
        records = self.cluster.deliveries[self.scanned:]
        self.scanned = len(self.cluster.deliveries)
        times = {m: [] for m in due}
        for rec in records:
            if rec.msg_id in due and rec.receiver in self.receivers:
                times[rec.msg_id].append(rec.delivered_at_ms / 1000.0)
        done, latencies, failed = [], [], 0
        for msg_id, stamps in times.items():
            stamps.sort()
            if spans is not None:
                latencies += [t - due[msg_id] for t in stamps]
            if len(stamps) >= self.need:
                done.append(stamps[self.need - 1])
            else:
                failed += 1
        end = max(done) if done else max(due.values())
        delivered = sum(
            1 for stamps in times.values() for t in stamps if t <= end)
        rnd = Round(end - first_due, delivered, self.MESSAGES, failed,
                    {"latencies": latencies, "send_lag": send_lag})
        self.rounds.append(rnd)
        return rnd

    def close(self):
        if self.loop is None:
            return
        try:
            if self.cluster is not None:
                self.loop.run_until_complete(self._drain())
                self.loop.run_until_complete(self.cluster.stop())
        finally:
            self.loop.close()
            self.loop = None

    async def _drain(self):
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.DRAIN_S
        full = len(self.receivers) + 1
        while loop.time() < deadline:
            counts = self.cluster.delivered_counts()
            if all(counts[m] >= full for m in self.sent):
                return
            await asyncio.sleep(0.05)

    def verify(self):
        cluster = self.cluster
        pairs = [(r.receiver, r.msg_id) for r in cluster.deliveries]
        problems = checks.stream_problems(
            "aio", pairs, self.sent, self.config.correct_ids())
        result = cluster.result(self.SEND_RATE, len(self.sent))
        problems += checks.at_least_problems(
            "aio residual reliability", result.residual_reliability(),
            self.COVERAGE)
        return problems

    def start_probe(self):
        """Sample the lateness of a 10 ms timer on the cluster's loop."""
        lags = []
        period = 0.01

        def tick(expected):
            now = self.loop.time()
            lags.append(now - expected)
            self.lag_probe = self.loop.call_at(now + period, tick,
                                               now + period)

        start = self.loop.time() + period
        self.lag_probe = self.loop.call_at(start, tick, start)
        return lags

    def layer_metrics(self, spans, traced):
        lags = traced.data["loop_lag"]
        latencies = np.asarray(traced.data["latencies"]) * 1000.0
        return {
            "aio.start_s": self.start_s,
            "aio.delivery_p50_ms": float(np.percentile(latencies, 50)),
            "aio.delivery_p99_ms": float(np.percentile(latencies, 99)),
            "aio.delivery_samples": int(latencies.size),
            "aio.loop_lag_p50_ms": float(np.percentile(lags, 50)) * 1000.0,
            "aio.loop_lag_max_ms": float(np.max(lags)) * 1000.0,
            "aio.send_lag_max_ms": max(traced.data["send_lag"]) * 1000.0,
        }

    def traced_round(self, spans):
        lags = self.start_probe()
        try:
            rnd = self.round(spans)
        finally:
            self.lag_probe.cancel()
        rnd.data["loop_lag"] = lags
        return rnd


def _attack(alpha, x):
    from repro.adversary.attacks import AttackSpec

    return AttackSpec(alpha=alpha, x=x)


def _experiment_for(scenario, runs):
    from repro.api import Experiment

    return Experiment(
        protocol=scenario.protocol.value, n=scenario.n,
        malicious_fraction=scenario.malicious_fraction,
        attack=scenario.attack, max_rounds=scenario.max_rounds, runs=runs)


def _best_of(times, fn):
    best = math.inf
    for _ in range(times):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


WORKLOADS = {w.name: w for w in (Fig3aSweep, ScaleLadder, ObjectStacks,
                                  AioStream)}
