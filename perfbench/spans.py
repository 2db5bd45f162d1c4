"""Benchmark-side spans around calls into the program's layers.

Tracing here lives entirely in the benchmark: :func:`tracing` swaps a
chosen set of the program's public functions and methods for wrappers
that record a span (id, parent, name, layer, start, end) per call, and
puts the originals back on exit.  Hot leaf entry points (signature
verification runs once per delivered message) are *timed* instead of
spanned: a call count and a total, charged to the enclosing span as
child time, so the span list stays small and the overhead low.

A function is swapped wherever a loaded ``repro`` module holds it, so
callers that imported it by name (``from repro.sim.fast import
run_fast``) are traced too.  Spans are kept in memory; :meth:`Spans.dump`
writes them as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

#: (module, qualified name, layer, kind) for every traced entry point.
#: ``kind`` is ``"span"`` (one span per call), ``"leaf"`` (count and
#: total only) or ``"iter"`` (a generator, timed as a leaf while the
#: caller waits on each item).  Methods are named ``Class.method``.
ENTRY_POINTS = (
    ("repro.api.experiment", "Experiment.run", "api", "span"),
    ("repro.sweep.orchestrator", "SweepRunner.run", "sweep", "span"),
    ("repro.sweep.store", "ResultStore.key_for", "store", "span"),
    ("repro.sim.parallel", "ResultCache.store", "store", "span"),
    ("repro.sim.parallel", "ResultCache.load_ex", "store", "span"),
    ("repro.sim.executor", "WorkerPool.imap_calls", "executor", "iter"),
    ("repro.sim.fast", "run_fast", "sim.fast", "span"),
    ("repro.sim.mega", "run_mega", "sim.mega", "span"),
    ("repro.sim.engine", "run_exact", "sim.engine", "span"),
    ("repro.des.cluster", "run_throughput_experiment", "des", "span"),
    ("repro.aio.cluster", "AioCluster.start", "aio", "span"),
    ("repro.aio.cluster", "AioCluster.stop", "aio", "span"),
    ("repro.aio.cluster", "AioCluster.multicast", "aio", "span"),
    ("repro.crypto.signatures", "verify", "crypto", "leaf"),
    ("repro.crypto.encryption", "open_envelope", "crypto", "leaf"),
)

#: Every layer a self time is reported for, ``bench`` being the
#: benchmark's own code between calls into the program.
LAYERS = (
    "bench", "api", "sweep", "store", "executor", "sim.fast", "sim.mega",
    "sim.engine", "des", "aio", "crypto",
)


class Spans:
    """In-memory span recorder with per-layer self times."""

    def __init__(self):
        self.records = []
        self._stack = []
        #: Child time charged to each open span, by span id.
        self._child = defaultdict(float)
        self.leaf_calls = defaultdict(int)
        self.leaf_s = defaultdict(float)
        self.self_s = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record one span; nested spans become its children."""
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "parent": parent, "name": name,
                  "layer": layer, "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["end"] = end
            duration = end - record["start"]
            self.self_s[layer] += duration - self._child.pop(span_id, 0.0)
            if parent is not None:
                self._child[parent] += duration

    def leaf(self, name, layer, seconds):
        self.leaf_calls[name] += 1
        self.leaf_s[name] += seconds
        self.self_s[layer] += seconds
        if self._stack:
            self._child[self._stack[-1]] += seconds

    def total(self, name, within=None):
        """Summed duration of every closed span called ``name``, only
        those below a span called ``within`` when that is given."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["end"] is not None
                   and (within is None or self._below(r, within)))

    def _below(self, record, name):
        parent = record["parent"]
        while parent is not None:
            record = self.records[parent]
            if record["name"] == name:
                return True
            parent = record["parent"]
        return False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")
            for name in sorted(self.leaf_calls):
                handle.write(json.dumps({
                    "leaf": name, "calls": self.leaf_calls[name],
                    "total_s": self.leaf_s[name]}) + "\n")


def _wrap(spans, fn, name, layer, kind):
    if kind == "iter":
        @functools.wraps(fn)
        def waited(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    spans.leaf(name, layer, time.perf_counter() - start)
                yield item
        return waited

    if kind == "leaf":
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.leaf(name, layer, time.perf_counter() - start)
        return timed

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with spans.span(name, layer):
            return fn(*args, **kwargs)
    return spanned


@contextlib.contextmanager
def tracing(spans):
    """Route every :data:`ENTRY_POINTS` call through ``spans``."""
    import importlib

    undo = []
    try:
        for module_name, qualname, layer, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr,
                        _wrap(spans, original, qualname, layer, kind))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = _wrap(spans, original, qualname, layer, kind)
            for holder in list(sys.modules.values()):
                if (getattr(holder, "__name__", "").startswith("repro")
                        and vars(holder).get(attr) is original):
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))
        yield spans
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
