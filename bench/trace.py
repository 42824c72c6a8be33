"""Spans from the outside: wrap public callables, record who called whom.

``Tracer.install()`` replaces a fixed table of public methods *on their
classes* with timing wrappers (so live instances pick them up) and
``uninstall()`` puts the originals back; nothing under ``src/`` is
edited. Batch-level callables record a span ``(name, start, end,
parent, batch)``; callables that run once per event only add
``(calls, total_ns, self_ns)`` to their enclosing span. A call's self
time is its duration minus the time its wrapped children covered.

Single-threaded by design: every wrapped callable on the four workloads
runs on the load generator's thread (other processes are covered by
the stage snapshot instead).
"""

from __future__ import annotations

import json
import time

from repro.engine.cluster import RailgunCluster
from repro.engine.frontend import FrontEnd
from repro.engine.task import TaskProcessor
from repro.plan.dag import TaskPlan
from repro.reservoir.iterator import ReservoirIterator
from repro.reservoir.reservoir import EventReservoir
from repro.server.client import RailgunClient
from repro.shard.parallel import ParallelCluster
from repro.state.store import MetricStateStore

#: batch-level callables: one span per call
SPANS = (
    ("engine.cluster.send_batch", RailgunCluster, "send_batch"),
    ("engine.cluster.send_batch", ParallelCluster, "send_batch"),
    ("server.client.send_batch", RailgunClient, "send_batch"),
    ("engine.frontend.send_batch", FrontEnd, "send_batch"),
    ("engine.task.process_batch", TaskProcessor, "process_batch"),
    ("engine.task.checkpoint", TaskProcessor, "checkpoint"),
    ("reservoir.append_batch", EventReservoir, "append_batch"),
)
#: per-event callables: counted under their enclosing span
COUNTED = (
    ("engine.task.process", TaskProcessor, "process"),
    ("plan.process_event", TaskPlan, "process_event"),
    ("reservoir.append", EventReservoir, "append"),
    ("reservoir.iter_advance", ReservoirIterator, "advance_upto"),
    ("state.apply", MetricStateStore, "apply"),
)

_NAME, _START, _END, _PARENT, _BATCH, _SELF, _CALLS = range(7)


class Tracer:
    def __init__(self) -> None:
        #: finished and open spans: [name, start_ns, end_ns, parent, batch, self_ns, calls]
        self.spans: list[list] = []
        self._stack: list[list] = []  # open frames: [span index | None, child_ns]
        self._batch = 0
        self._originals: list[tuple[type, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for table, wrap in ((SPANS, self._span), (COUNTED, self._counted)):
            for name, owner, attr in table:
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _span(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack:
                parent, batch = stack[-1][0], spans[stack[-1][0]][_BATCH]
            else:
                self._batch += 1
                parent, batch = None, self._batch
            index = len(spans)
            record = [name, 0, 0, parent, batch, 0, {}]
            spans.append(record)
            frame = [index, 0]
            stack.append(frame)
            record[_START] = started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                record[_END] = ended
                record[_SELF] = ended - started - frame[1]
                if stack:
                    stack[-1][1] += ended - started

        return traced

    def _counted(self, name, function):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def counted(*args, **kwargs):
            if not stack:  # outside any span (e.g. the ladder): not ours to count
                return function(*args, **kwargs)
            frame = [stack[-1][0], 0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                stack[-1][1] += elapsed
                totals = spans[frame[0]][_CALLS].setdefault(name, [0, 0, 0])
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]

        return counted

    # -- read-out -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per name: ``calls``, ``total_ns``, ``self_ns`` over all spans."""
        out: dict[str, dict[str, int]] = {}

        def add(name, calls, total, self_ns):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += calls
            entry["total_ns"] += total
            entry["self_ns"] += self_ns

        for record in self.spans:
            add(record[_NAME], 1, record[_END] - record[_START], record[_SELF])
            for name, (calls, total, self_ns) in record[_CALLS].items():
                add(name, calls, total, self_ns)
        return out

    def write(self, path) -> None:
        """One JSON line per span; see README.md for how to read them."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": record[_NAME],
                    "start_ns": record[_START],
                    "end_ns": record[_END],
                    "parent": record[_PARENT],
                    "batch": record[_BATCH],
                    "self_ns": record[_SELF],
                    "calls": {
                        name: {"calls": c, "total_ns": t, "self_ns": s}
                        for name, (c, t, s) in record[_CALLS].items()
                    },
                }) + "\n")
