"""The four workloads: what is built, what traffic it gets, and why.

A workload fixes a topology, a metric set, a traffic shape and a pinned
open-loop rate. The rates are constants (roughly 20-35 % of the closed-loop
capacity measured on the 2-core reference sandbox, see README.md); they
are never derived at run time, and only a later ``benchmark`` issue may
change them.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.engine import create_cluster
from repro.engine.processor import UnitConfig
from repro.reservoir.reservoir import ReservoirConfig
from repro.server.client import RailgunClient

from bench import gen

STREAM = "tx"
PARTITIONS = 4
PREFILL_BATCH = 256
FRONTDOOR_HOST = Path(__file__).resolve().parent / "frontdoor_host.py"
#: shard_wide's worker processes (the shipped default, spelled out)
SHARD_WORKERS = 2

SUM1 = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes",
)
#: three tail iterators plus the shared head; the 20-minute tail sits
#: 5-8 sealed chunks behind the head of each partition.
FRAUD3 = SUM1 + (
    "SELECT avg(amount), max(amount) FROM tx GROUP BY cardId OVER sliding 1 minutes",
    "SELECT min(amount), stddev(amount) FROM tx GROUP BY cardId OVER sliding 20 minutes",
)
#: the shipped cache (220 chunks) would keep every chunk these runs ever
#: seal resident; four chunks put the 20-minute tail's working set
#: outside it, so expiry reads sealed, zlib-compressed chunks back.
FRAUD3_CACHE_CHUNKS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topology: str  # "single" | "process" | "frontdoor"
    metrics: tuple[str, ...]
    wide: bool
    messy: bool
    prefill: int  # events sent before any timed phase (window full and expiring)
    closed_batch: int
    open_batch: int
    open_rate_eps: float  # pinned open-loop rate, events/s
    pool_eps: int  # events materialised per closed-loop second (> capacity)
    setup_repeats: int
    cache_chunks: int | None = None  # reservoir chunk cache; None = as shipped

    @property
    def schema(self) -> dict[str, str]:
        return gen.wide_schema() if self.wide else gen.NARROW_SCHEMA


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="single_steady",
            why="in-order events, three sliding windows, one process: the compute "
            "path (engine, plan, reservoir, aggregates, state/lsm) with windows expiring",
            topology="single", metrics=FRAUD3, wide=False, messy=False,
            prefill=14_336, closed_batch=256, open_batch=8, open_rate_eps=640.0,
            pool_eps=3_200, setup_repeats=1, cache_chunks=FRAUD3_CACHE_CHUNKS,
        ),
        Workload(
            name="single_messy",
            why="same engine with 20% timestamp ties, 10% late and 2% re-sent events: "
            "the per-event fallback, out-of-order insert/rewrite and dedup paths",
            topology="single", metrics=FRAUD3, wide=False, messy=True,
            prefill=14_336, closed_batch=256, open_batch=8, open_rate_eps=560.0,
            pool_eps=3_200, setup_repeats=1, cache_chunks=FRAUD3_CACHE_CHUNKS,
        ),
        Workload(
            name="shard_wide",
            why="32-field events and one cheap metric over two worker processes: codec, "
            "transport, dispatch and reply merge dominate, worker compute is minor",
            topology="process", metrics=SUM1, wide=True, messy=False,
            prefill=4_096, closed_batch=256, open_batch=16, open_rate_eps=1_440.0,
            pool_eps=8_000, setup_repeats=5,
        ),
        Workload(
            name="frontdoor_trips",
            why="4-event request/reply trips over the TCP front door of a server process: "
            "framing, admission and thread hops dominate, the engine is the minor share",
            topology="frontdoor", metrics=SUM1, wide=False, messy=False,
            prefill=4_096, closed_batch=4, open_batch=4, open_rate_eps=440.0,
            pool_eps=2_400, setup_repeats=5,
        ),
    )
}


class Target:
    """The system under test plus the one call the load generator makes.

    ``api`` is whatever a user would hold: the cluster facade, or a
    ``RailgunClient`` connection when the cluster lives in a child.
    """

    def __init__(self, workload: Workload) -> None:
        self.cluster = None
        self._host = None
        if workload.topology == "single":
            kwargs = {}
            if workload.cache_chunks is not None:
                kwargs["unit_config"] = UnitConfig(
                    reservoir=ReservoirConfig(cache_capacity=workload.cache_chunks)
                )
            self.api = self.cluster = create_cluster("single", **kwargs)
        elif workload.topology == "process":
            self.api = self.cluster = create_cluster("process", workers=SHARD_WORKERS)
        else:
            # bench/frontdoor_host.py serves until its stdin closes
            self._host = subprocess.Popen(
                [sys.executable, str(FRONTDOOR_HOST)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            try:
                if not select.select([self._host.stdout], [], [], 60.0)[0]:
                    raise RuntimeError("front-door host did not start")
                host, port = json.loads(self._host.stdout.readline())
                self.api = RailgunClient(host, port)
            except BaseException:
                self._stop_host()
                raise

    def send(self, events):
        return self.api.send_batch(STREAM, events)

    def telemetry(self) -> dict:
        """Merged stage snapshot, including processes we cannot wrap."""
        return self.api.telemetry() if self.cluster is not None else self.api.stats()

    def _stop_host(self) -> None:
        """End of input stops the host; returns once it has been reaped."""
        try:
            self._host.stdin.close()
        except OSError:
            pass
        try:
            self._host.wait(20.0)
        except subprocess.TimeoutExpired:
            self._host.kill()
            self._host.wait()
        self._host.stdout.close()

    def close(self) -> None:
        try:
            self.api.close()
        finally:
            if self._host is not None:
                self._stop_host()


def setup(workload: Workload, events, keep: int, lap):
    """Build, declare, prefill; returns the target and the first ``keep``
    prefill replies' result dicts (the oracle compares them). ``lap`` is
    called after every step so the caller can clock them."""
    target = Target(workload)
    try:
        target.api.create_stream(
            STREAM, ["cardId"], partitions=PARTITIONS, schema=workload.schema
        )
        for query in workload.metrics:
            target.api.create_metric(query)
        lap()
        head = []
        for start in range(0, workload.prefill, PREFILL_BATCH):
            batch = events[start:min(start + PREFILL_BATCH, workload.prefill)]
            replies = target.send(batch)
            if len(replies) != len(batch):
                raise RuntimeError(f"prefill lost replies: {len(replies)}/{len(batch)}")
            if len(head) < keep:
                head.extend(reply.results for reply in replies[:keep - len(head)])
            lap()
        return target, head
    except BaseException:
        target.close()
        raise
