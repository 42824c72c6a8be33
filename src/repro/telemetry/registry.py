"""The telemetry plane: one registry per process, one merged snapshot.

Railgun's premise is MAD requirements — latency measured *at the
engine*, not inferred from client stopwatches (§2 of the paper). This
module is the reproduction's engine-side answer: every process
(coordinator, supervisor-owned worker, router frontend, TCP server)
owns a :class:`MetricsRegistry` of counters, gauges, and log-bucketed
histograms (reusing :class:`~repro.common.percentiles.LatencyRecorder`),
stamps durations through the :class:`~repro.common.timesource.TimeSource`
plane (so ``DeterministicTimeSource`` tests see exact values), and
serialises its state as a JSON *snapshot* that piggybacks on existing
reply/ack wire traffic back to the coordinator. The coordinator merges
snapshots — counters sum, gauges take the latest, histograms merge
bucket-by-bucket — into the single stable-schema dict every cluster
facade returns from ``telemetry()``.

Design rules, in order of importance:

- **Observation only.** Nothing in this module may influence reply
  contents; ``tests/test_batch_equivalence.py`` proves replies are
  byte-identical with telemetry on and off.
- **Lock-cheap.** A counter bump is a dict add under one small lock;
  a stage timing is two ``monotonic()`` reads. The perf gate holds
  total overhead on ``engine_ingest_process_4w`` under 5%.
- **Closed catalog.** Every metric name is declared in :data:`METRICS`
  (``<subsystem>_<noun>_<unit>`` snake_case); ``tools/check_telemetry.py``
  rejects unregistered literals at lint time.

``$RAILGUN_TELEMETRY=0`` disables the *measurement* plane — histogram
timings, the dispatch send stamp, and snapshot piggybacking. Plain counters and
gauges stay on regardless: they are core accounting (``stats()`` and
``total_messages_processed()`` read them) and cost one dict add.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.common import serde
from repro.common.percentiles import LatencyRecorder
from repro.common.timesource import TimeSource, resolve_time_source

#: Environment knob: ``0`` turns off histograms, send stamps, and snapshot
#: shipping (counters/gauges stay on). Inherited by child processes.
TELEMETRY_ENV = "RAILGUN_TELEMETRY"

#: Version stamped into every snapshot; bump on incompatible change.
SNAPSHOT_SCHEMA = 1

#: Histogram geometry shared by every registry so cross-process merges
#: are exact (LatencyRecorder.merge requires identical geometry).
HISTOGRAM_MIN_MS = 0.001
HISTOGRAM_RELATIVE_ERROR = 0.01

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: The closed metric catalog: name -> (kind, unit, owner stage, help).
#: ``tools/check_telemetry.py`` lints call-site literals against this
#: dict, and docs/OBSERVABILITY.md renders it as the metric table.
METRICS: dict[str, tuple[str, str, str, str]] = {
    # -- facade (coordinator) ------------------------------------------------
    "engine_batches_in_total": (
        COUNTER, "batches", "facade ingest",
        "Batches accepted by a cluster facade's send/send_batch.",
    ),
    "engine_events_in_total": (
        COUNTER, "events", "facade ingest",
        "Events accepted by a cluster facade's send/send_batch.",
    ),
    "engine_replies_out_total": (
        COUNTER, "replies", "facade reply",
        "Replies delivered to facade callers (chaos invariant: equals "
        "engine_events_in_total once the cluster is quiet).",
    ),
    "engine_ingest_ms": (
        HISTOGRAM, "ms", "facade ingest",
        "Routing/journalling a caller batch into per-task queues.",
    ),
    "engine_dispatch_ms": (
        HISTOGRAM, "ms", "facade dispatch",
        "Framing queued records into WorkBatch frames and shipping them.",
    ),
    "engine_collect_ms": (
        HISTOGRAM, "ms", "facade collect",
        "Draining worker/frontend completions (includes remote work time).",
    ),
    "engine_reply_ms": (
        HISTOGRAM, "ms", "facade reply",
        "Merging completions into caller-visible Reply objects.",
    ),
    "engine_batch_ms": (
        HISTOGRAM, "ms", "facade",
        "End-to-end wall time of one send_batch call; the four stage "
        "histograms above decompose this within 10%.",
    ),
    # -- worker --------------------------------------------------------------
    "worker_batches_total": (
        COUNTER, "batches", "worker",
        "WorkBatch frames processed by this worker process.",
    ),
    "worker_records_total": (
        COUNTER, "records", "worker",
        "Records processed by this worker process.",
    ),
    "worker_replies_total": (
        COUNTER, "replies", "worker",
        "Reply payloads emitted by this worker process.",
    ),
    "worker_queue_wait_ms": (
        HISTOGRAM, "ms", "worker",
        "WorkBatch age on arrival: worker receive time minus the "
        "dispatcher's send stamp (system-wide CLOCK_MONOTONIC).",
    ),
    "worker_process_batch_ms": (
        HISTOGRAM, "ms", "worker",
        "TaskProcessor.process_batch wall time (includes reservoir "
        "appends, which are interleaved with window bookkeeping).",
    ),
    "worker_reservoir_append_ms": (
        HISTOGRAM, "ms", "worker",
        "Reservoir append_batch calls inside process_batch (a subset "
        "of worker_process_batch_ms, not an additional stage).",
    ),
    "worker_plan_ms": (
        HISTOGRAM, "ms", "worker",
        "The task plan's turns for one fresh run inside process_batch: "
        "iterator advances, folds and reply assembly (a subset of "
        "worker_process_batch_ms, not an additional stage).",
    ),
    "worker_checkpoint_ms": (
        HISTOGRAM, "ms", "worker checkpoint",
        "TaskProcessor.checkpoint wall time: writing the dirty "
        "aggregators back, the LSM merges that triggers, and the "
        "reservoir and table file export.",
    ),
    "worker_checkpoint_dirty_entries_total": (
        COUNTER, "entries", "worker checkpoint",
        "Aggregator states checkpoints wrote back into the LSM — what "
        "a checkpoint has to write.",
    ),
    "worker_lsm_compactions_total": (
        COUNTER, "merges", "worker checkpoint",
        "LSM run merges checkpoints triggered — what they rewrote on "
        "top of the dirty entries.",
    ),
    "worker_checkpoint_bytes_total": (
        COUNTER, "bytes", "worker checkpoint",
        "Reservoir metadata and file bytes this worker shipped in "
        "checkpoint frames: only what the supervisor's store lacked.",
    ),
    "worker_reply_merge_ms": (
        HISTOGRAM, "ms", "worker",
        "Filtering processor output against reply_from and building "
        "the BatchDone reply list.",
    ),
    # -- supervisor (worker control plane) -----------------------------------
    "supervisor_worker_records_total": (
        COUNTER, "records", "supervisor",
        "Records credited to each worker (label = worker id); the sum "
        "is total_messages_processed().",
    ),
    "supervisor_worker_replies_total": (
        COUNTER, "replies", "supervisor",
        "Replies credited to each worker (label = worker id).",
    ),
    "supervisor_worker_restarts_total": (
        COUNTER, "restarts", "supervisor",
        "Worker process restarts (label = worker id).",
    ),
    "supervisor_checkpoint_acks_total": (
        COUNTER, "acks", "supervisor",
        "Checkpoint acknowledgements received (label = worker id).",
    ),
    "supervisor_checkpoint_bytes_total": (
        COUNTER, "bytes", "supervisor",
        "Reservoir metadata and file bytes the checkpoint store ingested "
        "from acks (label = worker id).",
    ),
    "supervisor_checkpoint_acks_late_total": (
        COUNTER, "acks", "supervisor",
        "Checkpoint acks that arrived after their barrier retired "
        "(label = worker id).",
    ),
    # -- frontends ------------------------------------------------------------
    "frontend_events_ingested_total": (
        COUNTER, "events", "frontend ingest",
        "Events accepted by this frontend process.",
    ),
    "frontend_replies_collected_total": (
        COUNTER, "replies", "frontend reply merge",
        "Worker replies collected by this frontend process.",
    ),
    "frontend_ingest_ms": (
        HISTOGRAM, "ms", "frontend ingest",
        "IngestBatch admission into per-task queues on a frontend.",
    ),
    "frontend_dispatch_ms": (
        HISTOGRAM, "ms", "frontend dispatch",
        "Framing and shipping WorkBatch frames to workers.",
    ),
    "frontend_reply_merge_ms": (
        HISTOGRAM, "ms", "frontend reply merge",
        "Absorbing BatchDone frames into the frontend reply buffer.",
    ),
    "frontend_fsync_ms": (
        HISTOGRAM, "ms", "frontend durability",
        "sync_durable(): durable-bus flush plus consistent-cut write.",
    ),
    "frontend_outstanding_batches": (
        GAUGE, "batches", "frontend dispatch",
        "WorkBatch frames this frontend has in flight to its workers "
        "right now (its credit count).",
    ),
    # -- front layer ---------------------------------------------------------
    "router_events_routed_total": (
        COUNTER, "events", "router",
        "Events the front layer routed to each frontend (label = "
        "frontend id).",
    ),
    "router_replies_merged_total": (
        COUNTER, "replies", "router",
        "Replies the front layer merged from each frontend (label = "
        "frontend id).",
    ),
    "router_frontend_restarts_total": (
        COUNTER, "restarts", "router",
        "Frontend process restarts (label = frontend id).",
    ),
    # -- TCP front door ------------------------------------------------------
    "server_frames_in_total": (
        COUNTER, "frames", "server",
        "Wire frames read from client connections.",
    ),
    "server_frames_out_total": (
        COUNTER, "frames", "server",
        "Wire frames written to client connections.",
    ),
    "server_frames_busy_total": (
        COUNTER, "frames", "server",
        "ServerBusy pushback frames sent under admission pressure.",
    ),
    "server_stats_requests_total": (
        COUNTER, "frames", "server",
        "StatsRequest frames served.",
    ),
    "server_connections_open": (
        GAUGE, "connections", "server",
        "Client connections currently open.",
    ),
    "server_admission_wait_ms": (
        HISTOGRAM, "ms", "server admission",
        "Time an IngestBatch waited for admission credit.",
    ),
    "server_request_ms": (
        HISTOGRAM, "ms", "server",
        "IngestBatch handling time from decoded frame to replies on the "
        "connection's outbox (router: per reply; blocking facade: per batch).",
    ),
    "server_cluster_call_ms": (
        HISTOGRAM, "ms", "server",
        "Time the loop thread spent inside a blocking facade's send_batch, "
        "per IngestBatch (server_request_ms minus this is the server's own "
        "share of a trip).",
    ),
}

def telemetry_enabled() -> bool:
    """Whether the measurement plane (histograms/stamps/snapshots) is on."""
    return os.environ.get(TELEMETRY_ENV, "1") != "0"


class MetricsRegistry:
    """Process-local metric store with a serialisable snapshot.

    ``process`` names this process in merged snapshots (for example
    ``"coordinator"``, ``"worker:shard-1"``, ``"frontend:fe-0"``); the
    merge dedups by that name, keeping the freshest snapshot per
    process, so the same worker snapshot arriving via two frontends is
    never double-counted.

    Counters and gauges always record (they back ``stats()`` compat
    views and flow-control accounting). Histogram observation and
    :meth:`time_stage` respect ``enabled`` — resolved from
    ``$RAILGUN_TELEMETRY`` at construction unless passed explicitly.
    """

    def __init__(
        self,
        process: str,
        time_source: TimeSource | None = None,
        enabled: bool | None = None,
    ) -> None:
        self.process = process
        self.enabled = telemetry_enabled() if enabled is None else bool(enabled)
        self._time = resolve_time_source(time_source)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyRecorder] = {}
        self._seq = 0

    # -- recording -------------------------------------------------------------

    def counter_add(self, name: str, n: int = 1, label: str | None = None) -> None:
        """Add ``n`` to a counter; ``label`` makes a per-entity series
        (stored flat as ``name[label]``). Always on."""
        key = name if label is None else f"{name}[{label}]"
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def counter_value(self, name: str, label: str | None = None) -> int:
        key = name if label is None else f"{name}[{label}]"
        with self._lock:
            return self._counters.get(key, 0)

    def counter_sum(self, name: str) -> int:
        """Sum a counter across all labels (plus the unlabelled series)."""
        prefix = f"{name}["
        with self._lock:
            return sum(
                v for k, v in self._counters.items()
                if k == name or k.startswith(prefix)
            )

    def counter_labels(self, name: str) -> dict[str, int]:
        """The per-label values of a labelled counter."""
        prefix = f"{name}["
        with self._lock:
            return {
                k[len(prefix):-1]: v
                for k, v in self._counters.items()
                if k.startswith(prefix) and k.endswith("]")
            }

    def gauge_set(self, name: str, value: float, label: str | None = None) -> None:
        """Set a gauge to its current value. Always on."""
        key = name if label is None else f"{name}[{label}]"
        with self._lock:
            self._gauges[key] = value

    def observe_ms(self, name: str, value_ms: float) -> None:
        """Record one duration sample; no-op when disabled. Values are
        clamped at zero — cross-process monotonic deltas can go
        fractionally negative under clock scaling."""
        if not self.enabled:
            return
        with self._lock:
            recorder = self._histograms.get(name)
            if recorder is None:
                recorder = LatencyRecorder(HISTOGRAM_MIN_MS, HISTOGRAM_RELATIVE_ERROR)
                self._histograms[name] = recorder
            recorder.record(max(0.0, value_ms))

    def observe_since(self, name: str, started: float) -> None:
        """Record ``now - started`` (seconds on this registry's
        :class:`TimeSource`) into histogram ``name``."""
        if not self.enabled:
            return
        self.observe_ms(name, (self._time.monotonic() - started) * 1000.0)

    def now(self) -> float:
        """This registry's monotonic clock (seconds); the stamp to pair
        with :meth:`observe_since`."""
        return self._time.monotonic()

    @contextmanager
    def time_stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into histogram ``name``; free when
        disabled."""
        if not self.enabled:
            yield
            return
        started = self._time.monotonic()
        try:
            yield
        finally:
            self.observe_since(name, started)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """This process's state as one JSON-safe dict (single-process
        snapshot; see :func:`merge_snapshots` for the merged schema)."""
        with self._lock:
            self._seq += 1
            histograms = {}
            for name, rec in self._histograms.items():
                # No percentiles here on purpose: merge_snapshots
                # recomputes them exactly from the buckets, and raw
                # snapshots are encoded on the worker's hot path.
                histograms[name] = {
                    "count": rec.count,
                    "sum_ms": rec._sum,
                    "max_ms": rec.max_value,
                    "min_ms": rec.min_value,
                    "buckets": {str(i): n for i, n in sorted(rec._buckets.items())},
                }
            return {
                "schema": SNAPSHOT_SCHEMA,
                "process": self.process,
                "seq": self._seq,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": histograms,
            }


class StageLaps:
    """Consecutive stage timers that tile one span of work exactly.

    :meth:`lap` closes the running stage at *now* and opens the next one
    at the same instant, so nothing between the first and the last lap
    escapes every stage: the stage histograms sum to :meth:`total`
    bit-for-bit (what ``check_telemetry_decomposition`` relies on).
    Free when the registry is disabled.
    """

    __slots__ = ("_registry", "started", "mark")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self.started = self.mark = registry.now() if registry.enabled else 0.0

    def lap(self, stage: str) -> None:
        """Observe the time since the previous lap into ``stage``."""
        registry = self._registry
        if registry.enabled:
            now = registry.now()
            registry.observe_ms(stage, (now - self.mark) * 1000.0)
            self.mark = now

    def total(self, name: str) -> None:
        """Observe the whole span, first lap to last, into ``name``."""
        if self._registry.enabled:
            self._registry.observe_ms(name, (self.mark - self.started) * 1000.0)


def _recorder_from_snapshot(hist: dict) -> LatencyRecorder:
    """Rebuild a LatencyRecorder from a snapshot's bucket dict so merged
    percentiles are computed over the union, not averaged."""
    rec = LatencyRecorder(HISTOGRAM_MIN_MS, HISTOGRAM_RELATIVE_ERROR)
    rec._buckets = {int(i): int(n) for i, n in hist.get("buckets", {}).items()}
    rec._count = int(hist.get("count", 0))
    rec._sum = float(hist.get("sum_ms", 0.0))
    rec._max = float(hist.get("max_ms", 0.0))
    if rec._count:
        rec._min_seen = float(hist.get("min_ms", 0.0))
    return rec


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-process snapshots into the facade-level schema.

    Snapshots are deduped by ``process`` name keeping the highest
    ``seq`` (the same worker snapshot can arrive via several frontends);
    then counters sum, gauges keep the value from the freshest process
    to report them, and histograms merge bucket-by-bucket so merged
    percentiles are exact over the union of samples.
    """
    latest: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        name = snap.get("process", "?")
        prev = latest.get(name)
        if prev is None or snap.get("seq", 0) >= prev.get("seq", 0):
            latest[name] = snap

    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    recorders: dict[str, LatencyRecorder] = {}
    for name in sorted(latest):
        snap = latest[name]
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + int(value)
        gauges.update(snap.get("gauges", {}))
        for key, hist in snap.get("histograms", {}).items():
            rec = _recorder_from_snapshot(hist)
            if key in recorders:
                recorders[key].merge(rec)
            else:
                recorders[key] = rec

    histograms = {}
    for key in sorted(recorders):
        rec = recorders[key]
        histograms[key] = {
            "count": rec.count,
            "sum_ms": rec._sum,
            "max_ms": rec.max_value,
            "min_ms": rec.min_value,
            "mean_ms": rec.mean,
            "p50_ms": rec.percentile(50.0),
            "p95_ms": rec.percentile(95.0),
            "p99_ms": rec.percentile(99.0),
        }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "processes": sorted(latest),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": histograms,
    }


# -- wire encoding -------------------------------------------------------------


def encode_snapshot(snapshot: dict) -> bytes:
    """One snapshot as canonical JSON bytes (piggybacks on BatchDone)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode()


def decode_snapshot(data: bytes) -> dict:
    return json.loads(data.decode())


def encode_bundle(parts: Iterable[bytes]) -> bytes:
    """Several already-encoded snapshots as one blob (piggybacks on a
    ReplyBatch last chunk): length-prefixed concatenation, so a
    frontend forwards worker snapshots without re-serialising them."""
    parts = list(parts)
    buf = bytearray()
    serde.write_varint(buf, len(parts))
    for part in parts:
        serde.write_bytes(buf, part)
    return bytes(buf)


def decode_bundle(data: bytes) -> list[dict]:
    view = memoryview(data)
    count, offset = serde.read_varint(view, 0)
    snaps = []
    for _ in range(count):
        part, offset = serde.read_bytes(view, offset)
        snaps.append(decode_snapshot(bytes(part)))
    return snaps


# -- text exposition -----------------------------------------------------------


def _prom_series(key: str) -> str:
    """``name[label]`` -> ``name{label="..."}`` Prometheus syntax."""
    if key.endswith("]") and "[" in key:
        name, _, label = key.partition("[")
        return f'{name}{{label="{label[:-1]}"}}'
    return key


def to_prometheus(merged: dict) -> str:
    """Prometheus-style text exposition of a merged snapshot."""
    lines: list[str] = []
    for key in sorted(merged.get("counters", {})):
        base = key.partition("[")[0]
        _, unit, stage, help_ = METRICS.get(base, (COUNTER, "", "", ""))
        if help_:
            lines.append(f"# HELP {base} {help_}")
            lines.append(f"# TYPE {base} counter")
        lines.append(f"{_prom_series(key)} {merged['counters'][key]}")
    for key in sorted(merged.get("gauges", {})):
        base = key.partition("[")[0]
        _, unit, stage, help_ = METRICS.get(base, (GAUGE, "", "", ""))
        if help_:
            lines.append(f"# HELP {base} {help_}")
            lines.append(f"# TYPE {base} gauge")
        lines.append(f"{_prom_series(key)} {merged['gauges'][key]}")
    for key in sorted(merged.get("histograms", {})):
        hist = merged["histograms"][key]
        _, unit, stage, help_ = METRICS.get(key, (HISTOGRAM, "ms", "", ""))
        if help_:
            lines.append(f"# HELP {key} {help_}")
            lines.append(f"# TYPE {key} summary")
        lines.append(f"{key}_count {hist['count']}")
        lines.append(f"{key}_sum {hist['sum_ms']}")
        for pct in ("p50_ms", "p95_ms", "p99_ms"):
            lines.append(f'{key}{{quantile="0.{pct[1:-3]}"}} {hist[pct]}')
        lines.append(f"{key}_max {hist['max_ms']}")
    return "\n".join(lines) + "\n"
