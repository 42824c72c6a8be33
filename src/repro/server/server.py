"""The asyncio ingest server: many TCP clients, one cluster.

One thread — the asyncio loop — accepts connections, parses
length-prefixed ``shard.wire`` frames, runs admission control, **calls
the cluster**, and writes replies back out per connection. No other
thread exists, so a trip hops none:

- The blocking facades (``RailgunCluster``, ``ParallelCluster``) are
  called right where the frame was decoded; the whole batch's replies
  go onto the connection's outbox as one ``ReplyBatch`` with one
  admission completion. The price, stated plainly: while a call runs (a
  256-event batch, a DDL settling, a worker restart inside
  ``ParallelCluster.send_batch``) the loop reads no socket, so
  handshakes and ``ServerBusy`` frames on other connections wait behind
  it — unread socket data is the queue, TCP is the back-pressure.
- A ``ClusterRouter`` is genuinely pipelined (many connections' batches
  in flight at once): a decoded batch is shipped to its frontend
  processes at once and its correlations go into the server's
  unanswered map. One drive task turns the router while that map is
  non-empty or a backfill runs, hands each completed reply to its
  connection, and between idle turns awaits the frontend pipes on this
  loop (``add_reader``, one 10 ms tick at most). ``ParallelCluster``
  stays inline because no served workload measures it.

A slow reader blocks only its own connection's writer task (TCP
backpressure on ``drain()``); its outbox is bounded by the tenant's
in-flight cap, because events stop being admitted when their replies
stop draining.

A batch the cluster rejects *before publishing anything* (schema
violation, unknown stream) is its sender's problem alone: answered
``ServerBusy("rejected: ...")``, ledger released, server carries on. A
failure after publish is recorded as ``driver_error``; every request
still unanswered and every later batch is answered
``ServerBusy("cluster-error")``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import traceback
import uuid
from collections import deque

from repro.common.errors import EngineError, ReproError, SerdeError
from repro.common.timesource import TimeSource, resolve_time_source
from repro.server.admission import REJECTED, AdmissionController
from repro.server.framing import FrameError, read_frame, write_frame
from repro.shard import wire
from repro.shard.router import ClusterRouter
from repro.telemetry import MetricsRegistry, StageLaps, merge_snapshots

#: Replies coalesced into one ReplyBatch frame per writer wakeup.
REPLY_CHUNK = 256

#: Longest idle wait between two turns of a served router; a reply on
#: one of its frontend pipes ends the wait sooner.
TICK_S = 0.01


def parse_url(url: str) -> tuple[str, int]:
    """Parse ``tcp://host:port`` (the only supported scheme)."""
    if not url.startswith("tcp://"):
        raise EngineError(f"unsupported serve url {url!r}: expected tcp://host:port")
    hostport = url[len("tcp://"):]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host:
        raise EngineError(f"unsupported serve url {url!r}: expected tcp://host:port")
    try:
        return host, int(port)
    except ValueError:
        raise EngineError(f"bad port in serve url {url!r}") from None


def _rejected(exc: Exception) -> str:
    """The ``ServerBusy`` reason for a batch the cluster refused whole
    before publishing: final (``retry_after_ms`` 0), and the client
    raises on it instead of retrying."""
    return f"{REJECTED}{type(exc).__name__}: {exc}"


# -- connections --------------------------------------------------------------


class _Connection:
    """Loop-thread state for one client socket: identity + outbox."""

    def __init__(self, tenant: str, writer: asyncio.StreamWriter) -> None:
        self.tenant = tenant
        self.writer = writer
        self.session = uuid.uuid4().hex[:12]
        #: completed replies and control frames awaiting the writer
        #: task; bounded transitively by the tenant's in-flight cap.
        self.outbox: deque = deque()
        self.wake = asyncio.Event()
        self.closed = False

    def enqueue_reply(self, correlation: int, stream: str, results: dict) -> None:
        """One reply, coalesced with its neighbours by the writer task."""
        if self.closed:
            return
        self.outbox.append((correlation, stream, results))
        self.wake.set()

    def enqueue_msg(self, msg: object) -> None:
        if self.closed:
            return
        self.outbox.append(msg)
        self.wake.set()

    def close(self) -> None:
        self.closed = True
        self.wake.set()
        try:
            self.writer.close()
        except RuntimeError:
            pass  # loop already closing


class RailgunServer:
    """Accepts front-door connections and multiplexes them onto one
    cluster facade. The server borrows the cluster — ``stop()`` leaves
    it open for its owner (a facade served by ``create_cluster(serve=...)``
    stops its server first in its own ``close``)."""

    def __init__(
        self,
        cluster,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
        tokens: dict[str, str] | None = None,
        time_source: TimeSource | None = None,
    ) -> None:
        self._cluster = cluster
        self._host = host
        self._port = port
        self._time = resolve_time_source(time_source)
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(time_source=self._time)
        )
        #: when set, Hello.token must match tokens[tenant] exactly.
        self._tokens = tokens
        #: the cluster when it is a router, driven from this loop by
        #: :meth:`_drive`; None for the blocking facades, called inline.
        self._router = cluster if isinstance(cluster, ClusterRouter) else None
        #: routed correlation -> (connection, client correlation,
        #: admitted at): the replies the router owes this server.
        self._unanswered: dict[int, tuple[_Connection, int, float]] = {}
        self._drive_task: asyncio.Task | None = None
        #: traceback of a cluster call that failed after publishing.
        self._call_error: str | None = None
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task] = set()
        self._stopped = False
        #: resolved once :meth:`stop` finished.
        self._closed: asyncio.Future | None = None
        self.address: tuple[str, int] | None = None
        self.metrics = MetricsRegistry("server", time_source=self._time)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "RailgunServer":
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, close all.

        ``drain=True`` answers every admitted batch and flushes every
        outbox before the sockets close; ``drain=False`` is the abrupt
        path — clients see EOF on their in-flight requests.
        """
        if self._stopped:
            return
        self._stopped = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
                # Its protocol factory holds our _handle: drop the cycle.
                self._server = None
            if drain:
                deadline = self._loop.time() + 10.0
                while (
                    self._unanswered
                    or any(conn.outbox for conn in self._connections)
                ) and self._loop.time() < deadline:
                    await asyncio.sleep(0.005)
            for conn in list(self._connections):
                conn.close()
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            self._connections.clear()
            drive = self._drive_task
            if drive is not None:
                drive.cancel()
                await asyncio.gather(drive, return_exceptions=True)
        finally:
            if self._closed is not None and not self._closed.done():
                self._closed.set_result(None)

    async def wait_closed(self) -> None:
        """Return once :meth:`stop` has finished."""
        await self._closed

    def stats(self) -> dict:
        """Admission counters (quotas, latency vs budget) + server-side
        connection/frame counters (a compat view over the registry)."""
        return {
            "admission": self.admission.stats(),
            "server": {
                "connections": len(self._connections),
                "frames_in": self.metrics.counter_value("server_frames_in_total"),
                "frames_out": self.metrics.counter_value("server_frames_out_total"),
                "busy_frames": self.metrics.counter_value("server_frames_busy_total"),
                "driver_error": self._call_error,
            },
        }

    def telemetry_snapshot(self) -> dict:
        """The server's own registry snapshot (loop-thread counters);
        merged with the cluster's ``telemetry()`` by ``_on_stats``."""
        self.metrics.gauge_set("server_connections_open", len(self._connections))
        return self.metrics.snapshot()

    # -- per-connection protocol ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        conn: _Connection | None = None
        admitted = False
        tenant = ""
        writer_task: asyncio.Task | None = None
        try:
            payload = await read_frame(reader)
            if payload is None:
                return
            hello = wire.decode(payload)
            if not isinstance(hello, wire.Hello):
                raise FrameError(
                    f"expected Hello, got {type(hello).__name__}"
                )
            tenant = hello.tenant
            if self._tokens is not None and self._tokens.get(tenant) != hello.token:
                await write_frame(
                    writer,
                    wire.encode(wire.HelloAck(False, error="bad tenant or token")),
                )
                return
            decision = self.admission.connect(tenant)
            if not decision.ok:
                await write_frame(
                    writer,
                    wire.encode(
                        wire.HelloAck(False, error=f"refused: {decision.reason}")
                    ),
                )
                return
            admitted = True
            conn = _Connection(tenant, writer)
            quota = self.admission.quota_for(tenant)
            await write_frame(
                writer,
                wire.encode(
                    wire.HelloAck(
                        True,
                        session=conn.session,
                        max_in_flight=quota.max_in_flight,
                        p50_budget_ms=quota.budget.p50_ms,
                        p99_budget_ms=quota.budget.p99_ms,
                    )
                ),
            )
            self._connections.add(conn)
            writer_task = asyncio.ensure_future(self._writer_loop(conn))
            while True:
                payload = await read_frame(reader)
                if payload is None:
                    break
                self.metrics.counter_add("server_frames_in_total")
                msg = wire.decode(payload)
                if isinstance(msg, wire.IngestBatch):
                    self._on_ingest(conn, msg)
                elif isinstance(msg, wire.DdlRequest):
                    self._on_ddl(conn, msg)
                elif isinstance(msg, wire.StatsRequest):
                    self._on_stats(conn, msg)
                elif isinstance(msg, wire.Goodbye):
                    break
                else:
                    raise FrameError(
                        f"unexpected client frame {type(msg).__name__}"
                    )
        except (FrameError, SerdeError, ConnectionError, OSError):
            pass  # protocol violation or peer vanished: drop the connection
        except asyncio.CancelledError:
            # Server stop cancels handler tasks; finish teardown normally
            # so the streams layer doesn't log the cancellation.
            pass
        finally:
            if conn is not None:
                # Flush what the outbox already holds (a clean Goodbye
                # arrives with no replies outstanding), then tear down.
                if not self._stopped:
                    flush_deadline = self._loop.time() + 5.0
                    while conn.outbox and self._loop.time() < flush_deadline:
                        await asyncio.sleep(0.005)
                conn.close()
                self._connections.discard(conn)
            if writer_task is not None:
                writer_task.cancel()
                try:
                    await writer_task
                except (asyncio.CancelledError, Exception):
                    pass
            if admitted:
                self.admission.disconnect(tenant)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass
            self._tasks.discard(task)

    def _on_ingest(self, conn: _Connection, msg: wire.IngestBatch) -> None:
        started = self._time.monotonic()
        correlations = [correlation for correlation, _, _ in msg.entries]
        events = [event for _, event, _ in msg.entries]
        if self._call_error is not None:
            self._shed(conn, "cluster-error", 0, correlations)
            return
        admit_started = self._time.monotonic()
        decision = self.admission.admit(conn.tenant, len(events))
        self.metrics.observe_since("server_admission_wait_ms", admit_started)
        if not decision.ok:
            self._shed(conn, decision.reason, decision.retry_after_ms, correlations)
            return
        router = self._router
        # Records published so far: a batch the cluster refused whole
        # before publishing leaves the count where it was.
        published = self._cluster._published
        called = self._time.monotonic()
        try:
            if router is None:
                replies = self._cluster.send_batch(msg.stream, events)
            else:
                routed = router._ship(msg.stream, events)
        except Exception as exc:
            self.admission.complete(conn.tenant, len(events))
            if isinstance(exc, ReproError) and self._cluster._published == published:
                self._shed(conn, _rejected(exc), 0, correlations)
            else:
                self._shed(conn, "cluster-error", 0, correlations)
                self._fail()
            return
        if router is not None:
            # The router answers each event as its fan-in completes, in
            # any order; the drive task collects them.
            router.metrics.counter_add("engine_batches_in_total")
            router.metrics.counter_add("engine_events_in_total", len(events))
            for ours, theirs in zip(routed, correlations):
                self._unanswered[ours] = (conn, theirs, started)
            self._collect()
            self._kick()
            return
        self.metrics.observe_since("server_cluster_call_ms", called)
        conn.enqueue_msg(
            wire.ReplyBatch(
                [
                    (correlation, reply.stream, reply.results)
                    for correlation, reply in zip(correlations, replies)
                ]
            )
        )
        elapsed_ms = (self._time.monotonic() - started) * 1000.0
        self.admission.complete(conn.tenant, len(events), elapsed_ms)
        self.metrics.observe_ms("server_request_ms", elapsed_ms)

    # -- driving a router -----------------------------------------------------

    def _kick(self) -> None:
        """Start the drive task if the router owes work and none runs."""
        if self._drive_task is None and (
            self._unanswered or self._router._backfilling()
        ):
            self._drive_task = self._loop.create_task(self._drive())

    async def _drive(self) -> None:
        """Turn the router while it owes a reply or runs a backfill.

        Every turn is non-blocking and followed by :meth:`_collect`; an
        idle turn is followed by a wait on the frontend pipes. A turn
        that raises fails every unanswered request (:meth:`_fail`) and
        ends the task.
        """
        router = self._router
        try:
            while self._call_error is None and (
                self._unanswered or router._backfilling()
            ):
                handled = router._turn(StageLaps(router.metrics))
                self._collect()
                if handled:
                    await asyncio.sleep(0)  # let the sockets have the loop
                else:
                    await self._await_pipes(router._waitables())
        except Exception:
            self._fail()
        finally:
            self._drive_task = None

    async def _await_pipes(self, conns: list) -> None:
        """Sleep until one of ``conns`` is readable or ``TICK_S`` passed;
        the readers never outlive the wait."""
        loop = self._loop
        woke = loop.create_future()

        def wake() -> None:
            if not woke.done():
                woke.set_result(None)

        timer = loop.call_later(TICK_S, wake)
        fds = [conn.fileno() for conn in conns]
        try:
            for fd in fds:
                loop.add_reader(fd, wake)
            await woke
        finally:
            timer.cancel()
            for fd in fds:
                loop.remove_reader(fd)

    def _collect(self) -> None:
        """Hand each reply the router completed to its connection."""
        completed = self._router.completed
        done = [c for c in completed if c in self._unanswered]
        if not done:
            return
        now = self._time.monotonic()
        for correlation in done:
            reply = completed.pop(correlation)
            conn, theirs, started = self._unanswered.pop(correlation)
            elapsed_ms = (now - started) * 1000.0
            self.admission.complete(conn.tenant, 1, elapsed_ms)
            self.metrics.observe_ms("server_request_ms", elapsed_ms)
            conn.enqueue_reply(theirs, reply.stream, reply.results)
        self._router.metrics.counter_add("engine_replies_out_total", len(done))

    def _fail(self) -> None:
        """A cluster call failed after publishing (call from an
        ``except`` block): record it, answer every unanswered request
        ``cluster-error`` and release its admission. Later batches are
        answered the same way."""
        self._call_error = traceback.format_exc(limit=8)
        owed: dict[_Connection, list[int]] = {}
        for conn, theirs, _ in self._unanswered.values():
            owed.setdefault(conn, []).append(theirs)
        self._unanswered.clear()
        for conn, correlations in owed.items():
            self.admission.complete(conn.tenant, len(correlations))
            self._shed(conn, "cluster-error", 0, correlations)

    def _shed(self, conn, reason: str, retry_ms: int, correlations: list) -> None:
        self.metrics.counter_add("server_frames_busy_total")
        conn.enqueue_msg(wire.ServerBusy(reason, retry_ms, tuple(correlations)))

    def _call(self, fn, on_done) -> None:
        """Run a control-plane call against the cluster, here on the
        loop thread, and hand ``on_done(result, error)`` its outcome. A
        blocking facade is settled with ``run_until_quiet`` so a
        following send lands on rebalanced assignments; a router is
        driven on instead (its backfills' clients poll the status), so
        what the call completed is collected and the drive task kicked."""
        router = self._router
        try:
            result = fn()
            if router is None:
                self._cluster.run_until_quiet()
        except Exception as exc:
            result, error = None, exc
        else:
            error = None
        if router is not None:
            self._collect()
            self._kick()
        on_done(result, error)

    def _on_ddl(self, conn: _Connection, msg: wire.DdlRequest) -> None:
        def on_done(result, error) -> None:
            if error is None:
                reply = wire.DdlReply(msg.request_id, True, int(result or 0))
            else:
                reply = wire.DdlReply(
                    msg.request_id, False, 0,
                    f"{type(error).__name__}: {error}",
                )
            conn.enqueue_msg(reply)

        self._call(lambda: self._run_ddl(msg), on_done)

    def _on_stats(self, conn: _Connection, msg: wire.StatsRequest) -> None:
        """Answer a StatsRequest with the merged cluster+server snapshot.

        The cluster's ``telemetry()`` runs wherever the cluster may be
        touched (it reads supervisor state); the server's own registry
        merges in afterwards, on the loop thread that owns it.
        """
        self.metrics.counter_add("server_stats_requests_total")
        telemetry = getattr(self._cluster, "telemetry", None)

        def on_done(result, error) -> None:
            if error is not None:
                merged = {"error": f"{type(error).__name__}: {error}"}
            else:
                # The server's metric names live in their own server_*
                # namespace, so folding its merged form into the
                # cluster's merged form stays exact: counters sum,
                # gauges/histograms never collide.
                merged = dict(result) if isinstance(result, dict) else {}
                own = merge_snapshots([self.telemetry_snapshot()])
                merged["processes"] = sorted(
                    set(merged.get("processes", ())) | set(own["processes"])
                )
                counters = dict(merged.get("counters", {}))
                for key, value in own["counters"].items():
                    counters[key] = counters.get(key, 0) + value
                merged["counters"] = dict(sorted(counters.items()))
                merged["gauges"] = {
                    **merged.get("gauges", {}), **own["gauges"],
                }
                merged["histograms"] = {
                    **merged.get("histograms", {}), **own["histograms"],
                }
                merged.setdefault("schema", own["schema"])
            payload = json.dumps(merged, sort_keys=True).encode("utf-8")
            conn.enqueue_msg(wire.StatsReply(msg.request_id, payload))

        self._call(lambda: telemetry() if telemetry is not None else {}, on_done)

    def _run_ddl(self, msg: wire.DdlRequest) -> int:
        cluster = self._cluster
        if msg.op == "create_stream":
            cluster.create_stream(
                msg.name,
                list(msg.names),
                partitions=msg.number,
                schema=msg.fields,
                with_global_partitioner=msg.flag,
            )
            return 0
        if msg.op == "create_metric":
            return cluster.create_metric(msg.text, backfill=msg.flag)
        if msg.op == "backfill_metric":
            # Define-after-the-fact: replay the partition log behind the
            # live writer, then splice. A blocking facade settles the
            # call with run_until_quiet, so the reply means "spliced";
            # the router keeps pumping and clients poll the status.
            return cluster.backfill_metric(msg.text)
        if msg.op == "backfill_status":
            status = cluster.backfill_status(msg.number)
            if status == "unknown":
                raise EngineError(f"unknown backfill metric {msg.number}")
            return 1 if status == "complete" else 0
        if msg.op == "delete_metric":
            cluster.delete_metric(msg.number)
            return 0
        if msg.op == "evolve_schema":
            cluster.evolve_schema(msg.name, msg.fields)
            return 0
        if msg.op == "add_partitioner":
            cluster.add_partitioner(msg.name, msg.text)
            return 0
        raise EngineError(f"unknown ddl op {msg.op!r}")

    async def _writer_loop(self, conn: _Connection) -> None:
        """Ship the outbox: coalesce replies into ReplyBatch frames.

        ``write_frame`` awaits the transport's drain, so a slow reader
        stalls exactly this task — frames queue in the outbox (bounded
        by the tenant's in-flight cap) instead of in kernel buffers.
        """
        try:
            while True:
                await conn.wake.wait()
                conn.wake.clear()
                while conn.outbox:
                    replies = []
                    while (
                        conn.outbox
                        and isinstance(conn.outbox[0], tuple)
                        and len(replies) < REPLY_CHUNK
                    ):
                        correlation, stream, results = conn.outbox.popleft()
                        replies.append((correlation, stream, results))
                    if replies:
                        frame = wire.encode(wire.ReplyBatch(replies))
                    else:
                        frame = wire.encode(conn.outbox.popleft())
                    await write_frame(conn.writer, frame)
                    self.metrics.counter_add("server_frames_out_total")
                if conn.closed:
                    return
        except (ConnectionError, OSError, RuntimeError):
            conn.closed = True  # peer gone; the reader side cleans up


# -- sync hosting -------------------------------------------------------------


class ServerHandle:
    """A server running on its own loop thread, controlled from sync
    code. ``create_cluster(serve=...)`` returns one as ``cluster.server``."""

    def __init__(
        self,
        server: RailgunServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        return self._server.address

    @property
    def server(self) -> RailgunServer:
        """The underlying server (admission controller, counters)."""
        return self._server

    def stats(self) -> dict:
        return self._server.stats()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the server; its loop thread ends with it. Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self._server.stop(drain=drain), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._thread.join(timeout=timeout)
            if not self._thread.is_alive():
                self._loop.close()


def serve_cluster(
    cluster,
    url: str = "tcp://127.0.0.1:0",
    admission: AdmissionController | None = None,
    tokens: dict[str, str] | None = None,
    time_source: TimeSource | None = None,
) -> ServerHandle:
    """Start a front-door server over ``cluster`` on a background loop
    thread and return its :class:`ServerHandle` (``.address`` carries
    the bound port when the url asked for port 0). The thread runs the
    server from :meth:`RailgunServer.start` to the end of
    :meth:`RailgunServer.stop`."""
    host, port = parse_url(url)
    server = RailgunServer(
        cluster, host, port, admission=admission, tokens=tokens,
        time_source=time_source,
    )
    loop = asyncio.new_event_loop()
    started: concurrent.futures.Future = concurrent.futures.Future()

    async def serve() -> None:
        try:
            await server.start()
        except BaseException as exc:
            started.set_exception(exc)
            return
        started.set_result(None)
        await server.wait_closed()

    thread = threading.Thread(
        target=loop.run_until_complete, args=(serve(),),
        name="railgun-server", daemon=True,
    )
    thread.start()
    try:
        started.result(timeout=10.0)
    except Exception:
        thread.join(timeout=5.0)
        if not thread.is_alive():
            loop.close()
        raise
    return ServerHandle(server, loop, thread)
