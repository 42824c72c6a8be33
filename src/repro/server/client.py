"""Front-door clients: one protocol core, an asyncio and a blocking driver.

:class:`ClientProtocol` is the protocol, written once and without I/O:
it mints event ids, correlations and request ids, builds the request
frames (``Hello``, chunked ``IngestBatch``, ``DdlRequest``,
``StatsRequest``), settles server frames (``ReplyBatch`` /
``ServerBusy`` / ``DdlReply`` / ``StatsReply``) against what is
outstanding, and decides what a shed batch does next (retry, give up,
or fail as rejected). It never touches a socket; it is handed payloads
and hands back bytes. :class:`_ControlPlane` names each DDL call's
request once for both drivers.

Two drivers move those bytes:

- :class:`AsyncRailgunClient` — asyncio streams, a background receive
  task, one future per call; many calls may be in flight at once.
- :class:`RailgunClient` — a blocking ``TCP_NODELAY`` socket and a
  receive buffer, no thread and no event loop: a call writes its frames
  and reads until its own outstanding set is empty. A lock makes
  concurrent callers take turns.

Both return the same :class:`~repro.engine.cluster.Reply` objects every
in-process facade returns (results byte-identical to
``create_cluster("single")``; ``latency_ms`` is the client-observed
round trip), and both send byte-identical request frames for the same
script of calls.

Two deliberate API differences from the in-process facades:

- Dict sends must carry an explicit ``timestamp`` — the cluster's
  logical clock is not shared with remote processes, so there is no
  honest default. Event ids are minted as ``{session}-{seq:09d}``; the
  server-issued session prefix keeps ids unique across every client of
  the cluster.
- An over-quota batch raises :class:`ServerBusyError` (after
  ``busy_retries`` automatic retries honoring the server's
  ``retry_after_ms``) — load shedding is an explicit outcome, never a
  silent drop. A batch the cluster *rejected* (schema violation,
  unknown stream) raises a plain :class:`EngineError` at once: retrying
  the same events cannot succeed, so no retry is spent on it.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any, Iterable, Mapping

from repro.common.errors import EngineError, ReproError
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.catalog import normalize_fields
from repro.engine.frontend import Reply
from repro.events.event import Event
from repro.server.admission import REJECTED, LatencyBudget
from repro.server.framing import frame, read_frame, take_frame
from repro.shard import wire

#: Events per IngestBatch frame (mirrors ``repro.shard.cluster.INGEST_MAX``).
INGEST_CHUNK = 256


class ServerBusyError(EngineError):
    """The server shed load instead of accepting a batch."""

    def __init__(
        self, reason: str, retry_after_ms: int, correlations: tuple[int, ...]
    ) -> None:
        super().__init__(
            f"server busy ({reason}): {len(correlations)} events shed, "
            f"retry after {retry_after_ms}ms"
        )
        self.reason = reason
        self.retry_after_ms = retry_after_ms
        self.correlations = correlations


# -- the protocol, without I/O ------------------------------------------------


class _Call:
    """One request awaiting its answer. ``waiting`` (correlations, or
    the request id) empties as server frames settle; then ``value`` or
    ``error`` is final. ``waiter`` belongs to the driver: the asyncio
    client parks a future there, the blocking client leaves it unset."""

    __slots__ = ("waiting", "value", "error", "waiter")

    def __init__(self, waiting: Iterable[int] = ()) -> None:
        self.waiting = set(waiting)
        self.value: Any = None
        self.error: Exception | None = None
        self.waiter: Any = None


class _Batch(_Call):
    """A ``send_batch`` across its attempts: ``outstanding`` is what the
    next attempt must (re)send, ``shed`` what the last one was refused."""

    __slots__ = (
        "stream", "events", "replies", "outstanding", "shed", "reason",
        "retry_ms", "attempts", "started",
    )

    def __init__(self, stream: str, events: dict[int, Event]) -> None:
        super().__init__()
        self.stream = stream
        self.events = events  # correlation -> event, in send order
        self.replies: dict[int, Reply] = {}
        self.outstanding = list(events)
        self.shed: set[int] = set()
        self.reason = ""
        self.retry_ms = 0
        self.attempts = 0
        self.started = 0.0


class ClientProtocol:
    """The front-door protocol as a state machine over bytes.

    Requests come out as ready-to-write frames paired with the
    :class:`_Call` that tracks their answer; :meth:`settle` takes one
    received payload and returns the calls it completed. A driver's
    whole job is to write the former, feed the latter, and wait.
    """

    def __init__(
        self, tenant: str, token: str, time_source: TimeSource | None
    ) -> None:
        self.tenant = tenant
        self._token = token
        self.time_source = resolve_time_source(time_source)
        self.session = ""
        #: the tenant's latency target, as announced by the HelloAck.
        self.budget: LatencyBudget | None = None
        self.max_in_flight = 0
        self._next_correlation = 0
        self._next_request = 0
        self._seq = 0
        #: correlation -> the batch whose current attempt carries it.
        self._batches: dict[int, _Batch] = {}
        #: request id -> the DDL or stats call awaiting that reply.
        self._requests: dict[int, _Call] = {}
        #: set once the connection is lost; every later request fails fast.
        self.dead: EngineError | None = None

    # -- handshake ------------------------------------------------------------

    def hello(self) -> bytes:
        return frame(wire.encode(wire.Hello(self.tenant, self._token)))

    def welcome(self, payload: bytes | None) -> None:
        """Take the server's answer to :meth:`hello`; raises unless it
        is an accepting ``HelloAck``."""
        if payload is None:
            raise EngineError("server closed the connection during handshake")
        ack = wire.decode(payload)
        if not isinstance(ack, wire.HelloAck):
            raise EngineError(f"expected HelloAck, got {type(ack).__name__}")
        if not ack.ok:
            raise EngineError(f"server refused connection: {ack.error}")
        self.session = ack.session
        self.max_in_flight = ack.max_in_flight
        self.budget = LatencyBudget(ack.p50_budget_ms, ack.p99_budget_ms)

    def goodbye(self) -> bytes:
        return frame(wire.encode(wire.Goodbye()))

    # -- requests -------------------------------------------------------------

    def begin_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        timestamp: int | None,
    ) -> _Batch:
        """Mint ids and correlations for a ``send_batch``; nothing is
        outstanding at the server until :meth:`attempt`."""
        events = {}
        for item in batch:
            if not isinstance(item, Event):
                if timestamp is None:
                    raise EngineError(
                        "dict sends over TCP require an explicit timestamp: the "
                        "cluster's logical clock is not shared with remote clients"
                    )
                item = Event(f"{self.session}-{self._seq:09d}", timestamp, item)
                self._seq += 1
            events[self._next_correlation] = item
            self._next_correlation += 1
        return _Batch(stream, events)

    def attempt(self, batch: _Batch) -> bytes:
        """Frames (re)sending what the batch still owes, registered as
        awaiting their replies."""
        if self.dead is not None:
            raise self.dead
        sending = batch.outstanding
        batch.waiting = set(sending)
        batch.shed = set()
        batch.started = self.time_source.monotonic()
        self._batches.update(dict.fromkeys(sending, batch))
        events = batch.events
        return b"".join(
            frame(wire.encode(wire.IngestBatch(
                batch.stream,
                [(c, events[c], ()) for c in sending[start:start + INGEST_CHUNK]],
            )))
            for start in range(0, len(sending), INGEST_CHUNK)
        )

    def retry_delay(self, batch: _Batch, busy_retries: int) -> float:
        """Judge a settled attempt: seconds to wait before the next one
        (``batch.outstanding`` is then what was shed; empty when every
        reply is in), or raise — a rejection at once,
        :class:`ServerBusyError` once ``busy_retries`` are spent."""
        shed = [c for c in batch.outstanding if c in batch.shed]
        if shed and batch.reason.startswith(REJECTED):
            raise EngineError(
                f"batch rejected by the cluster: {batch.reason[len(REJECTED):]}"
            )
        if shed and batch.attempts >= busy_retries:
            raise ServerBusyError(batch.reason, batch.retry_ms, tuple(shed))
        batch.outstanding = shed
        batch.attempts += 1
        delay, batch.retry_ms = batch.retry_ms / 1000.0, 0
        return delay

    def request(self, build, *args, **fields) -> tuple[_Call, bytes]:
        """A ``wire.DdlRequest`` / ``wire.StatsRequest`` under a fresh
        request id, registered as awaiting its reply."""
        if self.dead is not None:
            raise self.dead
        self._next_request += 1
        call = self._requests[self._next_request] = _Call((self._next_request,))
        return call, frame(wire.encode(build(self._next_request, *args, **fields)))

    # -- settlement -----------------------------------------------------------

    def settle(self, payload: bytes) -> list[_Call]:
        """Apply one server frame; returns the calls it completed."""
        msg = wire.decode(payload)
        done: list[_Call] = []
        if isinstance(msg, wire.ReplyBatch):
            now = self.time_source.monotonic()
            for correlation, topic, results in msg.replies:
                batch = self._batches.pop(correlation, None)
                if batch is None:
                    continue  # raced with a local failure; drop
                batch.replies[correlation] = Reply(
                    event=batch.events[correlation],
                    stream=batch.stream or topic,
                    results=results or {},
                    latency_ms=int((now - batch.started) * 1000),
                )
                batch.waiting.discard(correlation)
                if not batch.waiting:
                    done.append(batch)
        elif isinstance(msg, wire.ServerBusy):
            for correlation in msg.correlations:
                batch = self._batches.pop(correlation, None)
                if batch is None:
                    continue
                batch.shed.add(correlation)
                batch.reason = msg.reason
                batch.retry_ms = max(batch.retry_ms, msg.retry_after_ms)
                batch.waiting.discard(correlation)
                if not batch.waiting:
                    done.append(batch)
        elif isinstance(msg, (wire.DdlReply, wire.StatsReply)):
            call = self._requests.pop(msg.request_id, None)
            if call is None:
                return done
            call.waiting.clear()
            if isinstance(msg, wire.StatsReply):
                try:
                    call.value = json.loads(bytes(msg.payload).decode())
                except ValueError as exc:
                    call.error = EngineError(f"bad stats payload: {exc}")
            elif msg.ok:
                call.value = msg.value
            else:
                call.error = EngineError(f"ddl failed: {msg.error}")
            done.append(call)
        else:
            return self.fail_all(
                EngineError(f"unexpected server frame {type(msg).__name__}")
            )
        return done

    def fail_all(self, error: EngineError) -> list[_Call]:
        """The connection is gone: fail every outstanding call with
        ``error`` and every later request on sight."""
        if self.dead is None:
            self.dead = error
        failed = {
            id(call): call
            for call in (*self._batches.values(), *self._requests.values())
        }
        self._batches.clear()
        self._requests.clear()
        for call in failed.values():
            call.waiting.clear()
            call.error = error
        return list(failed.values())


def _nothing(_value: int) -> None:
    return None


def _backfill_state(done: int) -> str:
    return "complete" if done else "running"


class _ControlPlane:
    """Everything but the data path, written once for both drivers:
    each method names its request and what the reply's value means, and
    the driver's ``_do`` makes the trip — so these *return* their result
    on :class:`RailgunClient` and an awaitable of it on
    :class:`AsyncRailgunClient`."""

    _proto: ClientProtocol
    tenant = property(lambda self: self._proto.tenant)
    session = property(lambda self: self._proto.session)
    budget = property(lambda self: self._proto.budget)
    max_in_flight = property(lambda self: self._proto.max_in_flight)

    def _do(self, returns, build, *args, **fields):
        raise NotImplementedError

    def stats(self) -> dict:
        """The server's merged telemetry snapshot (cluster processes +
        the front-door server's own counters) over a
        :class:`~repro.shard.wire.StatsRequest` round trip."""
        return self._do(dict, wire.StatsRequest)

    def create_stream(
        self,
        name: str,
        partitioners: Iterable[str],
        partitions: int = 4,
        schema: object = (),
        with_global_partitioner: bool = False,
    ) -> None:
        """Register a stream (mirrors the facade signature)."""
        return self._do(
            _nothing, wire.DdlRequest, "create_stream",
            name=name, fields=normalize_fields(schema),
            names=tuple(partitioners), number=partitions,
            flag=with_global_partitioner,
        )

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric; returns its id."""
        return self._do(
            int, wire.DdlRequest, "create_metric", text=query_text, flag=backfill
        )

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric after the fact: the server replays the
        partition log behind the live writer and splices the metric in
        without pausing ingest; returns its id."""
        return self._do(int, wire.DdlRequest, "backfill_metric", text=query_text)

    def backfill_status(self, metric_id: int) -> str:
        """``"running"`` until the backfill splice completes."""
        return self._do(
            _backfill_state, wire.DdlRequest, "backfill_status", number=metric_id
        )

    def delete_metric(self, metric_id: int) -> None:
        return self._do(_nothing, wire.DdlRequest, "delete_metric", number=metric_id)

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        return self._do(
            _nothing, wire.DdlRequest, "evolve_schema",
            name=stream, fields=normalize_fields(new_fields),
        )

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        return self._do(
            _nothing, wire.DdlRequest, "add_partitioner",
            name=stream, text=partitioner,
        )


# -- the asyncio driver -------------------------------------------------------


class AsyncRailgunClient(_ControlPlane):
    """One front-door connection; all methods must run on one loop."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        token: str = "",
        time_source: TimeSource | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._proto = ClientProtocol(tenant, token, time_source)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._recv_task: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def connect(self) -> "AsyncRailgunClient":
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._writer.write(self._proto.hello())
        await self._writer.drain()
        try:
            self._proto.welcome(await read_frame(self._reader))
        except EngineError:
            self._writer.close()
            raise
        self._recv_task = asyncio.ensure_future(self._recv_loop())
        return self

    async def close(self) -> None:
        """Say goodbye and release the socket; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            try:
                self._writer.write(self._proto.goodbye())
                await self._writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                pass
        if self._recv_task is not None:
            self._recv_task.cancel()
            try:
                await self._recv_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass
        self._lost("client closed")

    async def __aenter__(self) -> "AsyncRailgunClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- moving bytes ---------------------------------------------------------

    async def _recv_loop(self) -> None:
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    break
                self._wake(self._proto.settle(payload))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._lost(f"connection error: {exc}")
            return
        self._lost("connection closed by server")

    def _lost(self, why: str) -> None:
        self._wake(self._proto.fail_all(EngineError(why)))

    @staticmethod
    def _wake(calls: list[_Call]) -> None:
        for call in calls:
            if call.waiter is not None and not call.waiter.done():
                call.waiter.set_result(None)

    async def _trip(self, call: _Call, data: bytes) -> Any:
        """Write one request's frames and wait until it is settled."""
        call.waiter = asyncio.get_running_loop().create_future()
        try:
            self._writer.write(data)
            await self._writer.drain()
        except OSError as exc:
            self._lost(f"connection error: {exc}")
        await call.waiter
        if call.error is not None:
            raise call.error
        return call.value

    async def _do(self, returns, build, *args, **fields):
        return returns(await self._trip(*self._proto.request(build, *args, **fields)))

    # -- the data path --------------------------------------------------------

    async def send(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        busy_retries: int = 0,
    ) -> Reply:
        """Send one event and await its reply."""
        if event is None and fields is None:
            raise EngineError("either fields or event is required")
        item = fields if event is None else event
        return (await self.send_batch(stream, [item], timestamp, busy_retries))[0]

    async def send_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        timestamp: int | None = None,
        busy_retries: int = 0,
    ) -> list[Reply]:
        """Send a batch, await every reply; input order.

        A shed batch (``ServerBusy``) is retried up to ``busy_retries``
        times, sleeping the server's ``retry_after_ms`` between
        attempts and resending only the shed events; exhausted retries
        raise :class:`ServerBusyError` naming what was never accepted.
        """
        proto = self._proto
        call = proto.begin_batch(stream, batch, timestamp)
        while call.outstanding:
            await self._trip(call, proto.attempt(call))
            delay = proto.retry_delay(call, busy_retries)
            if call.outstanding:
                # real_delay: honors $RAILGUN_TIME_SCALE compression
                # without blocking the event loop in TimeSource.sleep.
                await asyncio.sleep(proto.time_source.real_delay(delay))
        return [call.replies[correlation] for correlation in call.events]


# -- the blocking driver ------------------------------------------------------


class RailgunClient(_ControlPlane):
    """The same connection for synchronous code: a blocking socket, no
    thread, no event loop. Use as a context manager::

        with RailgunClient(host, port, tenant="acme") as client:
            client.send("tx", event=my_event)

    Calls from several threads take turns under one lock. ``close()``
    from another thread shuts the socket down first, so a call blocked
    on the server fails with :class:`EngineError` instead of waiting out
    ``call_timeout`` (which bounds every single read).
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        token: str = "",
        connect_timeout: float = 10.0,
        call_timeout: float = 120.0,
        time_source: TimeSource | None = None,
    ) -> None:
        self._proto = ClientProtocol(tenant, token, time_source)
        self._lock = threading.Lock()
        self._buffer = bytearray()
        self._closed = False
        self._sock = socket.create_connection((host, port), connect_timeout)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(self._proto.hello())
            self._proto.welcome(self._read_frame())
            self._sock.settimeout(call_timeout)
        except (OSError, ReproError):
            self._sock.close()
            raise

    # -- moving bytes ---------------------------------------------------------

    def _read_frame(self) -> bytes | None:
        """Block until one whole frame is buffered; ``None`` on EOF."""
        while True:
            payload = take_frame(self._buffer)
            if payload is not None:
                return payload
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                return None
            self._buffer += chunk

    def _trip(self, call: _Call, data: bytes) -> Any:
        """Write one request's frames and read until it is settled.
        Caller holds the lock, so everything outstanding is this call's."""
        proto = self._proto
        try:
            self._sock.sendall(data)
            while call.waiting:
                payload = self._read_frame()
                if payload is None:
                    raise EngineError(
                        "client closed" if self._closed
                        else "connection closed by server"
                    )
                proto.settle(payload)
        except (OSError, ReproError) as exc:
            # A timed-out or broken stream has no frame boundary left to
            # resume from: the connection is done, not just this call.
            self._shutdown()
            proto.fail_all(
                exc if isinstance(exc, EngineError)
                else EngineError(f"connection error: {exc}")
            )
        if call.error is not None:
            raise call.error
        return call.value

    def _do(self, returns, build, *args, **fields):
        with self._lock:
            return returns(self._trip(*self._proto.request(build, *args, **fields)))

    def _shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    # -- the data path --------------------------------------------------------

    def send(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        busy_retries: int = 0,
    ) -> Reply:
        if event is None and fields is None:
            raise EngineError("either fields or event is required")
        item = fields if event is None else event
        return self.send_batch(stream, [item], timestamp, busy_retries)[0]

    def send_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        timestamp: int | None = None,
        busy_retries: int = 0,
    ) -> list[Reply]:
        """Send a batch, block for every reply; input order. Shedding
        and retries as :meth:`AsyncRailgunClient.send_batch`."""
        proto = self._proto
        with self._lock:
            call = proto.begin_batch(stream, batch, timestamp)
            while call.outstanding:
                self._trip(call, proto.attempt(call))
                delay = proto.retry_delay(call, busy_retries)
                if call.outstanding:
                    proto.time_source.sleep(delay)
            return [call.replies[correlation] for correlation in call.events]

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Say goodbye when idle, shut the socket down either way;
        idempotent, and safe from a thread other than a caller's."""
        if self._closed:
            return
        self._closed = True
        if self._lock.acquire(blocking=False):
            try:
                self._sock.sendall(self._proto.goodbye())
            except OSError:
                pass
            finally:
                self._lock.release()
        # Not under the lock: this is what wakes a call blocked in recv,
        # which then fails and releases it.
        self._shutdown()
        with self._lock:
            self._proto.fail_all(EngineError("client closed"))
            self._sock.close()

    def __enter__(self) -> "RailgunClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
