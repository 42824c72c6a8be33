"""Front-door contract tests: the asyncio ingest server over real TCP.

The properties pinned here are the ones multi-client operation lives
on:

- **Per-key ordering with racing clients**: each client's events for a
  key are observed in that client's send order, and the cluster
  serializes all clients' events per key (the reply counts for a key
  form exactly ``{1..N}``).
- **Explicit shedding**: an over-quota batch is answered with
  ``ServerBusy`` naming every shed correlation — the ledger proves
  nothing was silently dropped — and the client can retry to
  completion.
- **Failure isolation**: a client that stops reading stalls only its
  own connection; other tenants' traffic flows.
- **Reconnect**: window state lives in the cluster, not the
  connection — a new connection resumes exactly where the old one
  left off.
- **Clean teardown**: a stopped server refuses new connections, fails
  in-flight requests with an error (not a hang), and leaves no server
  threads behind.
- **No thread hops**: every facade is served by the loop thread alone
  (a blocking facade answers one ``ReplyBatch`` frame per
  ``IngestBatch``; a router is driven by a task on that loop), and the
  blocking client starts no thread at all.
- **One bad batch is one connection's problem**: a batch the cluster
  rejects before publishing is answered to its sender and the server
  keeps serving everyone.
- **One protocol, two drivers**: the blocking and asyncio clients send
  the same bytes and return the same replies for the same script.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import pytest

from repro.common import serde
from repro.common.errors import EngineError
from repro.common.timesource import DeterministicTimeSource, default_time_source
from repro.engine.cluster import RailgunCluster, create_cluster
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.server.admission import AdmissionController, TenantQuota
from repro.server.client import AsyncRailgunClient, RailgunClient, ServerBusyError
from repro.server.server import parse_url, serve_cluster
from repro.shard import wire
from repro.shard.router import ClusterRouter

STREAM_KW = dict(partitions=4, schema={"cardId": "string", "amount": "float"})
METRIC = "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes"


def make_single() -> RailgunCluster:
    cluster = RailgunCluster(nodes=1, processor_units=2)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    cluster.create_metric(METRIC)
    cluster.run_until_quiet()
    return cluster


def count_of(reply) -> int:
    (groups,) = reply.results.values()
    return groups["count(*)"]


def server_threads() -> list[str]:
    """Every thread the front door (either end of it) is running."""
    return sorted(
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("railgun-server", "railgun-client"))
    )


class TestParseUrl:
    def test_accepts_tcp_host_port(self):
        assert parse_url("tcp://127.0.0.1:8091") == ("127.0.0.1", 8091)
        assert parse_url("tcp://0.0.0.0:0") == ("0.0.0.0", 0)

    @pytest.mark.parametrize(
        "url", ["http://x:1", "tcp://:1", "tcp://host", "tcp://host:x"]
    )
    def test_rejects_malformed_urls(self, url):
        with pytest.raises(EngineError):
            parse_url(url)


class TestHandshake:
    def test_bad_token_is_refused(self):
        cluster = make_single()
        handle = serve_cluster(cluster, tokens={"acme": "s3cret"})
        host, port = handle.address
        try:
            with pytest.raises(EngineError, match="bad tenant or token"):
                RailgunClient(host, port, tenant="acme", token="wrong")
            with pytest.raises(EngineError, match="bad tenant or token"):
                RailgunClient(host, port, tenant="stranger")
            with RailgunClient(host, port, tenant="acme", token="s3cret") as ok:
                assert ok.session
        finally:
            handle.stop()
            cluster.close()

    def test_connection_cap_is_refused_not_queued(self):
        cluster = make_single()
        admission = AdmissionController(
            default_quota=TenantQuota(max_connections=1)
        )
        handle = serve_cluster(cluster, admission=admission)
        host, port = handle.address
        try:
            with RailgunClient(host, port) as first:
                assert first.session
                with pytest.raises(EngineError, match="tenant-connections"):
                    RailgunClient(host, port)
            # The slot frees on disconnect.
            with RailgunClient(host, port) as again:
                assert again.session
        finally:
            handle.stop()
            cluster.close()

    def test_hello_ack_carries_budget(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            with RailgunClient(host, port) as client:
                quota = handle.server.admission.quota_for("default")
                assert client.budget.p50_ms == quota.budget.p50_ms
                assert client.budget.p99_ms == quota.budget.p99_ms
        finally:
            handle.stop()
            cluster.close()


class TestConcurrentOrdering:
    def test_racing_clients_keep_per_key_order(self):
        # 4 async clients hammer the same 3 keys through a sharded
        # router backend. Per client+key the observed counts must be
        # strictly increasing (its own sends processed in order); per
        # key the union across clients must be exactly {1..N} (the
        # cluster serialized every racing event, dropping none and
        # double-counting none).
        cluster = ClusterRouter(workers=2, frontends=2)
        cluster.create_stream("tx", ["cardId"], **STREAM_KW)
        cluster.create_metric(METRIC)
        handle = serve_cluster(cluster)
        host, port = handle.address
        keys = ["k0", "k1", "k2"]
        per_client = 30

        async def one_client(n):
            async with AsyncRailgunClient(host, port, tenant=f"t{n}") as client:
                events = [
                    {"cardId": keys[i % len(keys)], "amount": float(i)}
                    for i in range(per_client)
                ]
                replies = await client.send_batch("tx", events, timestamp=1_000)
                return [
                    (keys[i % len(keys)], count_of(reply))
                    for i, reply in enumerate(replies)
                ]

        async def main():
            return await asyncio.gather(*(one_client(n) for n in range(4)))

        try:
            observations = asyncio.run(main())
        finally:
            handle.stop()
            cluster.close()

        for per_key_counts in observations:
            seen: dict[str, int] = {}
            for key, count in per_key_counts:
                assert count > seen.get(key, 0), "client's own order violated"
                seen[key] = count
        for key in keys:
            counts = sorted(
                count
                for client_obs in observations
                for observed_key, count in client_obs
                if observed_key == key
            )
            total = 4 * per_client // len(keys)
            assert counts == list(range(1, total + 1))


class TestQuotaShedding:
    def build(self):
        cluster = make_single()
        # Refill slow enough (100/s) that a scheduler hiccup between
        # two back-to-back batches cannot quietly refill the bucket
        # and admit what the test expects to see shed.
        admission = AdmissionController(
            default_quota=TenantQuota(events_per_sec=100.0, burst=30)
        )
        handle = serve_cluster(cluster, admission=admission)
        return cluster, handle

    def test_over_quota_raises_server_busy_never_drops(self):
        cluster, handle = self.build()
        host, port = handle.address
        try:
            with RailgunClient(host, port) as client:
                batch = [
                    {"cardId": "c0", "amount": 1.0} for _ in range(20)
                ]
                assert len(client.send_batch("tx", batch, timestamp=1_000)) == 20
                with pytest.raises(ServerBusyError) as excinfo:
                    client.send_batch("tx", batch, timestamp=1_000)
                assert excinfo.value.reason == "tenant-rate"
                assert excinfo.value.retry_after_ms >= 1
                assert len(excinfo.value.correlations) == 20
            tenant = handle.stats()["admission"]["tenants"]["default"]
            # The ledger accounts for every event attempted: nothing
            # vanished without either a reply or a ServerBusy.
            assert tenant["admitted_events"] == 20
            assert tenant["shed_events"] == 20
            assert handle.stats()["server"]["busy_frames"] == 1
        finally:
            handle.stop()
            cluster.close()

    def test_busy_retries_complete_the_batch(self):
        cluster, handle = self.build()
        host, port = handle.address
        try:
            with RailgunClient(host, port) as client:
                batch = [
                    {"cardId": "c0", "amount": 1.0} for _ in range(20)
                ]
                client.send_batch("tx", batch, timestamp=1_000)
                # Shed once, then admitted after honoring retry_after_ms
                # (the bucket refills at 100/s: ~100ms for 10 tokens).
                replies = client.send_batch(
                    "tx", batch, timestamp=1_000, busy_retries=10
                )
                assert len(replies) == 20
                assert count_of(replies[-1]) == 40
            tenant = handle.stats()["admission"]["tenants"]["default"]
            assert tenant["admitted_events"] == 40
            assert tenant["shed_events"] >= 20
        finally:
            handle.stop()
            cluster.close()


class TestSlowReader:
    def test_stalled_reader_does_not_block_other_tenants(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            # A raw socket that completes the handshake, ships a batch,
            # then never reads another byte.
            stalled = socket.create_connection((host, port))
            stalled.sendall(_frame(wire.encode(wire.Hello("sloth", ""))))
            _read_frame_sync(stalled)  # HelloAck
            events = [
                (i, Event(f"sloth-{i}", 1_000, {"cardId": "s", "amount": 1.0}), ())
                for i in range(50)
            ]
            stalled.sendall(_frame(wire.encode(wire.IngestBatch("tx", events))))
            # A well-behaved tenant on its own connection is unaffected.
            with RailgunClient(host, port, tenant="prompt") as client:
                replies = client.send_batch(
                    "tx",
                    [{"cardId": "p", "amount": 1.0} for _ in range(30)],
                    timestamp=1_000,
                )
                assert [count_of(r) for r in replies] == list(range(1, 31))
            default_time_source().wait_until(
                lambda: handle.stats()["admission"]["in_flight"] == 0,
                timeout=5.0,
                poll=0.01,
            )
            # The sloth's events completed server-side (its replies sit
            # in kernel buffers); the admission ledger is clean.
            assert handle.stats()["admission"]["in_flight"] == 0
            stalled.close()
        finally:
            handle.stop()
            cluster.close()


class TestMalformedFrame:
    def test_undecodable_frame_drops_one_connection_silently(self, caplog):
        """Bytes that are not a frame are a protocol violation, not a
        server fault: ``wire.decode`` raises ``SerdeError`` only, so the
        handler closes that connection, logs nothing, leaks no admission
        slot, and keeps serving everyone else."""
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            with caplog.at_level("ERROR", logger="asyncio"):
                rogue = socket.create_connection((host, port), timeout=5.0)
                rogue.sendall(_frame(wire.encode(wire.Hello("rogue", ""))))
                _read_frame_sync(rogue)  # HelloAck
                # A DdlRequest whose ``op`` string is invalid UTF-8.
                rogue.sendall(_frame(bytes([wire.MSG_DDL_REQUEST, 1, 2, 0xFF, 0xFE])))
                assert rogue.recv(1) == b""  # the server hung up
                rogue.close()
                default_time_source().wait_until(
                    lambda: handle.stats()["admission"]["connections"] == 0,
                    timeout=5.0,
                    poll=0.01,
                )
            assert [r for r in caplog.records if r.name == "asyncio"] == []
            assert handle.stats()["admission"]["in_flight"] == 0
            with RailgunClient(host, port, tenant="next") as client:
                (reply,) = client.send_batch(
                    "tx", [{"cardId": "n", "amount": 1.0}], timestamp=1_000
                )
                assert count_of(reply) == 1
        finally:
            handle.stop()
            cluster.close()


    @pytest.mark.parametrize(
        "tag", [wire.MSG_WORK_BATCH, wire.MSG_BATCH_DONE], ids=["work", "done"]
    )
    def test_hostile_row_count_drops_only_its_connection(self, tag, caplog):
        """A worker-link batch frame claiming 2**40 rows in a few bytes
        reaches the column readers through ``wire.decode``; they refuse
        the count with ``SerdeError`` before sizing anything from it, the
        server hangs up on that client (logging nothing), and an open
        connection keeps being served."""
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            with caplog.at_level("ERROR", logger="asyncio"), RailgunClient(
                host, port, tenant="bystander"
            ) as client:
                (reply,) = client.send_batch(
                    "tx", [{"cardId": "b", "amount": 1.0}], timestamp=1_000
                )
                assert count_of(reply) == 1
                hostile = bytearray((tag,))
                wire.TP.write(hostile, TopicPartition("tx.cardId", 0))
                # reply_from | next_offset + processed, then the count,
                # offsets contiguous from 0, one group of 2**40 rows.
                heads = (0,) if tag == wire.MSG_WORK_BATCH else (0, 0)
                for value in (*heads, 2**40):
                    serde.write_varint(hostile, value)
                hostile += b"\x01\x00\x01"
                serde.write_varint(hostile, 2**40)
                hostile.append(0)
                rogue = socket.create_connection((host, port), timeout=5.0)
                rogue.sendall(_frame(wire.encode(wire.Hello("rogue", ""))))
                _read_frame_sync(rogue)  # HelloAck
                rogue.sendall(_frame(bytes(hostile)))
                assert rogue.recv(1) == b""  # the server hung up
                rogue.close()
                (reply,) = client.send_batch(
                    "tx", [{"cardId": "b", "amount": 2.0}], timestamp=2_000
                )
                assert count_of(reply) == 2
            assert [r for r in caplog.records if r.name == "asyncio"] == []
        finally:
            handle.stop()
            cluster.close()


class TestReconnect:
    def test_new_connection_resumes_window_state(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            with RailgunClient(host, port) as first:
                replies = first.send_batch(
                    "tx",
                    [{"cardId": "r", "amount": 1.0} for _ in range(5)],
                    timestamp=1_000,
                )
                assert count_of(replies[-1]) == 5
            with RailgunClient(host, port) as second:
                replies = second.send_batch(
                    "tx",
                    [{"cardId": "r", "amount": 1.0} for _ in range(5)],
                    timestamp=1_010,
                )
                # The window picked up where the first connection left
                # off: counts 6..10, not 1..5.
                assert [count_of(r) for r in replies] == [6, 7, 8, 9, 10]
            # The server notices the client's close asynchronously; wait
            # for the ledger to drain instead of racing its reader task.
            default_time_source().wait_until(
                lambda: handle.stats()["admission"]["connections"] == 0,
                timeout=5.0,
                poll=0.01,
            )
            assert handle.stats()["admission"]["connections"] == 0
        finally:
            handle.stop()
            cluster.close()


class TestShutdown:
    def test_stop_refuses_new_connections_and_leaves_no_threads(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        with RailgunClient(host, port) as client:
            client.send("tx", {"cardId": "x", "amount": 1.0}, timestamp=1_000)
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0)
        assert server_threads() == []
        handle.stop()  # idempotent
        cluster.close()

    def test_abrupt_stop_fails_inflight_sends_without_hanging(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address
        client = RailgunClient(host, port)
        stopped = threading.Event()

        def kill_soon():
            default_time_source().sleep(0.05)
            handle.stop(drain=False)
            stopped.set()

        threading.Thread(target=kill_soon, daemon=True).start()
        try:
            for _ in range(200):
                client.send(
                    "tx", {"cardId": "x", "amount": 1.0}, timestamp=1_000
                )
        except EngineError:
            pass  # in-flight send failed loudly — the required outcome
        assert stopped.wait(timeout=10.0)
        client.close()
        assert server_threads() == []
        cluster.close()

    def test_drain_stop_answers_routed_requests_in_flight(self):
        # A front door stopping mid-traffic must not strand the
        # correlations its router still owes.
        cluster, handle = serve_router()
        events = [{"cardId": f"c{i % 3}", "amount": 1.0} for i in range(40)]
        replies: list = []
        with RailgunClient(*handle.address, tenant="drain") as client:
            sender = threading.Thread(
                target=lambda: replies.extend(
                    client.send_batch("tx", events, timestamp=1_000)
                ),
                daemon=True,
            )
            sender.start()
            assert default_time_source().wait_until(
                lambda: handle.stats()["admission"]["tenants"]
                .get("drain", {})
                .get("admitted_events") == len(events),
                timeout=5.0,
                poll=0.0005,
            )
            handle.stop(drain=True)
            sender.join(timeout=10.0)
        assert len(replies) == len(events)
        assert all(reply.results for reply in replies)
        assert server_threads() == []
        cluster.close()

    def test_served_cluster_close_stops_the_server(self):
        cluster = create_cluster("single", serve="tcp://127.0.0.1:0")
        host, port = cluster.server.address
        cluster.close()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0)
        assert server_threads() == []


class TestNoThreadHops:
    @pytest.mark.parametrize(
        "topology, kwargs",
        [
            ("single", {}),
            ("process", {"workers": 2}),
            # The router too: the loop drives it, no thread of its own.
            ("process", {"workers": 2, "frontends": 2}),
        ],
    )
    def test_blocking_facades_run_on_the_loop_thread_alone(self, topology, kwargs):
        before = set(threading.enumerate())
        cluster = create_cluster(topology, serve="tcp://127.0.0.1:0", **kwargs)
        try:
            host, port = cluster.server.address
            with RailgunClient(host, port) as client:
                client.create_stream("tx", ["cardId"], **STREAM_KW)
                client.create_metric(METRIC)
                replies = client.send_batch(
                    "tx",
                    [{"cardId": "k", "amount": 1.0} for _ in range(5)],
                    timestamp=1_000,
                )
                assert [count_of(r) for r in replies] == [1, 2, 3, 4, 5]
                started = [t.name for t in set(threading.enumerate()) - before]
                assert started == ["railgun-server"]
                assert server_threads() == ["railgun-server"]
        finally:
            cluster.close()
        assert server_threads() == []

    def test_router_keeps_its_one_driver_thread(self):
        # The one thread that drives a served router is the server's
        # loop thread: no driver thread and no queue sit beside it.
        cluster = ClusterRouter(workers=2, frontends=2)
        handle = serve_cluster(cluster)
        try:
            assert server_threads() == ["railgun-server"]
        finally:
            handle.stop()
            cluster.close()
        assert server_threads() == []

    def test_one_reply_frame_per_ingest_batch(self):
        cluster = make_single()
        handle = serve_cluster(cluster)
        host, port = handle.address

        def frames_out(expected: int) -> int:
            # The writer counts a frame once its write returned, which
            # the client's read of that frame can beat by a moment.
            default_time_source().wait_until(
                lambda: handle.stats()["server"]["frames_out"] >= expected,
                timeout=5.0,
                poll=0.001,
            )
            return handle.stats()["server"]["frames_out"]

        try:
            with RailgunClient(host, port) as client:
                sent = 0
                # 257 events travel as two IngestBatch frames: two replies.
                for size, frames in ((1, 1), (4, 1), (256, 1), (257, 2)):
                    replies = client.send_batch(
                        "tx",
                        [{"cardId": "c", "amount": 1.0} for _ in range(size)],
                        timestamp=1_000,
                    )
                    assert len(replies) == size
                    sent += frames
                    assert frames_out(sent) == sent
        finally:
            handle.stop()
            cluster.close()


class TestRejectedBatch:
    """A schema-violating event used to raise out of the driver thread:
    the sender hung for ``call_timeout`` with its events stuck in the
    ledger and every tenant got ``cluster-error`` from then on."""

    @staticmethod
    def router() -> ClusterRouter:
        cluster = ClusterRouter(workers=2, frontends=2)
        cluster.create_stream("tx", ["cardId"], **STREAM_KW)
        cluster.create_metric(METRIC)
        return cluster

    @pytest.mark.parametrize("build", [make_single, router.__func__])
    def test_bad_event_is_its_senders_problem_only(self, build):
        cluster = build()
        handle = serve_cluster(cluster)
        host, port = handle.address
        good = [{"cardId": "g", "amount": 1.0} for _ in range(3)]
        try:
            with RailgunClient(host, port, tenant="careless") as careless, \
                    RailgunClient(host, port, tenant="careful") as careful:
                assert count_of(careful.send_batch("tx", good, timestamp=1_000)[-1]) == 3
                started = default_time_source().monotonic()
                with pytest.raises(EngineError, match="rejected.*SchemaError") as info:
                    careless.send_batch(
                        "tx",
                        [{"cardId": "b", "amount": "not-a-float"}],
                        timestamp=1_000,
                        busy_retries=50,
                    )
                # A rejection is final: not a ServerBusyError, no retries
                # slept through (50 x 25 ms would show).
                assert not isinstance(info.value, ServerBusyError)
                assert default_time_source().monotonic() - started < 1.0
                with pytest.raises(EngineError, match="rejected.*unknown stream"):
                    careless.send_batch("nope", good, timestamp=1_000)
                # Both tenants — the careless one included — are served.
                assert count_of(careful.send_batch("tx", good, timestamp=1_001)[-1]) == 6
                assert count_of(careless.send_batch("tx", good, timestamp=1_002)[-1]) == 9
            stats = handle.stats()
            assert stats["admission"]["in_flight"] == 0
            assert stats["admission"]["tenants"]["careless"]["in_flight"] == 0
            assert stats["server"]["driver_error"] is None
            assert handle.server.admission.in_flight == 0
        finally:
            handle.stop()
            cluster.close()


class ScriptedServer:
    """A fake front door on a plain socket: records every request
    frame byte for byte and answers from a fixed script, so two clients
    can be shown the identical conversation."""

    SESSION = "sess"

    def __init__(self, mute: bool = False) -> None:
        self.frames: list[bytes] = []
        self._mute = mute
        self._shed_once = True
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._serve, name="test-scripted-server", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        with conn:
            _read_frame_sync(conn)  # Hello
            ack = wire.HelloAck(True, session=self.SESSION, max_in_flight=64)
            conn.sendall(_frame(wire.encode(ack)))
            while True:
                try:
                    payload = _read_frame_sync(conn)
                except (OSError, struct.error):
                    return
                self.frames.append(payload)
                msg = wire.decode(payload)
                if isinstance(msg, wire.Goodbye):
                    return
                if self._mute:
                    continue
                for answer in self._answers(msg):
                    conn.sendall(_frame(wire.encode(answer)))

    def _answers(self, msg):
        if isinstance(msg, wire.IngestBatch):
            entries = list(msg.entries)
            if self._shed_once and len(entries) > 1:
                # Shed every other event of the first multi-event batch.
                self._shed_once = False
                shed = tuple(corr for corr, _, _ in entries[1::2])
                yield wire.ServerBusy("tenant-rate", 25, shed)
                entries = entries[0::2]
            yield wire.ReplyBatch(
                [
                    (corr, msg.stream, {0: {"seen": event.event_id, "corr": corr}})
                    for corr, event, _ in entries
                ]
            )
        elif isinstance(msg, wire.DdlRequest):
            if msg.op == "delete_metric":
                yield wire.DdlReply(msg.request_id, False, 0, "EngineError: no such metric")
            else:
                yield wire.DdlReply(msg.request_id, True, 7)
        elif isinstance(msg, wire.StatsRequest):
            yield wire.StatsReply(msg.request_id, b'{"counters": {"n": 1}}')

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestOneProtocolTwoDrivers:
    """The sans-IO core's contract: the blocking and the asyncio client
    are the same protocol, to the byte."""

    BATCH = [{"cardId": f"c{i}", "amount": float(i)} for i in range(6)]

    def run_sync(self, address):
        out = []
        with RailgunClient(*address, time_source=DeterministicTimeSource()) as c:
            c.create_stream("tx", ["cardId"], **STREAM_KW)
            out.append(c.create_metric(METRIC))
            out.append(c.send("tx", {"cardId": "a", "amount": 1.0}, timestamp=5))
            out.append(c.send_batch("tx", self.BATCH, timestamp=9, busy_retries=2))
            out.append(c.send_batch("tx", [Event("mine", 11, {"cardId": "e"})]))
            out.append(c.backfill_status(3))
            try:
                c.delete_metric(4)
            except EngineError as exc:
                out.append(str(exc))
            out.append(c.stats())
        return out

    def run_async(self, address):
        async def script():
            out = []
            async with AsyncRailgunClient(
                *address, time_source=DeterministicTimeSource()
            ) as c:
                await c.create_stream("tx", ["cardId"], **STREAM_KW)
                out.append(await c.create_metric(METRIC))
                out.append(await c.send("tx", {"cardId": "a", "amount": 1.0}, timestamp=5))
                out.append(await c.send_batch("tx", self.BATCH, timestamp=9, busy_retries=2))
                out.append(await c.send_batch("tx", [Event("mine", 11, {"cardId": "e"})]))
                out.append(await c.backfill_status(3))
                try:
                    await c.delete_metric(4)
                except EngineError as exc:
                    out.append(str(exc))
                out.append(await c.stats())
            return out

        return asyncio.run(script())

    def test_same_script_same_bytes_same_replies(self):
        conversations = []
        for run in (self.run_sync, self.run_async):
            server = ScriptedServer()
            try:
                results = run(server.address)
            finally:
                server.close()
            conversations.append((server.frames, results))
        (sync_frames, sync_results), (async_frames, async_results) = conversations
        assert sync_frames == async_frames
        assert sync_results == async_results
        # And the script did what it says: 2 DDL, 1 + (6 shed to 3, then
        # the 3 again) + 1 ingest frames, 2 more DDL, stats, goodbye.
        kinds = [type(wire.decode(f)).__name__ for f in sync_frames]
        assert kinds == (
            ["DdlRequest"] * 2 + ["IngestBatch"] * 4 + ["DdlRequest"] * 2
            + ["StatsRequest", "Goodbye"]
        )
        retried = wire.decode(sync_frames[4])
        assert [corr for corr, _, _ in retried.entries] == [2, 4, 6]
        batch = sync_results[2]
        assert [r.event.event_id for r in batch] == [
            f"sess-{i:09d}" for i in range(1, 7)
        ]
        # Shed events were answered on the second attempt, 25 virtual
        # ms later, and their latency restarts with that attempt.
        assert [r.results[0]["corr"] for r in batch] == [1, 2, 3, 4, 5, 6]
        assert sync_results[4] == "complete"
        assert "no such metric" in sync_results[5]
        assert sync_results[6] == {"counters": {"n": 1}}

    def test_exhausted_retries_name_what_was_shed(self):
        server = ScriptedServer()
        try:
            with RailgunClient(*server.address) as client:
                with pytest.raises(ServerBusyError) as info:
                    client.send_batch("tx", self.BATCH, timestamp=9)
                assert info.value.reason == "tenant-rate"
                assert info.value.retry_after_ms == 25
                assert info.value.correlations == (1, 3, 5)
        finally:
            server.close()


class TestBlockingClientClose:
    def test_close_racing_an_inflight_send_fails_it_promptly(self):
        server = ScriptedServer(mute=True)  # handshakes, then never answers
        client = RailgunClient(*server.address)
        outcome: list[object] = []
        clock = default_time_source()

        def call():
            started = clock.monotonic()
            try:
                client.send_batch("tx", [{"cardId": "x", "amount": 1.0}], timestamp=1)
            except BaseException as exc:
                outcome.append(exc)
            outcome.append(clock.monotonic() - started)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        try:
            clock.wait_until(lambda: server.frames, timeout=5.0, poll=0.005)
            assert server.frames, "the send never reached the server"
            closing = clock.monotonic()
            client.close()  # from this thread, while the call is blocked
            caller.join(timeout=5.0)
            assert not caller.is_alive()
            error, _ = outcome
            assert type(error) is EngineError, error
            assert clock.monotonic() - closing < 1.0
            # The connection stays dead, loudly, for any later call.
            with pytest.raises(EngineError):
                client.stats()
            client.close()  # idempotent
        finally:
            server.close()
        assert server_threads() == []


    def test_threads_sharing_one_client_take_turns(self):
        # More callers than cores on one connection, with a switch
        # interval short enough to interleave them mid-call: the lock
        # must keep every trip whole — each caller gets replies for its
        # own events, and the cluster saw every event exactly once.
        import sys

        cluster = make_single()
        handle = serve_cluster(cluster)
        callers, trips, per_trip = 6, 25, 3
        seen: dict[int, list[int]] = {n: [] for n in range(callers)}
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RailgunClient(*handle.address) as client:
                def run(n: int) -> None:
                    try:
                        for trip in range(trips):
                            events = [
                                Event(f"t{n}-{trip}-{i}", 1_000, {"cardId": "k", "amount": 1.0})
                                for i in range(per_trip)
                            ]
                            replies = client.send_batch("tx", events)
                            assert [r.event for r in replies] == events
                            seen[n].extend(count_of(r) for r in replies)
                    except BaseException as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(n,), daemon=True)
                    for n in range(callers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            handle.stop()
            cluster.close()
        assert errors == []
        for counts in seen.values():
            assert counts == sorted(counts) and len(counts) == trips * per_trip
        assert sorted(c for counts in seen.values() for c in counts) == list(
            range(1, callers * trips * per_trip + 1)
        )


def serve_router(cluster: ClusterRouter | None = None):
    """A served ``ClusterRouter(workers=2, frontends=2)`` with the
    count metric defined."""
    if cluster is None:
        cluster = ClusterRouter(workers=2, frontends=2)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    cluster.create_metric(METRIC)
    return cluster, serve_cluster(cluster)


class TestDrivenRouter:
    """The server's loop drives a ``ClusterRouter``: its drive task must
    run while any request is unanswered or a backfill runs — keyed on
    anything narrower, replies and backfills strand."""

    def test_inline_ddl_keeps_inflight_replies_flowing(self):
        # A metric DDL runs inline on the loop while the other
        # connection's batch is in flight. A drive task keyed on
        # cluster.pending strands those replies as soon as a DDL moves
        # their fan-ins into completed outside a turn.
        cluster, handle = serve_router()
        host, port = handle.address
        events = [{"cardId": f"c{i % 7}", "amount": 1.0} for i in range(200)]

        async def run() -> float:
            async with AsyncRailgunClient(host, port, tenant="ingest") as ingest, \
                    AsyncRailgunClient(host, port, tenant="ddl") as ddl:
                started = default_time_source().monotonic()
                batch = asyncio.ensure_future(
                    ingest.send_batch("tx", events, timestamp=1_000)
                )
                await asyncio.sleep(0)  # the batch's frame goes out first
                await ddl.create_metric(
                    "SELECT sum(amount) FROM tx GROUP BY cardId "
                    "OVER sliding 5 minutes"
                )
                replies = await asyncio.wait_for(batch, 5.0)
                assert len(replies) == len(events)
                return default_time_source().monotonic() - started

        try:
            assert asyncio.run(run()) < 1.0
            assert handle.stats()["admission"]["in_flight"] == 0
        finally:
            handle.stop()
            cluster.close()

    def test_backfill_completes_with_no_further_traffic(self):
        cluster, handle = serve_router()
        try:
            with RailgunClient(*handle.address) as client:
                client.send_batch(
                    "tx",
                    [{"cardId": f"c{i % 5}", "amount": float(i)} for i in range(50)],
                    timestamp=1_000,
                )
                metric_id = client.backfill_metric(
                    "SELECT sum(amount) FROM tx GROUP BY cardId "
                    "OVER sliding 5 minutes"
                )
                assert default_time_source().wait_until(
                    lambda: client.backfill_status(metric_id) == "complete",
                    timeout=5.0,
                    poll=0.05,
                )
        finally:
            handle.stop()
            cluster.close()

    def test_failed_turn_answers_every_request_and_stops_driving(self):
        class FailingRouter(ClusterRouter):
            turns = 0

            def _turn(self, laps):
                # Never drains: the frontends' replies stay readable on
                # their pipes, the state a hot loop would spin on.
                self.turns += 1
                if self.turns >= 3:
                    raise EngineError("injected turn failure")
                return 0

        cluster, handle = serve_router(FailingRouter(workers=2, frontends=2))
        cluster.turns = 0
        clock = default_time_source()
        events = [{"cardId": "k", "amount": 1.0} for _ in range(16)]
        try:
            with RailgunClient(*handle.address) as client:
                started = clock.monotonic()
                with pytest.raises(ServerBusyError, match="cluster-error"):
                    client.send_batch("tx", events, timestamp=1_000)
                assert clock.monotonic() - started < 1.0
                stats = handle.stats()
                assert stats["admission"]["in_flight"] == 0
                assert "injected turn failure" in stats["server"]["driver_error"]
                turns = cluster.turns
                assert turns == 3
                with pytest.raises(ServerBusyError, match="cluster-error"):
                    client.send_batch("tx", events, timestamp=1_001)
                clock.sleep(0.1)
                assert cluster.turns == turns
                assert handle.server.admission.in_flight == 0
        finally:
            handle.stop()
            cluster.close()


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _read_frame_sync(sock: socket.socket) -> bytes:
    def exactly(n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = sock.recv(n - len(data))
            if not chunk:
                raise ConnectionError("peer closed")
            data += chunk
        return data

    (length,) = struct.unpack(">I", exactly(4))
    return exactly(length)
