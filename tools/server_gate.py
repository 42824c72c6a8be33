"""CI gate: the front door leaks no fds, sockets, threads or children.

A long-lived ingest server that sheds a few resources per
connection or per restart dies slowly in production and poisons every
test run that follows it in CI. This gate drives the server through
the two lifecycles where leaks hide and asserts the process ends each
one exactly as it started:

1. **Clean shutdown**: serve a single-process cluster, run DDL + a
   batch through a client, ``stop()`` — while serving, the only thread
   the whole front door started (server and blocking client together)
   is the server's loop thread; afterwards the process must
   hold no extra fds (sockets included), no extra threads, no
   multiprocessing children, and the port must refuse connections.
2. **SIGKILL mid-stream** (sharded backend): a child process serves a
   ``ClusterRouter`` over TCP and is SIGKILLed while a client has a
   batch in flight. The cluster's worker/frontend processes must
   notice the dead parent (control-pipe EOF) and exit on their own,
   and the port must go dead — no orphan process tree squatting on
   the address.

Run from the repository root (CI's ``front-door`` job)::

    PYTHONPATH=src python tools/server_gate.py

Exit code 1 on any leak, with the survivors named.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

EVENTS = 100

_CHILD_SCRIPT = r"""
import os, sys
from repro.shard.router import ClusterRouter
from repro.server.server import serve_cluster

cluster = ClusterRouter(workers=2, frontends=2, checkpoint_every=None)
cluster.create_stream(
    "tx", ["cardId"], partitions=4,
    schema={"cardId": "string", "amount": "float"},
)
cluster.create_metric(
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
    "OVER sliding 5 minutes"
)
handle = serve_cluster(cluster)
host, port = handle.address
children = [p.pid for p in __import__("multiprocessing").active_children()]
print(f"PORT {port}")
print(f"PIDS {' '.join(map(str, children))}", flush=True)
sys.stdin.read()  # parked until SIGKILL
"""


def open_fds() -> set[str]:
    fds = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds.add(f"{fd}:{os.readlink(f'/proc/self/fd/{fd}')}")
        except OSError:
            continue  # the fd used to list the directory, races
    return fds


def port_refuses(host: str, port: int, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                pass
        except OSError:
            return True
        time.sleep(0.05)
    return False


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def scenario_clean_shutdown() -> list[str]:
    import multiprocessing

    from repro.engine.cluster import create_cluster
    from repro.server.client import RailgunClient

    fds_before = open_fds()
    threads_before = {t.name for t in threading.enumerate()}

    failures = []
    cluster = create_cluster("single", serve="tcp://127.0.0.1:0")
    host, port = cluster.server.address
    with RailgunClient(host, port) as client:
        client.create_stream(
            "tx", ["cardId"], partitions=4,
            schema={"cardId": "string", "amount": "float"},
        )
        client.create_metric(
            "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        replies = client.send_batch(
            "tx",
            [{"cardId": f"c{i % 5}", "amount": float(i)} for i in range(EVENTS)],
            timestamp=1_000,
        )
        assert len(replies) == EVENTS
        # A blocking facade is driven from the loop thread and the
        # client is a plain socket: one thread serves the whole trip.
        started = sorted({t.name for t in threading.enumerate()} - threads_before)
        if started != ["railgun-server"]:
            failures.append(
                f"serving started threads {started}, expected only "
                "['railgun-server']"
            )
    cluster.close()

    # Sockets close asynchronously with the loop; give the OS a beat.
    deadline = time.monotonic() + 5.0
    while open_fds() - fds_before and time.monotonic() < deadline:
        time.sleep(0.05)
    for leaked in sorted(open_fds() - fds_before):
        failures.append(f"leaked fd {leaked}")
    for name in sorted({t.name for t in threading.enumerate()} - threads_before):
        failures.append(f"leaked thread {name!r}")
    for child in multiprocessing.active_children():
        failures.append(f"leaked child process pid={child.pid}")
    if not port_refuses("127.0.0.1", port):
        failures.append(f"port {port} still accepting after close")
    return failures


def scenario_sigkill_mid_stream() -> list[str]:
    from repro.server.client import RailgunClient

    env = dict(os.environ, PYTHONPATH="src")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port_line = child.stdout.readline().split()
        pids_line = child.stdout.readline().split()
        assert port_line[0] == "PORT" and pids_line[0] == "PIDS"
        port = int(port_line[1])
        cluster_pids = [int(pid) for pid in pids_line[1:]]
        assert cluster_pids, "server child reported no cluster processes"

        client = RailgunClient("127.0.0.1", port)
        client.send_batch(
            "tx",
            [{"cardId": f"c{i % 5}", "amount": float(i)} for i in range(EVENTS)],
            timestamp=1_000,
        )
        # Leave a batch in flight and yank the server out from under it.
        fire_and_forget = threading.Thread(
            target=lambda: _swallow(
                client.send_batch,
                "tx",
                [{"cardId": "c0", "amount": 1.0} for _ in range(EVENTS)],
                timestamp=2_000,
            ),
            daemon=True,
        )
        fire_and_forget.start()
        time.sleep(0.05)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10.0)
        _swallow(client.close)

        failures = []
        deadline = time.monotonic() + 15.0
        while (
            any(pid_alive(pid) for pid in cluster_pids)
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        for pid in cluster_pids:
            if pid_alive(pid):
                failures.append(
                    f"cluster process {pid} orphaned after server SIGKILL"
                )
        if not port_refuses("127.0.0.1", port):
            failures.append(f"port {port} still accepting after SIGKILL")
        return failures
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=10.0)


def _swallow(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception:
        pass


def run_gate() -> list[str]:
    failures: list[str] = []
    for scenario in (scenario_clean_shutdown, scenario_sigkill_mid_stream):
        leaked = scenario()
        failures.extend(leaked)
        print(f"{scenario.__name__}: {'LEAK' if leaked else 'clean'}")
    return failures


def main() -> int:
    failures = run_gate()
    for failure in failures:
        print(f"SERVER GATE: {failure}", file=sys.stderr)
    if not failures:
        print(
            "server gate: no fds, sockets, threads or processes survive "
            "clean shutdown or SIGKILL"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
