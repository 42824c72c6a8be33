"""The two timed phases and the /proc readers behind the end-to-end metrics."""

from __future__ import annotations

import math
import os
import time
from statistics import median

from repro.common.errors import EngineError

_TICKS = os.sysconf("SC_CLK_TCK")
STALL_MS = 50.0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in 0..100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


# -- /proc ------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after the last ')'
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, found by walking ppid links."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids) -> float:
    """user+sys CPU consumed so far by the given processes."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _TICKS


def peak_rss_mib(pids) -> float:
    """Sum of the processes' resident-set high-water marks (VmHWM)."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


# -- host speed ---------------------------------------------------------------
#
# The reference sandbox's cores run the same code up to twice as slowly
# from one minute to the next (neighbours, frequency), which would swamp
# every bound below 25 %. A fixed pure-Python loop, run off the clock after
# every tenth of a second of measured work, samples that speed; times and
# rates are then reported as they would read at the reference speed.
# Measured on fixed engine work, probe and work times correlate at 0.9 over
# two-second spans and dividing one by the other removes two thirds of the
# run-to-run spread (README.md, "Host speed").

PROBE_ITERATIONS = 200_000
GAP_PROBE_ITERATIONS = 40_000
PROBE_EVERY_S = 0.1
#: what one loop iteration costs on the reference sandbox in a quiet minute
REFERENCE_NS_PER_ITERATION = 60.0


class HostSpeed:
    """Probe samples over one phase; ``factor`` > 1 means a faster host."""

    def __init__(self) -> None:
        self.probe_s = 0.0
        self._iterations = 0

    def probe(self, iterations: int = PROBE_ITERATIONS) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        self.probe_s += time.perf_counter() - started
        self._iterations += iterations

    @property
    def factor(self) -> float:
        return REFERENCE_NS_PER_ITERATION * self._iterations / (self.probe_s * 1e9)


class Stopwatch:
    """Wall time of the measured work alone: ``lap()`` after each unit of
    work adds it, and runs the host probe off the clock when due."""

    def __init__(self) -> None:
        self.host = HostSpeed()
        self.elapsed = 0.0
        self._since_probe = 0.0
        self.host.probe()
        self._mark = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        took = now - self._mark
        self.elapsed += took
        self._since_probe += took
        if self._since_probe >= PROBE_EVERY_S:
            self.host.probe()
            self._since_probe = 0.0
            now = time.perf_counter()
        self._mark = now
        return took


# -- phases -----------------------------------------------------------------


def _send_checked(send, batch) -> bool:
    """One call; True when every event came back, in order."""
    try:
        replies = send(batch)
    except EngineError:
        return False
    return (
        len(replies) == len(batch)
        and replies[0].event.event_id == batch[0].event_id
        and replies[-1].event.event_id == batch[-1].event_id
    )


def closed_loop(send, events, batch_size: int, seconds: float, pids) -> dict:
    """One caller, next batch after the previous reply, for ``seconds`` of
    send time (host probes excluded). Ends early if the materialised pool
    runs out. Rates and times are at reference host speed; ``raw_eps`` is
    as clocked. ``trips_ms`` are the per-call latencies, as clocked."""
    trips = []
    sent = failed = position = 0
    limit = len(events) - batch_size
    caller = [os.getpid()]
    cpu_before, caller_before = cpu_seconds(pids), cpu_seconds(caller)
    watch = Stopwatch()
    while watch.elapsed < seconds and position <= limit:
        batch = events[position:position + batch_size]
        position += batch_size
        if not _send_checked(send, batch):
            failed += batch_size
        trips.append(watch.lap() * 1e3)
        sent += batch_size
    # the probes ran on this process's CPU time, not the engine's
    cpu = cpu_seconds(pids) - cpu_before - watch.host.probe_s
    caller_cpu = cpu_seconds(caller) - caller_before - watch.host.probe_s
    speed = watch.host.factor
    return {
        "capacity_eps": sent / watch.elapsed / speed,
        "cpu_us_per_event": cpu / max(sent, 1) * 1e6 * speed,
        "raw_eps": sent / watch.elapsed,
        "host_speed": speed,
        "caller_cpu_s": caller_cpu,
        "wall_s": watch.elapsed,
        "events": sent,
        "failed": failed,
        "trips_ms": trips,
    }


WINDOW_S = 2.0
#: an idle gap shorter than this gets no probe (a probe takes ~2.5 ms)
GAP_MIN_S = 0.004


def open_loop(send, events, batch_size: int, rate_eps: float, seconds: float) -> dict:
    """Batches on a fixed schedule, each timed from the instant it was due.

    A batch that goes out late because the previous one was still in
    flight keeps its due time, so a stall is charged to every request
    it delays. ``late`` records only the sleep overshoot while the
    generator was idle — backlog is latency, not lateness. The schedule
    runs in windows of about two seconds; a short host probe runs in idle
    gaps that can hold it, and each window's latencies are scaled to
    reference host speed by its own probes. A window that overruns by
    half its length drops its unsent batches, which count as failed.
    """
    interval = batch_size / rate_eps
    planned = min(int(seconds / interval), len(events) // batch_size)
    per_window = max(1, int(min(WINDOW_S, seconds) / interval))
    ranked, late, speeds = [], [], []
    failed = index = 0
    wall_started = time.perf_counter()
    while index < planned:
        count = min(per_window, planned - index)
        host = HostSpeed()
        host.probe()
        latencies = []
        dropped = 0
        started = time.perf_counter()
        give_up = started + 1.5 * count * interval
        for slot in range(count):
            due = started + slot * interval
            now = time.perf_counter()
            if due - now >= GAP_MIN_S:
                host.probe(GAP_PROBE_ITERATIONS)
                now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                late.append((time.perf_counter() - due) * 1e3)
            elif now > give_up:
                dropped += count - slot
                break
            batch = events[(index + slot) * batch_size:(index + slot + 1) * batch_size]
            if _send_checked(send, batch):
                latencies.append((time.perf_counter() - due) * 1e3)
            else:
                dropped += 1
        index += count
        failed += dropped
        speeds.append(host.factor)
        ranked.extend(value * host.factor for value in latencies)
    late.sort()
    # a failed, refused or unsent batch misses every latency limit
    ranked = sorted(ranked) + [math.inf] * failed
    return {
        "lat_p50_ms": percentile(ranked, 50.0),
        "lat_p95_ms": percentile(ranked, 95.0),
        "lat_p99_ms": percentile(ranked, 99.0),
        "samples": planned,
        "events": planned * batch_size,
        "failed": failed * batch_size,
        "stalls_over_50ms": sum(1 for value in ranked if value > STALL_MS),
        "generator_late_ms_p99": percentile(late, 99.0),
        "wall_s": time.perf_counter() - wall_started,
        "host_speed": median(speeds),
    }
