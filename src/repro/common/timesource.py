"""The time plane: one injectable source for every clock read and sleep.

Railgun has two notions of time. **Event time** (the paper's §2 model:
every event carries an integer-millisecond timestamp) drives window
semantics and is already virtual — the engine takes a :class:`Clock`.
**Infrastructure time** (deadlines, heartbeats, backoff, latency
measurement) used to reach straight for :mod:`time`, which made every
fault suite either sleep for real seconds or be unwritable. This module
unifies both behind :class:`TimeSource`:

- :class:`SystemTimeSource` — real monotonic time, optionally
  *compressed* by ``$RAILGUN_TIME_SCALE``: at scale ``S`` every
  monotonic read runs ``S`` times faster and every sleep is ``S`` times
  shorter, uniformly, so timeout-heavy fault suites spanning multiple
  processes (which cannot share a Python object) run 10–50× faster
  while every deadline/heartbeat/backoff relationship is preserved.
  Monotonic values stay comparable *across processes* (they are the
  system-wide ``CLOCK_MONOTONIC`` scaled by a shared constant), which
  is what the ``sent_ms`` stamp behind ``worker_queue_wait_ms``
  requires.
- :class:`DeterministicTimeSource` — fully virtual time for
  single-process tests and the chaos harness. ``sleep()`` parks the
  calling thread as a *waiter*; when every participating thread is
  parked, virtual time jumps straight to the earliest wakeup — a
  timeout-heavy suite runs in microseconds of real time, and wakeup
  order is a deterministic function of the requested deadlines.

The event-time :class:`Clock`/:class:`ManualClock` abstraction lives
here too, with the duration constants (``MINUTES``…) and
:func:`parse_duration_ms`/:func:`format_duration_ms`: every
``TimeSource`` offers :meth:`TimeSource.event_clock`, a ``Clock`` view
over the same timeline, so a test can drive engine event-time and
infrastructure wall-time from one deterministic object.

The three deadline-loop idioms that used to be hand-rolled per call
site (compute ``deadline``, compare, ``sleep`` a poll) are provided
once as :meth:`TimeSource.deadline` and :meth:`TimeSource.wait_until`.
``tools/check_planes.py`` lints that no module under ``src/repro`` other
than this one calls ``time.time``/``time.monotonic``/``time.sleep``.
"""

from __future__ import annotations

import math
import os
import threading
import time as _time
from abc import ABC, abstractmethod
from typing import Callable

#: Environment knob compressing real time; mirrors
#: ``RAILGUN_DURABLE_DIR``. Inherited by child processes, so every
#: member of a cluster observes the same scaled clock.
TIME_SCALE_ENV = "RAILGUN_TIME_SCALE"

#: Sanity ceiling for the scale: beyond this, scaled sleeps round to
#: zero and spin loops would burn a core without making tests faster.
MAX_TIME_SCALE = 1000.0


def parse_time_scale(value: str | None) -> float:
    """Parse a ``$RAILGUN_TIME_SCALE`` value; unset/empty means 1.0.

    Misconfiguration is loud: a garbage value raises instead of
    silently running the suite at real time (the failure mode would be
    a "passing" fault suite that quietly took 50× longer than CI
    budgets for).
    """
    if value is None or not value.strip():
        return 1.0
    try:
        scale = float(value)
    except ValueError:
        raise ValueError(
            f"bad {TIME_SCALE_ENV} value {value!r}: expected a number"
        ) from None
    if math.isnan(scale) or not (0.0 < scale <= MAX_TIME_SCALE):
        raise ValueError(
            f"bad {TIME_SCALE_ENV} value {value!r}: "
            f"must be in (0, {MAX_TIME_SCALE:g}]"
        )
    return scale


class Deadline:
    """A point on a source's monotonic timeline, with remaining/expired.

    Replaces the hand-rolled ``deadline = time.monotonic() + t`` loops:
    construct via :meth:`TimeSource.deadline`, then test
    :meth:`expired` (or budget sleeps with :meth:`remaining`).
    ``timeout=None`` never expires.
    """

    __slots__ = ("_source", "at")

    def __init__(self, source: "TimeSource", timeout: float | None) -> None:
        self._source = source
        self.at = None if timeout is None else source.monotonic() + timeout

    def remaining(self) -> float:
        """Seconds left (``inf`` for a ``None`` timeout, floored at 0)."""
        if self.at is None:
            return math.inf
        return max(0.0, self.at - self._source.monotonic())

    def expired(self) -> bool:
        if self.at is None:
            return False
        return self._source.monotonic() >= self.at


class TimeSource(ABC):
    """Monotonic time + sleeping, injectable at every layer.

    ``monotonic()``/``monotonic_ns()`` are the same timeline at two
    precisions (``monotonic_ns() == int(monotonic() * 1e9)`` up to
    float rounding). ``sleep`` blocks the calling thread for that much
    *source* time — which may be compressed real time or purely
    virtual.
    """

    @abstractmethod
    def monotonic(self) -> float:
        """Seconds on this source's monotonic timeline."""

    @abstractmethod
    def monotonic_ns(self) -> int:
        """Nanoseconds on the same timeline as :meth:`monotonic`."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds`` of source time."""

    @abstractmethod
    def wall_ms(self) -> int:
        """Epoch-style wall clock in integer milliseconds (event time)."""

    def real_delay(self, seconds: float) -> float:
        """Wall-clock seconds a cooperative waiter (e.g. ``asyncio``)
        should actually pause to represent ``seconds`` of source time.

        The bridge for code that cannot call :meth:`sleep` because it
        would block an event loop: ``await asyncio.sleep(ts.real_delay(s))``.
        A deterministic source advances virtual time instead and
        returns 0.0.
        """
        return seconds

    def deadline(self, timeout: float | None) -> Deadline:
        """A :class:`Deadline` ``timeout`` seconds from now."""
        return Deadline(self, timeout)

    def wait_until(
        self,
        predicate: Callable[[], object],
        timeout: float | None,
        poll: float = 0.005,
    ) -> bool:
        """Poll ``predicate`` every ``poll`` seconds until truthy or
        ``timeout`` expires; returns the final truthiness.

        The one deadline-loop idiom: callers that must raise on timeout
        do ``if not ts.wait_until(...): raise``. One last check runs
        *after* expiry so a predicate that became true during the final
        sleep still wins.
        """
        limit = self.deadline(timeout)
        while not predicate():
            if limit.expired():
                return bool(predicate())
            self.sleep(min(poll, limit.remaining()))
        return True

    def event_clock(self, start_ms: int | None = None) -> "Clock":
        """A :class:`Clock` (event-time, integer ms) view of this source.

        With ``start_ms`` the view starts there and advances with the
        source's monotonic timeline; without it, the view reads the
        source's wall clock directly.
        """
        if start_ms is None:
            return SystemClock(self)
        return _OffsetClock(self, start_ms)


class SystemTimeSource(TimeSource):
    """Real time, uniformly compressed by ``$RAILGUN_TIME_SCALE``.

    At scale ``S``: ``monotonic()`` is the system-wide monotonic clock
    times ``S`` (still monotonic, still cross-process comparable) and
    ``sleep(s)`` blocks ``s/S`` real seconds. Scale 1.0 (the default)
    is plain :mod:`time` behavior. The wall clock (event time) is
    **not** scaled — event timestamps must stay meaningful off-host.
    """

    def __init__(self, scale: float | None = None) -> None:
        if scale is None:
            scale = parse_time_scale(os.environ.get(TIME_SCALE_ENV))
        elif math.isnan(scale) or not (0.0 < scale <= MAX_TIME_SCALE):
            raise ValueError(f"time scale must be in (0, {MAX_TIME_SCALE:g}]: {scale}")
        self.scale = float(scale)

    def monotonic(self) -> float:
        if self.scale == 1.0:
            return _time.monotonic()
        return _time.monotonic() * self.scale

    def monotonic_ns(self) -> int:
        if self.scale == 1.0:
            return _time.monotonic_ns()
        return int(_time.monotonic_ns() * self.scale)

    def sleep(self, seconds: float) -> None:
        _time.sleep(max(0.0, seconds) / self.scale)

    def wall_ms(self) -> int:
        return int(_time.time() * 1000)

    def real_delay(self, seconds: float) -> float:
        return max(0.0, seconds) / self.scale


class DeterministicTimeSource(TimeSource):
    """Virtual time: explicit :meth:`advance` plus parked-waiter jumps.

    Threads *participate* by sleeping on this source. ``sleep()`` parks
    the caller as a waiter at ``now + seconds``; whenever every live
    participating thread is parked, virtual time jumps to the earliest
    requested wakeup and exactly the waiters due at that instant wake —
    so wakeup order is the deadline order, not the scheduler's whim.
    A single-threaded caller's ``sleep`` therefore returns immediately
    after advancing virtual time — the property the chaos harness and
    the admission tests rely on for "zero real sleeping".

    ``sleep(0)`` is a fairness yield: it briefly releases the GIL and
    returns without advancing virtual time or parking (a spinner is
    *runnable*, and runnable work must hold time still).

    :meth:`advance` steps through intermediate waiter deadlines in
    order, waiting (in real time, briefly) for each woken thread to
    unpark before moving further, so a manual advance observes the same
    deterministic wakeup order as the automatic jumps.
    """

    def __init__(self, start: float = 0.0, wall_start_ms: int = 0) -> None:
        if start < 0:
            raise ValueError(f"time cannot start negative: {start}")
        self._now = float(start)
        self._start = float(start)
        self._wall_start_ms = int(wall_start_ms)
        self._cond = threading.Condition()
        self._waiters: dict[threading.Thread, float] = {}
        self._participants: set[threading.Thread] = set()
        #: threads woken in order — the observable for ordering tests.
        self.wake_log: list[str] = []

    # -- reads -----------------------------------------------------------------

    def monotonic(self) -> float:
        with self._cond:
            return self._now

    def monotonic_ns(self) -> int:
        return int(round(self.monotonic() * 1e9))

    def wall_ms(self) -> int:
        with self._cond:
            return self._wall_start_ms + int(round((self._now - self._start) * 1000))

    def real_delay(self, seconds: float) -> float:
        self.advance(max(0.0, seconds))
        return 0.0

    # -- sleeping --------------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        me = threading.current_thread()
        if seconds <= 0:
            with self._cond:
                self._participants.add(me)
                self._cond.notify_all()
            _time.sleep(0)  # plain GIL yield; virtual time holds still
            return
        with self._cond:
            self._participants.add(me)
            wake_at = self._now + seconds
            self._waiters[me] = wake_at
            try:
                self._maybe_jump()
                while self._now < wake_at:
                    self._cond.wait(timeout=0.05)
                    self._prune_dead()
                    self._maybe_jump()
            finally:
                self._waiters.pop(me, None)
                self.wake_log.append(me.name)
                self._cond.notify_all()

    def _prune_dead(self) -> None:
        dead = [t for t in self._participants if not t.is_alive()]
        for t in dead:
            self._participants.discard(t)
            self._waiters.pop(t, None)

    def _maybe_jump(self) -> None:
        """Jump to the earliest wakeup iff all live participants are parked."""
        if not self._waiters:
            return
        live = [t for t in self._participants if t.is_alive()]
        if any(t not in self._waiters for t in live):
            return  # runnable work exists: time holds still
        target = min(self._waiters.values())
        if target > self._now:
            self._now = target
        self._cond.notify_all()

    # -- driving ---------------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Move virtual time forward, waking waiters in deadline order.

        Returns the new :meth:`monotonic`. Intermediate deadlines are
        visited one at a time: each batch of due waiters unparks (and
        may re-park further out) before time moves again.
        """
        if seconds < 0:
            raise ValueError(f"cannot move time backwards: {seconds}")
        with self._cond:
            target = self._now + seconds
            while True:
                self._prune_dead()
                due = [at for at in self._waiters.values() if at <= target]
                if not due:
                    break
                step = min(due)
                if step > self._now:
                    self._now = step
                self._cond.notify_all()
                # Wait (real time, bounded ticks) for the due waiters to
                # unpark so ordering matches the automatic jumps.
                while any(at <= self._now for at in self._waiters.values()):
                    self._cond.wait(timeout=0.05)
                    self._prune_dead()
            self._now = target
            self._cond.notify_all()
            return self._now

    def advance_ms(self, delta_ms: int) -> int:
        """:meth:`advance` in event-time units; returns :meth:`wall_ms`."""
        self.advance(delta_ms / 1000.0)
        return self.wall_ms()


# -- event-time view ----------------------------------------------------------


class Clock(ABC):
    """Source of the current *event* time in integer milliseconds."""

    @abstractmethod
    def now(self) -> int:
        """Return the current time in milliseconds."""

    def now_seconds(self) -> float:
        """Return the current time in (fractional) seconds."""
        return self.now() / 1000.0


class SystemClock(Clock):
    """Wall-clock time; used by the interactive examples.

    Reads its :class:`TimeSource`'s wall clock, so examples and servers
    share one timeline with the infrastructure plane.
    """

    def __init__(self, time_source: TimeSource | None = None) -> None:
        self._source = resolve_time_source(time_source)

    def now(self) -> int:
        return self._source.wall_ms()


class _OffsetClock(Clock):
    """Event time anchored at ``start_ms``, advancing with a source's
    monotonic timeline — :meth:`TimeSource.event_clock`'s view."""

    def __init__(self, source: TimeSource, start_ms: int) -> None:
        self._source = source
        self._start_ms = int(start_ms)
        self._origin = source.monotonic()

    def now(self) -> int:
        elapsed = self._source.monotonic() - self._origin
        return self._start_ms + int(round(elapsed * 1000))


class ManualClock(Clock):
    """Deterministic event clock advanced explicitly by tests/simulators."""

    def __init__(self, start_ms: int = 0) -> None:
        if start_ms < 0:
            raise ValueError(f"clock cannot start at negative time: {start_ms}")
        self._now_ms = start_ms

    def now(self) -> int:
        return self._now_ms

    def advance(self, delta_ms: int) -> int:
        """Move time forward by ``delta_ms`` and return the new time."""
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards: {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms

    def set(self, now_ms: int) -> None:
        """Jump to an absolute time (must be monotonically non-decreasing)."""
        if now_ms < self._now_ms:
            raise ValueError(
                f"clock must be monotonic: {now_ms} < {self._now_ms}"
            )
        self._now_ms = now_ms


# -- durations (integer milliseconds, the unit of event time) -----------------

MILLIS = 1
SECONDS = 1000
MINUTES = 60 * SECONDS
HOURS = 60 * MINUTES
DAYS = 24 * HOURS


def parse_duration_ms(text: str) -> int:
    """Parse a human-friendly duration like ``"5 minutes"`` or ``"30s"``.

    Supported units: ms, s/sec/second(s), m/min/minute(s), h/hour(s),
    d/day(s), w/week(s). Used by the query language (``OVER sliding 5
    minutes``) and by configuration files.
    """
    units = {
        "ms": MILLIS,
        "millis": MILLIS,
        "millisecond": MILLIS,
        "milliseconds": MILLIS,
        "s": SECONDS,
        "sec": SECONDS,
        "secs": SECONDS,
        "second": SECONDS,
        "seconds": SECONDS,
        "m": MINUTES,
        "min": MINUTES,
        "mins": MINUTES,
        "minute": MINUTES,
        "minutes": MINUTES,
        "h": HOURS,
        "hour": HOURS,
        "hours": HOURS,
        "d": DAYS,
        "day": DAYS,
        "days": DAYS,
        "w": 7 * DAYS,
        "week": 7 * DAYS,
        "weeks": 7 * DAYS,
    }
    stripped = text.strip().lower()
    if not stripped:
        raise ValueError("empty duration")
    # Split the numeric prefix from the unit suffix.
    idx = 0
    while idx < len(stripped) and (stripped[idx].isdigit() or stripped[idx] == "."):
        idx += 1
    number_part = stripped[:idx]
    unit_part = stripped[idx:].strip()
    if not number_part:
        raise ValueError(f"duration missing number: {text!r}")
    if unit_part not in units:
        raise ValueError(f"unknown duration unit {unit_part!r} in {text!r}")
    value = float(number_part)
    result = int(round(value * units[unit_part]))
    if result <= 0:
        raise ValueError(f"duration must be positive: {text!r}")
    return result


def format_duration_ms(ms: int) -> str:
    """Render a millisecond duration compactly, e.g. ``300000`` -> ``"5m"``."""
    if ms % DAYS == 0:
        return f"{ms // DAYS}d"
    if ms % HOURS == 0:
        return f"{ms // HOURS}h"
    if ms % MINUTES == 0:
        return f"{ms // MINUTES}m"
    if ms % SECONDS == 0:
        return f"{ms // SECONDS}s"
    return f"{ms}ms"


# -- process-wide default ------------------------------------------------------

#: The system source every component falls back to when none is
#: injected. Built once per process; honors ``$RAILGUN_TIME_SCALE``.
SYSTEM = SystemTimeSource()

_default: TimeSource = SYSTEM
_default_lock = threading.Lock()


def default_time_source() -> TimeSource:
    """The process-wide source components use when none is injected."""
    return _default


def set_default_time_source(source: TimeSource | None) -> TimeSource:
    """Install ``source`` (``None`` restores :data:`SYSTEM`) process-wide;
    returns the previous default so tests can restore it.

    Components resolve their source *at construction*, not at import —
    installing a deterministic default therefore affects objects built
    afterwards, which is exactly what a test fixture wants.
    """
    global _default
    with _default_lock:
        previous = _default
        _default = source if source is not None else SYSTEM
        return previous


def resolve_time_source(explicit: TimeSource | None) -> TimeSource:
    """The injected source, or the process default. Call at
    construction time (never bind a default in a signature — that
    freezes the default at import, the bug this module exists to fix)."""
    return explicit if explicit is not None else _default
