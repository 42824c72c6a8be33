"""Window specification and boundary arithmetic.

An event with timestamp ``t`` belongs to a window evaluation at
``T_eval`` iff ``T_eval - ws <= t < T_eval`` (paper §2). Evaluations
happen "the moment right after a new event has arrived", so for an
arriving event with timestamp ``T`` the window contents are exactly the
stored events with ``T - ws < t <= T`` — the arriving event always
belongs to its own evaluation (Figure 1's s0 contains e1..e5).

A ``delayed by d`` window shifts both bounds back by ``d`` (§3.4):
contents are ``T - d - ws < t <= T - d``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.timesource import format_duration_ms


class WindowKind(enum.Enum):
    """The window families of Figure 4."""

    SLIDING = "sliding"
    TUMBLING = "tumbling"
    INFINITE = "infinite"


@dataclass(frozen=True)
class WindowSpec:
    """A fully-specified window: kind, size and delay offset."""

    kind: WindowKind
    size_ms: int | None = None
    delay_ms: int = 0

    def __post_init__(self) -> None:
        if self.kind is WindowKind.INFINITE:
            if self.size_ms is not None:
                raise ValueError("infinite windows take no size")
        else:
            if self.size_ms is None or self.size_ms <= 0:
                raise ValueError(f"{self.kind.value} window needs a positive size")
        if self.delay_ms < 0:
            raise ValueError(f"window delay cannot be negative: {self.delay_ms}")

    # -- iterator boundaries ---------------------------------------------------

    def head_limit(self, eval_ts: int) -> int:
        """Newest event timestamp included at evaluation time ``eval_ts``."""
        return eval_ts - self.delay_ms

    def tail_limit(self, eval_ts: int) -> int | None:
        """Newest *expired* timestamp at ``eval_ts`` (None: nothing expires).

        Sliding windows expire events older than ``size``; tumbling
        windows expire whole buckets at bucket boundaries; infinite
        windows never expire anything.
        """
        if self.kind is WindowKind.INFINITE:
            return None
        effective = eval_ts - self.delay_ms
        if self.kind is WindowKind.SLIDING:
            return effective - self.size_ms  # type: ignore[operator]
        bucket_start = (effective // self.size_ms) * self.size_ms  # type: ignore[operator]
        return bucket_start - 1

    # -- iterator sharing keys ---------------------------------------------------

    def head_share_key(self) -> tuple:
        """Windows with equal keys share a head iterator (§4.1.1).

        Any window kind with the same delay consumes the same entering
        events ("two real-time sliding windows always share the same
        head iterator").
        """
        return ("head", self.delay_ms)

    def tail_share_key(self) -> tuple | None:
        """Windows with equal keys share a tail iterator (None: no tail)."""
        if self.kind is WindowKind.INFINITE:
            return None
        return ("tail", self.kind.value, self.size_ms, self.delay_ms)

    def describe(self) -> str:
        """Language-level rendering, e.g. ``sliding 5m delayed by 10s``."""
        if self.kind is WindowKind.INFINITE:
            base = "infinite"
        else:
            base = f"{self.kind.value} {format_duration_ms(self.size_ms)}"  # type: ignore[arg-type]
        if self.delay_ms:
            base += f" delayed by {format_duration_ms(self.delay_ms)}"
        return base

    def contains(self, event_ts: int, eval_ts: int) -> bool:
        """Membership test used by reference implementations in tests."""
        upper = self.head_limit(eval_ts)
        if event_ts > upper:
            return False
        lower = self.tail_limit(eval_ts)
        if lower is None:
            return True
        return event_ts > lower
