"""Aggregator interface and the auxiliary-store hook.

State life-cycle: the state store materializes an aggregator from bytes
(or fresh) the first time its key is touched and keeps it resident,
applying ``add``/``evict`` for the events entering/leaving the window
and reading ``result()`` per event; ``state_to_bytes`` runs only when
the store writes it back (checkpoint, eviction, row export). The
round-trip must be lossless — a reloaded aggregator continues
bit-identically. All persistence policy lives in :mod:`repro.state`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.events.event import Event


class AuxStore(ABC):
    """Auxiliary keyed counters for aggregators with non-scalar state.

    ``countDistinct`` "uses an auxiliary column-family in RocksDB to
    hold the counts" (§4.1.3); the state store hands aggregators a view
    scoped to their (metric, entity) prefix.
    """

    @abstractmethod
    def increment(self, key: bytes, delta: int) -> int:
        """Adjust a counter and return the new value (0 deletes it)."""

    @abstractmethod
    def get(self, key: bytes) -> int:
        """Current counter value (0 when absent)."""

    @abstractmethod
    def count_keys(self) -> int:
        """Number of live counters under this scope."""


class MemoryAuxStore(AuxStore):
    """Dict-backed aux store for unit tests and standalone use."""

    def __init__(self) -> None:
        self._counts: dict[bytes, int] = {}

    def increment(self, key: bytes, delta: int) -> int:
        value = self._counts.get(key, 0) + delta
        if value < 0:
            raise ValueError(f"counter for {key!r} went negative: {value}")
        if value == 0:
            self._counts.pop(key, None)
        else:
            self._counts[key] = value
        return value

    def get(self, key: bytes) -> int:
        return self._counts.get(key, 0)

    def count_keys(self) -> int:
        return len(self._counts)


class Aggregator(ABC):
    """An incremental aggregation over a window's contents."""

    #: language-level name, e.g. ``"sum"`` (set by subclasses)
    name: str = "abstract"
    #: True when the aggregator needs an :class:`AuxStore`
    needs_aux: bool = False

    #: Thousands of aggregators stay resident per task: every subclass
    #: declares its state as slots, so none carries a ``__dict__``.
    __slots__ = ()

    @abstractmethod
    def add(self, value: Any, event: Event) -> None:
        """Fold in an event entering the window."""

    @abstractmethod
    def evict(self, value: Any, event: Event) -> None:
        """Fold out an event leaving the window.

        Callers guarantee every evicted event was previously added.
        """

    @abstractmethod
    def result(self) -> Any:
        """Current aggregation value (None when undefined, e.g. empty avg)."""

    @abstractmethod
    def state_to_bytes(self) -> bytes:
        """Serialize internal state for the state store."""

    @abstractmethod
    def state_from_bytes(self, data: bytes) -> None:
        """Restore internal state written by :meth:`state_to_bytes`."""

    def update_batch(
        self,
        enters: Sequence[tuple[Any, Event]],
        exits: Sequence[tuple[Any, Event]],
    ) -> None:
        """Fold a batch of entering/exiting ``(value, event)`` pairs.

        Evictions are applied before additions, mirroring the state
        store's per-event fold order, so results are identical to calling
        :meth:`evict`/:meth:`add` one pair at a time. Scalar aggregators
        override this to strip the per-event dispatch from the hot loop;
        overrides must preserve the exact per-event fold order (float
        accumulation is order-sensitive).
        """
        for value, event in exits:
            self.evict(value, event)
        for value, event in enters:
            self.add(value, event)

    def bind_aux(self, aux: AuxStore) -> None:
        """Attach the auxiliary store (only for ``needs_aux`` aggregators)."""
        raise NotImplementedError(f"{self.name} does not use an aux store")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(result={self.result()!r})"
