"""Seeded traffic for every workload; the engine only ever sees its output.

Common shape: stream ``tx`` partitioned by ``cardId``; card ids are
Zipf(1.1) over 5 000 cards; event time advances 100 ms per event and is
decoupled from wall time, so a 20-minute window holds 12 000 events no
matter how fast they are sent. The same seed gives the same events.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from repro.events.event import Event
from repro.events.generators import fraud_schema

STEP_MS = 100
CARDS = 5_000
ZIPF_S = 1.1
WIDE_FIELDS = 32
START_MS = 1_000

NARROW_SCHEMA = {"cardId": "string", "amount": "float"}

#: messy traffic mix (shares of events)
RESENT_SHARE = 0.02
LATE_SHARE = 0.10
TIE_SHARE = 0.20
LATE_MAX_MS = 5_000

_CARD_NAMES = [f"card-{rank:05d}" for rank in range(CARDS)]
_CARD_CUM = list(
    itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, CARDS + 1))
)
_POOL = 64


def wide_schema() -> dict[str, str]:
    """The 32-column payments schema (``fraud_schema(32)`` shape)."""
    return {f.name: f.field_type.value for f in fraud_schema(WIDE_FIELDS).fields}


def _wide_pools(rng: random.Random) -> list[tuple[str, list]]:
    pools = []
    for name, type_name in wide_schema().items():
        if name in NARROW_SCHEMA:
            continue
        if type_name == "string":
            values = [f"{name[:4]}-{rng.randrange(10**6):06d}" for _ in range(_POOL)]
        elif type_name == "int":
            values = [rng.randrange(10**6) for _ in range(_POOL)]
        elif type_name == "float":
            values = [round(rng.uniform(0.0, 1000.0), 3) for _ in range(_POOL)]
        else:
            values = [bool(i & 1) for i in range(_POOL)]
        pools.append((name, values))
    return pools


class Traffic:
    """An endless, deterministic event sequence; ``take`` continues it.

    Steady traffic is strictly in order with unique ids. Messy traffic
    re-sends 2 % of events verbatim (same id), stamps 10 % late by
    1..5 000 ms of event time and ties 20 % to their predecessor's
    timestamp — the inputs that leave the engine's batched fast path.
    """

    def __init__(self, seed: int, *, wide: bool = False, messy: bool = False) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._pools = _wide_pools(self._rng) if wide else []
        self._messy = messy
        self._index = 0
        #: what a re-send or a tie can refer back to
        self._recent: deque[Event] = deque(maxlen=_POOL)

    def take(self, count: int) -> list[Event]:
        """The next ``count`` events, fully materialised."""
        rng, recent = self._rng, self._recent
        cards = rng.choices(_CARD_NAMES, cum_weights=_CARD_CUM, k=count)
        events: list[Event] = []
        for card in cards:
            index = self._index
            self._index += 1
            stamp = START_MS + index * STEP_MS
            if self._messy and recent:
                draw = rng.random()
                if draw < RESENT_SHARE:
                    events.append(rng.choice(recent))
                    continue
                if draw < RESENT_SHARE + LATE_SHARE:
                    stamp = max(0, stamp - rng.randint(1, LATE_MAX_MS))
                elif draw < RESENT_SHARE + LATE_SHARE + TIE_SHARE:
                    stamp = recent[-1].timestamp
            fields = {"cardId": card, "amount": round(rng.uniform(1.0, 500.0), 2)}
            if self._pools:
                pick = rng.getrandbits(30)
                for column, (name, values) in enumerate(self._pools):
                    fields[name] = values[(pick >> (column % 24)) & (_POOL - 1)]
            event = Event(f"s{self._seed}-{index:08d}", stamp, fields)
            events.append(event)
            if self._messy:
                recent.append(event)
        return events
