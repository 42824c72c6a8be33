"""Synthetic fraud workload.

The paper evaluates on "a real fraud dataset from one of our clients"
with **103 fields**, chosen to "simulate real-world dictionary
cardinalities for the aggregation states, and the expected load
differences among the several Railgun processors" (§5). That dataset is
proprietary, so we synthesize the closest equivalent:

- a 103-field payments schema (ids, amounts, card/merchant attributes,
  device fingerprints, address fields, enrichment columns);
- heavy-tailed (Zipf) card and merchant popularity, which produces both
  the large aggregation-state dictionaries and the per-partition load
  skew the real dataset exhibits;
- lognormal transaction amounts (the standard model for payment values).

The generator is deterministic given a seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from repro.events.event import Event
from repro.events.schema import FieldType, Schema, SchemaField

#: Core fields every query in the paper touches.
_CORE_FIELDS = [
    SchemaField("cardId", FieldType.STRING),
    SchemaField("merchantId", FieldType.STRING),
    SchemaField("amount", FieldType.FLOAT),
    SchemaField("currency", FieldType.STRING),
    SchemaField("mcc", FieldType.INT),
    SchemaField("terminalId", FieldType.STRING),
    SchemaField("deviceId", FieldType.STRING),
    SchemaField("channel", FieldType.STRING),
    SchemaField("country", FieldType.STRING),
    SchemaField("city", FieldType.STRING),
    SchemaField("zip", FieldType.STRING),
    SchemaField("emailDomain", FieldType.STRING),
    SchemaField("ipOctet", FieldType.INT),
    SchemaField("isCardPresent", FieldType.BOOL),
    SchemaField("isRecurring", FieldType.BOOL),
    SchemaField("authResult", FieldType.STRING),
]

_PAD_PREFIXES = ("enr", "risk", "bin", "geo", "hist")


def fraud_schema(total_fields: int = 103) -> Schema:
    """Build the synthetic payments schema with ``total_fields`` columns.

    The first columns are the semantically meaningful ones; the rest are
    enrichment-style padding columns (float scores, int codes, string
    labels) so the serialized event size and deserialization cost match a
    wide real-world record.
    """
    if total_fields < len(_CORE_FIELDS):
        raise ValueError(
            f"total_fields must be >= {len(_CORE_FIELDS)}: {total_fields}"
        )
    fields = list(_CORE_FIELDS)
    pad_types = (FieldType.FLOAT, FieldType.INT, FieldType.STRING)
    index = 0
    while len(fields) < total_fields:
        prefix = _PAD_PREFIXES[index % len(_PAD_PREFIXES)]
        fields.append(SchemaField(f"{prefix}_{index:03d}", pad_types[index % 3]))
        index += 1
    return Schema(fields)


class ZipfSampler:
    """Zipf(s) sampler over ``n`` ranks using inverse-CDF binary search.

    Precomputing the CDF costs O(n) once; each sample is O(log n). Rank 0
    is the most popular entity.
    """

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive: {n}")
        if s < 0:
            raise ValueError(f"s must be non-negative: {s}")
        self._rng = rng
        self._cdf: list[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / math.pow(rank, s)
            self._cdf.append(total)
        self._total = total

    def sample(self) -> int:
        """Draw a rank in ``[0, n)``."""
        target = self._rng.random() * self._total
        lo, hi = 0, len(self._cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo


class FraudWorkload:
    """Deterministic stream of synthetic payment events.

    Parameters
    ----------
    cards / merchants:
        Entity population sizes (dictionary cardinalities).
    card_skew / merchant_skew:
        Zipf exponents; ~1.1 reproduces the head-heavy behaviour of real
        card activity.
    events_per_second:
        Sustained event rate; inter-arrival times are exponential
        (Poisson arrivals) unless ``jitter`` is 0, which produces a
        perfectly-paced open-loop injector.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(
        self,
        cards: int = 50_000,
        merchants: int = 2_000,
        card_skew: float = 1.1,
        merchant_skew: float = 1.05,
        events_per_second: float = 500.0,
        start_ms: int = 0,
        seed: int = 7,
        total_fields: int = 103,
        jitter: float = 1.0,
    ) -> None:
        if events_per_second <= 0:
            raise ValueError("events_per_second must be positive")
        self.schema = fraud_schema(total_fields)
        self._rng = random.Random(seed)
        self._cards = ZipfSampler(cards, card_skew, self._rng)
        self._merchants = ZipfSampler(merchants, merchant_skew, self._rng)
        self._rate = events_per_second
        self._now_ms = float(start_ms)
        self._seq = 0
        self._jitter = jitter
        self._pad_names = [
            f.name for f in self.schema.fields if f.name not in {c.name for c in _CORE_FIELDS}
        ]
        self._pad_types = {f.name: f.field_type for f in self.schema.fields}

    def _next_interarrival_ms(self) -> float:
        mean = 1000.0 / self._rate
        if self._jitter == 0:
            return mean
        return self._rng.expovariate(1.0 / mean)

    def _amount(self) -> float:
        # Lognormal with median ~30 and a heavy right tail, the standard
        # shape for card-payment values.
        return round(self._rng.lognormvariate(3.4, 1.2), 2)

    def next_event(self) -> Event:
        """Generate the next event (advances the workload clock)."""
        self._now_ms += self._next_interarrival_ms()
        return self.event_at(int(self._now_ms))

    def event_at(self, timestamp_ms: int) -> Event:
        """Generate one event at an explicit timestamp."""
        card_rank = self._cards.sample()
        merchant_rank = self._merchants.sample()
        rng = self._rng
        fields: dict[str, object] = {
            "cardId": f"card-{card_rank:06d}",
            "merchantId": f"merch-{merchant_rank:05d}",
            "amount": self._amount(),
            "currency": rng.choice(("USD", "EUR", "GBP", "BRL")),
            "mcc": rng.choice((5411, 5812, 4829, 5999, 7995, 6011)),
            "terminalId": f"term-{rng.randrange(10_000):05d}",
            "deviceId": f"dev-{rng.randrange(100_000):06d}",
            "channel": rng.choice(("pos", "ecom", "atm", "moto")),
            "country": rng.choice(("US", "PT", "GB", "DE", "BR", "FR")),
            "city": f"city-{rng.randrange(500):03d}",
            "zip": f"{rng.randrange(100_000):05d}",
            "emailDomain": rng.choice(("gmail.com", "yahoo.com", "proton.me", "corp.example")),
            "ipOctet": rng.randrange(256),
            "isCardPresent": rng.random() < 0.6,
            "isRecurring": rng.random() < 0.1,
            "authResult": rng.choice(("approved", "declined", "review")),
        }
        # Enrichment padding: cheap deterministic values, full width.
        for name in self._pad_names:
            field_type = self._pad_types[name]
            if field_type is FieldType.FLOAT:
                fields[name] = round(rng.random(), 6)
            elif field_type is FieldType.INT:
                fields[name] = rng.randrange(1_000)
            else:
                fields[name] = f"v{rng.randrange(64):02d}"
        event = Event(f"evt-{self._seq:012d}", timestamp_ms, fields)
        self._seq += 1
        return event

    def take(self, count: int) -> list[Event]:
        """Generate ``count`` events."""
        return [self.next_event() for _ in range(count)]

    def stream(self) -> Iterator[Event]:
        """An endless iterator of events."""
        while True:
            yield self.next_event()


class BurstWorkload:
    """Adversarial burst generator for the Figure 1 accuracy experiment.

    Emits, per entity, ``burst_size`` events packed *just inside* a
    ``window_ms`` interval — the exact pattern a fraudster exploiting a
    hopping window's predictable hop would use (§2.1). Between bursts,
    entities idle for longer than the window so each burst is isolated.
    """

    def __init__(
        self,
        window_ms: int,
        burst_size: int = 5,
        entities: int = 50,
        seed: int = 13,
        start_ms: int = 0,
        span_range: tuple[float, float] = (0.5, 0.998),
    ) -> None:
        if burst_size < 2:
            raise ValueError("burst_size must be at least 2")
        low, high = span_range
        if not 0.0 < low <= high < 1.0:
            raise ValueError(f"span_range must satisfy 0 < low <= high < 1: {span_range}")
        self.window_ms = window_ms
        self.burst_size = burst_size
        self.entities = entities
        self.span_range = span_range
        self._rng = random.Random(seed)
        self._start = start_ms
        self._seq = 0

    def bursts(self) -> Iterator[list[Event]]:
        """Yield one isolated burst (list of events) per entity.

        Each burst spans a random fraction of the window (``span_range``)
        and starts at a random phase against any hop grid — shorter
        spans give hopping windows a fighting chance, which is exactly
        what makes the detection-rate-vs-hop-size curve informative.
        """
        cursor = self._start + self.window_ms  # leave room before first burst
        for entity in range(self.entities):
            offset = self._rng.randrange(self.window_ms)
            burst_start = cursor + offset
            low, high = self.span_range
            span = max(
                self.burst_size,
                int(self.window_ms * self._rng.uniform(low, high)) - 1,
            )
            gaps = sorted(self._rng.randrange(span) for _ in range(self.burst_size - 2))
            times = [burst_start] + [burst_start + 1 + g for g in gaps] + [burst_start + span]
            burst = []
            for ts in sorted(times):
                burst.append(
                    Event(
                        f"burst-{self._seq:08d}",
                        ts,
                        {"cardId": f"attacker-{entity:04d}", "amount": 9.99},
                    )
                )
                self._seq += 1
            yield burst
            cursor = burst_start + 2 * self.window_ms
