"""A fresh run through the plan's sweep equals the per-event turns.

``TaskProcessor.process_batch`` hands a run of fresh in-order events the
reservoir stored as themselves to ``TaskPlan.process_run``: each
iterator advances once per run, its batch is cut at every event's limit,
and every turn — of a run or of one event — folds a window of one filter
without a predicate over one group-by node straight onto cells when the
event is its only enter.
None of that may be observable: replies, full ``TASK_CHECKPOINT`` bytes,
logical key reads/writes, iterator positions and ``ReservoirStats`` must
equal those of ``TaskProcessor.process`` called per event.
"""

from __future__ import annotations

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.task import TASK_CHECKPOINT, TaskProcessor
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.plan import dag
from repro.reservoir.reservoir import OutOfOrderPolicy, ReservoirConfig
from repro.state import store as state_store

STREAM = StreamDef(
    "tx",
    (("cardId", "string"), ("amount", "float"), ("country", "string")),
    ("cardId",),
    1,
)

#: every window one filter without a predicate over one group-by node:
#: sliding and tumbling windows, a two-field and a global group-by, and
#: every aggregation
FAST_PLAN = (
    "SELECT sum(amount), count(*), avg(amount), stdDev(amount) FROM tx "
    "GROUP BY cardId OVER sliding 40 ms",
    "SELECT max(amount), min(amount), last(amount), prev(amount) FROM tx "
    "GROUP BY cardId OVER tumbling 30 ms",
    "SELECT countDistinct(country), count(*) FROM tx "
    "GROUP BY cardId, country OVER sliding 90 ms",
    "SELECT sum(amount) FROM tx OVER sliding 25 ms",
)
#: the delayed window's enters are older events: it takes the generic
#: fold, the other two fold on cells
DELAYED_PLAN = FAST_PLAN[:2] + (
    "SELECT max(amount), countDistinct(cardId) FROM tx GROUP BY country "
    "OVER sliding 60 ms delayed by 10 ms",
)
#: a filtered metric shares a window with an unfiltered one: only the
#: tumbling window folds on cells
FILTERED_PLAN = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 40 ms",
    "SELECT avg(amount), last(amount) FROM tx WHERE amount > 5 "
    "GROUP BY cardId OVER sliding 40 ms",
    "SELECT min(amount), prev(amount), countDistinct(country) FROM tx "
    "GROUP BY cardId, country OVER tumbling 50 ms",
)
PLANS = {"fast": FAST_PLAN, "delayed": DELAYED_PLAN, "filtered": FILTERED_PLAN}


def _processor(plan: tuple[str, ...], config: ReservoirConfig) -> TaskProcessor:
    return TaskProcessor.build(
        TopicPartition("tx.cardId", 0),
        STREAM,
        [MetricDef(i, query, "tx", "tx.cardId", False) for i, query in enumerate(plan)],
        reservoir_config=config,
    )


def _observed(processor: TaskProcessor) -> tuple:
    buf = bytearray()
    TASK_CHECKPOINT.write(buf, processor.checkpoint())
    return (
        bytes(buf),
        processor.state.key_reads,
        processor.state.key_writes,
        processor.plan.iterator_positions(),
        processor.plan.events_processed,
    )


def _reservoir_reads(processor: TaskProcessor) -> tuple:
    return vars(processor.reservoir.stats), vars(processor.reservoir.cache.stats)


def _turn_per_event(processor: TaskProcessor) -> TaskProcessor:
    """``processor`` with its fresh runs taken one ``process_event`` turn
    per event after the batch append: the reference the sweep equals."""
    plan = processor.plan
    plan.process_run = lambda events: [
        plan.process_event(event, event.timestamp, 1) for event in events
    ]
    return processor


def _records(steps) -> list[tuple[int, Event]]:
    """``(offset, event)`` per step: mostly fresh events (``gap`` 0 is a
    timestamp tie), some re-sent ids and late arrivals."""
    events: list[Event] = []
    ts = 0
    for i, (kind, gap, card, amount, country) in enumerate(steps):
        ts += gap
        # thirds do not add up exactly: float folds are order-sensitive
        fields = {"cardId": f"c{card}", "amount": amount / 3, "country": country}
        if kind == "resend" and events:
            events.append(events[card % len(events)])
        elif kind == "late":
            events.append(Event(f"e{i}", max(0, ts - 7 * gap - 3), fields))
        else:
            events.append(Event(f"e{i}", ts, fields))
    return list(enumerate(events))


def assert_batches_equal_per_event(
    plan: tuple[str, ...],
    records: list[tuple[int, Event]],
    sizes: list[int],
    config: ReservoirConfig,
    resident_cap: int = state_store.RESIDENT_CAP,
) -> TaskProcessor:
    """``process_batch`` over ``records`` cut into ``sizes`` equals
    ``process`` per record. Chunk reads are compared with a batched
    processor that turns per event: a batch appends a run before any
    turn reads it, so with a small chunk cache its reads differ from the
    per-event interleaving, and the sweep must not move them further."""
    def in_batches(processor: TaskProcessor) -> list:
        replies = []
        index, turn = 0, 0
        while index < len(records):
            size = sizes[turn % len(sizes)]
            replies.extend(processor.process_batch(records[index:index + size]))
            index += size
            turn += 1
        return replies

    with mock.patch.object(state_store, "RESIDENT_CAP", resident_cap):
        per_event = _processor(plan, config)
        batched = _processor(plan, config)
        turned = _turn_per_event(_processor(plan, config))
        try:
            expected = [per_event.process(offset, event) for offset, event in records]
        except ValueError as error:
            # A known quirk of every path (exits fold before enters): an
            # event older than its window is evicted before it is added,
            # and a countDistinct counter goes negative. Both batched
            # processors must fail the same way.
            for processor in (batched, turned):
                with pytest.raises(ValueError, match=re.escape(str(error))):
                    in_batches(processor)
            return batched
        for processor in (batched, turned):
            assert in_batches(processor) == expected
        observed = _observed(per_event)
        assert _observed(batched) == observed
        assert _observed(turned) == observed
        assert _reservoir_reads(batched) == _reservoir_reads(turned)
        if config.cache_capacity > len(per_event.reservoir.index):
            assert _reservoir_reads(batched)[0] == _reservoir_reads(per_event)[0]
    return batched


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["fresh"] * 12 + ["resend", "late"]),
        st.sampled_from([0, 0, 1, 2, 3, 7, 30]),
        st.integers(0, 4),
        st.integers(0, 9),
        st.sampled_from(["PT", "ES", "FR"]),
    ),
    min_size=1,
    max_size=240,
)


class TestSweepEqualsPerEventTurns:
    @settings(max_examples=70, deadline=None)
    @given(
        plan=st.sampled_from(sorted(PLANS)),
        steps=STEPS,
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
        chunk_max=st.sampled_from([3, 4, 8, 32]),
        cache=st.sampled_from([1, 2, 220]),
        resident_cap=st.sampled_from([8, state_store.RESIDENT_CAP]),
        discard=st.booleans(),
    )
    def test_process_batch_equals_process(
        self, plan, steps, sizes, chunk_max, cache, resident_cap, discard
    ):
        config = ReservoirConfig(
            chunk_max_events=chunk_max,
            file_max_chunks=4,
            cache_capacity=cache,
            ooo_policy=OutOfOrderPolicy.DISCARD if discard else OutOfOrderPolicy.REWRITE,
        )
        assert_batches_equal_per_event(
            PLANS[plan], _records(steps), sizes, config, resident_cap
        )

    def test_ties_evictions_and_a_sealed_boundary_tie(self):
        # Tie groups of three at 4-event chunks: a group straddles every
        # chunk close, so its late members tie a sealed timestamp and
        # are rewritten; 8 resident aggregators make most loads evict,
        # so `live` turns false mid-run.
        steps = [
            ("fresh", 0 if i % 3 else 2, i % 5, i % 7, ("PT", "ES")[i % 2])
            for i in range(300)
        ]
        config = ReservoirConfig(chunk_max_events=4, file_max_chunks=4, cache_capacity=2)
        for plan in PLANS.values():
            batched = assert_batches_equal_per_event(
                plan, _records(steps), [64, 17, 5], config, resident_cap=8
            )
            stats = batched.reservoir.stats
            assert stats.ooo_rewritten > 0
            assert stats.demand_chunk_loads > 0
            assert batched.state.db.stats.puts > 0  # evictions wrote back

    def test_every_turn_folds_its_own_event_on_cells(self):
        # Per-event turns and sweeps alike fold a window of one
        # predicate-free filter over one group-by node on cells; a
        # delayed window (its enters are older events) and a filtered
        # one take the generic fold. Three processors, 400 events.
        steps = [("fresh", 1 + i % 3, i % 5, i % 7, "PT") for i in range(400)]
        calls = {}
        for name, plan in PLANS.items():
            spy = mock.Mock(wraps=dag._fold_on_cells)
            with mock.patch.object(dag, "_fold_on_cells", spy):
                assert_batches_equal_per_event(
                    plan, _records(steps), [64], ReservoirConfig(chunk_max_events=32)
                )
            calls[name] = spy.call_count
        assert calls == {"fast": 4 * 1200, "delayed": 2 * 1200, "filtered": 1200}
