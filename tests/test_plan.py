"""Task plan tests: DAG sharing, windowed correctness, backfill."""

import dataclasses
import math
import random

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.state.store as state_store
from repro.aggregates.registry import create_aggregator
from repro.common.timesource import MINUTES
from repro.engine.catalog import MetricDef, StreamDef, topic_name
from repro.engine.task import TaskProcessor
from repro.events import Event, FieldType, Schema, SchemaField, SchemaRegistry
from repro.messaging.log import TopicPartition
from repro.plan import TaskPlan
from repro.query import parse_query
from repro.reservoir import EventReservoir, ReservoirConfig
from repro.state import MetricStateStore


def _setup(chunk_events=16, cache=8):
    registry = SchemaRegistry()
    registry.register(
        Schema(
            [
                SchemaField("cardId", FieldType.STRING),
                SchemaField("merchantId", FieldType.STRING),
                SchemaField("amount", FieldType.FLOAT),
                SchemaField("channel", FieldType.STRING),
            ]
        )
    )
    reservoir = EventReservoir(
        registry,
        config=ReservoirConfig(chunk_max_events=chunk_events, cache_capacity=cache),
    )
    return reservoir, TaskPlan(reservoir, MetricStateStore())


def _event(i, ts, card="c1", merchant="m1", amount=1.0, channel="pos"):
    return Event(
        f"e{i}", ts,
        {"cardId": card, "merchantId": merchant, "amount": amount, "channel": channel},
    )


def _feed(reservoir, plan, event):
    result = reservoir.append(event)
    assert result.stored
    return plan.process_event(result.event)


class TestDagSharing:
    def test_figure6_example(self):
        # Q1 (card sum+count) and Q2 (merchant avg), same 5-min window:
        # 1 window + 1 filter + 2 group-bys + 3 aggregators = 7 nodes.
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT sum(amount), count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        plan.add_metric(parse_query(
            "SELECT avg(amount) FROM p GROUP BY merchantId OVER sliding 5 minutes"
        ))
        assert plan.node_count() == 7
        assert plan.iterator_count == 2  # shared head + shared tail

    def test_same_groupby_shares_everything(self):
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        plan.add_metric(parse_query(
            "SELECT max(amount) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        # window + filter + group-by + 2 aggregators.
        assert plan.node_count() == 5

    def test_different_filters_fork(self):
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p WHERE amount > 10 GROUP BY cardId OVER sliding 5 minutes"
        ))
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        # 1 window + 2 filters + 2 group-bys + 2 aggs.
        assert plan.node_count() == 7
        assert plan.iterator_count == 2  # iterators still shared

    def test_different_windows_fork_iterators(self):
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 minute"
        ))
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        # Heads shared (same delay), tails differ: 1 + 2 = 3.
        assert plan.iterator_count == 3

    def test_misaligned_delays_fork_heads(self):
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 minute"
        ))
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 minute delayed by 10 seconds"
        ))
        assert plan.iterator_count == 4

    def test_infinite_window_has_no_tail(self):
        _, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT countDistinct(merchantId) FROM p GROUP BY cardId OVER infinite"
        ))
        assert plan.iterator_count == 1


class TestWindowedCorrectness:
    def test_sliding_against_brute_force(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT sum(amount), count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        rng = random.Random(7)
        history = []
        ts = 0
        for i in range(400):
            ts += rng.randrange(1, 40_000)
            card = f"c{rng.randrange(4)}"
            amount = round(rng.uniform(1, 50), 2)
            event = _event(i, ts, card=card, amount=amount)
            history.append(event)
            replies = _feed(reservoir, plan, event)
            window = [
                e for e in history
                if e.timestamp > ts - 5 * MINUTES and e["cardId"] == card
            ]
            got = replies[handle.metric_id]
            assert got["count(*)"] == len(window)
            assert got["sum(amount)"] == pytest.approx(
                sum(e["amount"] for e in window)
            )

    def test_filter_applies_to_enter_and_exit(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p WHERE channel == 'ecom' "
            "GROUP BY cardId OVER sliding 1 minute"
        ))
        _feed(reservoir, plan, _event(0, 1_000, channel="ecom"))
        _feed(reservoir, plan, _event(1, 2_000, channel="pos"))
        replies = _feed(reservoir, plan, _event(2, 3_000, channel="ecom"))
        assert replies[handle.metric_id]["count(*)"] == 2
        # After expiry of the first ecom event.
        replies = _feed(reservoir, plan, _event(3, 62_000, channel="pos"))
        assert replies[handle.metric_id]["count(*)"] == 1

    def test_tumbling_window(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER tumbling 1 minute"
        ))
        _feed(reservoir, plan, _event(0, 10_000))
        replies = _feed(reservoir, plan, _event(1, 50_000))
        assert replies[handle.metric_id]["count(*)"] == 2
        # New bucket: all previous events evicted at once.
        replies = _feed(reservoir, plan, _event(2, 61_000))
        assert replies[handle.metric_id]["count(*)"] == 1

    def test_infinite_window_accumulates_forever(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT countDistinct(merchantId) FROM p GROUP BY cardId OVER infinite"
        ))
        for i, merchant in enumerate(("m1", "m2", "m1", "m3")):
            replies = _feed(
                reservoir, plan,
                _event(i, (i + 1) * 10 * MINUTES, merchant=merchant),
            )
        assert replies[handle.metric_id]["countDistinct(merchantId)"] == 3

    def test_delayed_window_lags(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 minute delayed by 1 minute"
        ))
        _feed(reservoir, plan, _event(0, 10_000))
        replies = _feed(reservoir, plan, _event(1, 30_000))
        # Both events are newer than now - delay: window still empty.
        assert replies[handle.metric_id]["count(*)"] == 0
        replies = _feed(reservoir, plan, _event(2, 80_000))
        # Now - 60s = 20s: event at 10s entered the delayed window.
        assert replies[handle.metric_id]["count(*)"] == 1

    def test_multiple_groupby_fields(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId, merchantId OVER sliding 5 minutes"
        ))
        _feed(reservoir, plan, _event(0, 1_000, card="c1", merchant="m1"))
        _feed(reservoir, plan, _event(1, 2_000, card="c1", merchant="m2"))
        replies = _feed(reservoir, plan, _event(2, 3_000, card="c1", merchant="m1"))
        assert replies[handle.metric_id]["count(*)"] == 2

    def test_reply_for_untouched_key_peeks(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p WHERE channel == 'ecom' "
            "GROUP BY cardId OVER sliding 5 minutes"
        ))
        # A filtered-out event still gets a (read-only) reply.
        replies = _feed(reservoir, plan, _event(0, 1_000, channel="pos"))
        assert replies[handle.metric_id]["count(*)"] == 0


class TestReadonlyAndRemoval:
    def test_process_event_readonly_does_not_mutate(self):
        reservoir, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        _feed(reservoir, plan, _event(0, 1_000))
        replies = plan.process_event_readonly(_event(99, 2_000))
        assert replies[handle.metric_id]["count(*)"] == 1
        replies = _feed(reservoir, plan, _event(1, 3_000))
        assert replies[handle.metric_id]["count(*)"] == 2

    def test_remove_metric_prunes_dag(self):
        _, plan = _setup()
        first = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 minute"
        ))
        plan.remove_metric(first.metric_id)
        assert plan.metric_count == 1
        # 5-minute tail iterator released, head still shared.
        assert plan.iterator_count == 2

    def test_remove_last_metric_empties_plan(self):
        _, plan = _setup()
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        plan.remove_metric(handle.metric_id)
        assert plan.node_count() == 0
        assert plan.iterator_count == 0

    def test_explicit_metric_ids(self):
        _, plan = _setup()
        handle = plan.add_metric(
            parse_query("SELECT count(*) FROM p GROUP BY cardId OVER infinite"),
            metric_id=42,
        )
        assert handle.metric_id == 42
        with pytest.raises(ValueError):
            plan.add_metric(
                parse_query("SELECT count(*) FROM p GROUP BY cardId OVER infinite"),
                metric_id=42,
            )


class TestBackfill:
    def test_backfilled_metric_matches_original(self):
        reservoir, plan = _setup()
        original = plan.add_metric(parse_query(
            "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 10 minutes"
        ))
        for i in range(30):
            _feed(reservoir, plan, _event(i, (i + 1) * 10_000, amount=float(i)))
        late = plan.add_metric(
            parse_query(
                "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 10 minutes"
            ),
            backfill=True,
        )
        replies = _feed(reservoir, plan, _event(99, 310_000, amount=1.0))
        assert replies[late.metric_id]["sum(amount)"] == pytest.approx(
            replies[original.metric_id]["sum(amount)"]
        )

    def test_backfill_respects_filter(self):
        reservoir, plan = _setup()
        for i in range(10):
            channel = "ecom" if i % 2 == 0 else "pos"
            _feed(reservoir, plan, _event(i, (i + 1) * 1_000, channel=channel))
        handle = plan.add_metric(
            parse_query(
                "SELECT count(*) FROM p WHERE channel == 'ecom' "
                "GROUP BY cardId OVER sliding 1 hour"
            ),
            backfill=True,
        )
        replies = _feed(reservoir, plan, _event(99, 11_000, channel="pos"))
        assert replies[handle.metric_id]["count(*)"] == 5

    def test_cold_metric_starts_empty(self):
        reservoir, plan = _setup()
        for i in range(10):
            _feed(reservoir, plan, _event(i, (i + 1) * 1_000))
        handle = plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour"
        ))
        replies = _feed(reservoir, plan, _event(99, 11_000))
        assert replies[handle.metric_id]["count(*)"] == 1

    def test_backfilled_window_expires_correctly(self):
        reservoir, plan = _setup()
        for i in range(5):
            _feed(reservoir, plan, _event(i, (i + 1) * 10_000, amount=10.0))
        handle = plan.add_metric(
            parse_query(
                "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 1 minute"
            ),
            backfill=True,
        )
        # All five backfilled events (10s..50s) expire by t = 111s.
        replies = _feed(reservoir, plan, _event(99, 111_000, amount=1.0))
        assert replies[handle.metric_id]["sum(amount)"] == pytest.approx(1.0)


class TestIteratorPositions:
    def test_positions_roundtrip(self):
        reservoir, plan = _setup()
        plan.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        for i in range(40):
            _feed(reservoir, plan, _event(i, (i + 1) * 1_000))
        positions = plan.iterator_positions()
        assert len(positions) == 2
        # Restore into a new plan over the same reservoir.
        other = TaskPlan(reservoir, MetricStateStore())
        other.add_metric(parse_query(
            "SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes"
        ))
        other.set_iterator_positions(positions)
        assert other.iterator_positions() == positions


# -- the plan against a brute-force evaluator ----------------------------------

MODEL_STREAM = StreamDef(
    "tx",
    (("cardId", "string"), ("merchantId", "string"), ("amount", "float"),
     ("channel", "string")),
    ("cardId",),
    partitions=1,
)
MODEL_TP = TopicPartition(topic_name("tx", "cardId"), 0)
#: four-event chunks seal constantly; with gaps of at most 20 s the open
#: chunk spans at most a minute, so a late event — stored where it lands
#: or rewritten to the open chunk's first timestamp — is still inside
#: every sliding window below (an event older than its window would be
#: evicted before it was ever added).
MODEL_RESERVOIR = ReservoirConfig(chunk_max_events=4, cache_capacity=2)
MAX_LATE_MS = 25_000
MAX_METRICS = 5
#: 0 and 1 share a group-by node; then a WHERE filter, a delayed, a
#: tumbling (invertible aggregations only: a late event of a closed
#: bucket is evicted and added in one turn) and an infinite window with
#: countDistinct, and two group-by fields.
MODEL_POOL = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 2 minutes",
    "SELECT max(amount), prev(amount) FROM tx GROUP BY cardId OVER sliding 2 minutes",
    "SELECT count(*), min(amount) FROM tx WHERE channel == 'ecom' "
    "GROUP BY cardId OVER sliding 2 minutes",
    "SELECT avg(amount), last(amount) FROM tx GROUP BY cardId "
    "OVER sliding 2 minutes delayed by 20 seconds",
    "SELECT count(*), sum(amount) FROM tx GROUP BY cardId OVER tumbling 2 minutes",
    "SELECT countDistinct(merchantId), stdDev(amount) FROM tx GROUP BY cardId OVER infinite",
    "SELECT count(*), max(amount) FROM tx GROUP BY cardId, merchantId OVER sliding 3 minutes",
)
POOL_INDEX = st.integers(0, len(MODEL_POOL) - 1)
EVENT_SPECS = st.tuples(
    st.sampled_from(["order", "order", "order", "tie", "late", "dup"]),
    st.integers(1, 20),  # in-order gap (seconds) / lateness draw / dup pick
    st.sampled_from(["c0", "c1", "c2"]),
    st.sampled_from(["m0", "m1"]),
    st.integers(0, 16),  # amount x 0.5: sums stay exact in any fold order
    st.sampled_from(["ecom", "pos"]),
)


@dataclasses.dataclass
class ModelMetric:
    definition: MetricDef
    query: object
    since: int  # arrivals[since:] are the stored events this metric has seen


def _same(got, want):
    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)  # stdDev
    return got == want


class PlanMachine(RuleBasedStateMachine):
    """A task processor — compiled plan, cells, resident store — against
    fresh aggregators folded over the stored window contents in arrival
    order, through DDL, restores, splices and evictions.

    What is *stored* comes from a second reservoir fed one event at a
    time (dedup, the rewrite of too-late timestamps); everything
    downstream of it is the brute force. DDL only runs where the engine
    defines it exactly: a metric joins iterators that stand where its
    own would, and a cold one starts on a chunk boundary (see
    ``_joins_cleanly`` and ``add_metric``).
    """

    def __init__(self):
        super().__init__()
        self.default_cap = state_store.RESIDENT_CAP
        registry = SchemaRegistry()
        registry.register(MODEL_STREAM.schema())
        self.stored = EventReservoir(registry, config=MODEL_RESERVOIR)
        self.arrivals = []  # stored events (timestamps as stored), arrival order
        self.records = []  # every (offset, event) sent: what a shadow replays
        self.metrics = {}  # metric id -> ModelMetric, registration order
        self.next_id = 0
        self.now = 0  # newest in-order timestamp sent
        self.eval_ts = -1  # evaluation time the aggregator states stand at

    def teardown(self):
        state_store.RESIDENT_CAP = self.default_cap

    # -- the brute force ---------------------------------------------------

    def _key(self, metric, event):
        return tuple(event.get(name) for name in metric.query.group_by)

    def _values(self, metric, key):
        query = metric.query
        aggregators = [create_aggregator(spec.name) for spec in query.aggregations]
        for event in self.arrivals[metric.since:]:
            if (
                query.window.contains(event.timestamp, self.eval_ts)
                and (query.where is None or query.where.matches(event))
                and self._key(metric, event) == key
            ):
                for aggregator, spec in zip(aggregators, query.aggregations):
                    aggregator.add(
                        True if spec.field is None else event.get(spec.field), event
                    )
        return {
            spec.metric_name(): aggregator.result()
            for aggregator, spec in zip(aggregators, query.aggregations)
        }

    def _reply(self, event):
        return {
            metric_id: self._values(metric, self._key(metric, event))
            for metric_id, metric in self.metrics.items()
        }

    def _check(self, got, want):
        # order is part of the contract: metrics as registered, columns
        # as queried
        assert list(got) == list(want)
        for metric_id, values in want.items():
            assert list(got[metric_id]) == list(values)
            for name, value in values.items():
                assert _same(got[metric_id][name], value), (metric_id, name, got, want)

    def _arrive(self, event):
        """One event through the model; returns the reply it must get."""
        result = self.stored.append(event)
        if result.stored:
            self.arrivals.append(result.event)
            self.eval_ts = max(
                self.eval_ts, result.event.timestamp, self.stored.max_seen_ts
            )
        return self._reply(event)

    # -- set-up and traffic --------------------------------------------------

    @initialize(
        cap=st.sampled_from([2, 8, None]),
        first=st.lists(POOL_INDEX, min_size=1, max_size=3),
    )
    def start(self, cap, first):
        if cap is not None:
            state_store.RESIDENT_CAP = cap
        self.processor = TaskProcessor(
            MODEL_TP, MODEL_STREAM, reservoir_config=MODEL_RESERVOIR
        )
        for index in first:
            self.add_metric(index)

    @rule(specs=st.lists(EVENT_SPECS, min_size=2, max_size=12))
    def send_each(self, specs):
        self._send(specs, batched=False)

    @rule(specs=st.lists(EVENT_SPECS, min_size=2, max_size=12))
    def send_batch(self, specs):
        self._send(specs, batched=True)

    def _send(self, specs, batched):
        records, expected = [], []
        for kind, draw, card, merchant, amount, channel in specs:
            sent = [event for _, event in self.records]
            if kind == "dup" and sent:
                event = sent[draw % len(sent)]
            else:
                if kind == "tie" and sent:
                    stamp = self.now
                elif kind == "late" and sent:
                    stamp = max(0, self.now - draw * MAX_LATE_MS // 20)
                else:
                    stamp = self.now = self.now + draw * 1_000
                event = Event(
                    f"e{len(sent)}", stamp,
                    {"cardId": card, "merchantId": merchant,
                     "amount": amount * 0.5, "channel": channel},
                )
            record = (len(self.records), event)
            self.records.append(record)
            records.append(record)
            expected.append(self._arrive(event))
        if batched:
            replies = self.processor.process_batch(records)
        else:
            replies = [self.processor.process(*record) for record in records]
        assert len(replies) == len(expected)
        for got, want in zip(replies, expected):
            self._check(got, want)

    @rule(card=st.sampled_from(["c0", "c1", "c2", "c9"]), merchant=st.sampled_from(["m0", "m1"]))
    def readonly(self, card, merchant):
        probe = Event("probe", self.now, {"cardId": card, "merchantId": merchant})
        self._check(self.processor.plan.process_event_readonly(probe), self._reply(probe))

    @rule()
    def metric_values(self):
        for metric_id, metric in self.metrics.items():
            got = self.processor.metric_values(metric_id)
            keys = set(got) | {self._key(metric, e) for e in self.arrivals[metric.since:]}
            for key in keys:
                want = self._values(metric, key)
                # a key the store holds no row for reads as empty
                for name, value in got.get(key, self._values(metric, None)).items():
                    assert _same(value, want[name]), (metric_id, key, name)

    # -- DDL, restore, splice ----------------------------------------------------

    def _frontier(self):
        probe = self.processor.reservoir.new_iterator()
        self.processor.reservoir.release_iterator(probe)
        return probe.position

    def _joins_cleanly(self, query, positions):
        """True when every iterator the metric would share already stands
        where its own would (``positions``: share-key text -> cursor; a
        missing key means the reservoir frontier). A cursor elsewhere
        still owes its sharers events the newcomer never saw."""
        frontier = self._frontier()
        live = self.processor.plan.iterator_positions()
        spec = query.window
        for key in (spec.head_share_key(), spec.tail_share_key()):
            if key is not None and repr(key) in live:
                if live[repr(key)] != positions.get(repr(key), frontier):
                    return False
        return True

    def _definition(self, index):
        return MetricDef(self.next_id, MODEL_POOL[index], "tx", MODEL_TP.topic)

    @rule(index=POOL_INDEX)
    def add_metric(self, index):
        # A cold metric's cursors start at the frontier. Mid-chunk, a
        # late event can still sort in behind them and is then handed to
        # head and tail at once — entered and expired in one turn; with
        # the open chunk empty everything that arrives from here on
        # lands at or after the frontier.
        definition = self._definition(index)
        query = definition.parse()
        if (
            len(self.metrics) >= MAX_METRICS
            or self._frontier()[1] != 0
            or not self._joins_cleanly(query, {})
        ):
            return
        self.processor.add_metric(definition)
        self.metrics[definition.metric_id] = ModelMetric(
            definition, query, len(self.arrivals)
        )
        self.next_id += 1

    @rule(index=POOL_INDEX)
    def backfill_metric(self, index):
        definition = self._definition(index)
        query = definition.parse()
        if len(self.metrics) >= MAX_METRICS:
            return
        shadow = TaskProcessor.build(
            MODEL_TP, MODEL_STREAM, [definition], reservoir_config=MODEL_RESERVOIR
        )
        shadow.process_batch(self.records)
        state = shadow.export_backfill(definition.metric_id)
        if not self._joins_cleanly(query, state.iterator_positions):
            return
        self.processor.apply_backfill(definition, state)
        self.metrics[definition.metric_id] = ModelMetric(definition, query, 0)
        self.next_id += 1

    @precondition(lambda self: self.metrics)
    @rule(pick=st.integers(0, MAX_METRICS))
    def remove_metric(self, pick):
        metric_id = list(self.metrics)[pick % len(self.metrics)]
        self.processor.remove_metric(metric_id)
        del self.metrics[metric_id]

    @precondition(lambda self: self.metrics)
    @rule(pick=st.integers(0, MAX_METRICS))
    def resplice(self, pick):
        # A splice landing on a metric the plan already runs: its rows
        # replaced wholesale (by themselves) under the plan's cells.
        metric_id = list(self.metrics)[pick % len(self.metrics)]
        state = self.processor.state
        state.import_metric_rows(metric_id, *state.export_metric_rows(metric_id))

    @rule()
    def checkpoint_restore(self):
        self.processor = TaskProcessor.restore(
            self.processor.checkpoint(), MODEL_STREAM,
            [metric.definition for metric in self.metrics.values()],
            reservoir_config=MODEL_RESERVOIR,
        )


PLAN_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestPlanMachine = PlanMachine.TestCase
TestPlanMachine.settings = PLAN_MACHINE_SETTINGS


class TestPlanMachineCatchesMutants:
    """The machine is only worth its run time if it fails when a cell
    outlives what it indexes, or the program outlives the DAG."""

    HUNT = settings(
        PLAN_MACHINE_SETTINGS, max_examples=300, derandomize=True, database=None,
        phases=[Phase.generate], report_multiple_bugs=False,
    )

    @staticmethod
    def _keeping_the_epoch(method):
        def mutant(store, *args, **kwargs):
            epoch = store.epoch
            try:
                return method(store, *args, **kwargs)
            finally:
                store.epoch = epoch
        return mutant

    def _hunt(self):
        # a fold on an aggregator that left the store is lost (wrong
        # values) or trips the write-back on its missing entry
        with pytest.raises((AssertionError, KeyError)):
            run_state_machine_as_test(PlanMachine, settings=self.HUNT)

    def test_cells_kept_across_an_eviction(self, monkeypatch):
        monkeypatch.setattr(
            MetricStateStore, "_aggregator",
            self._keeping_the_epoch(MetricStateStore._aggregator),
        )
        self._hunt()

    def test_cells_kept_across_forget_metric(self, monkeypatch):
        monkeypatch.setattr(
            MetricStateStore, "forget_metric",
            self._keeping_the_epoch(MetricStateStore.forget_metric),
        )
        self._hunt()

    def test_program_not_recompiled_on_add_metric(self, monkeypatch):
        add_metric = TaskPlan.add_metric

        def without_recompile(plan, *args, **kwargs):
            plan._compile = lambda: None  # shadows the method for this call
            try:
                return add_metric(plan, *args, **kwargs)
            finally:
                del plan._compile

        monkeypatch.setattr(TaskPlan, "add_metric", without_recompile)
        self._hunt()
