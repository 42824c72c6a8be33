"""Metric state store tests."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.aggregates.registry import create_aggregator
from repro.common import serde
from repro.events.event import Event
from repro.state import MetricStateStore
from repro.state.store import Cell, decode_group_key, encode_group_key


def _event(i):
    return Event(f"e{i}", i, {})


class TestGroupKeys:
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False),
                st.text(max_size=30),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip(self, values):
        encoded = encode_group_key(values)
        assert decode_group_key(encoded) == tuple(values)

    def test_distinct_keys_distinct_bytes(self):
        assert encode_group_key(("a", "b")) != encode_group_key(("ab",))
        assert encode_group_key((1,)) != encode_group_key(("1",))

    def test_empty_key(self):
        assert decode_group_key(encode_group_key(())) == ()


class TestApplyAndPeek:
    def test_apply_accumulates(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        result = store.apply(0, 0, "sum", key, [(5.0, _event(0))], [])
        assert result == 5.0
        result = store.apply(0, 0, "sum", key, [(3.0, _event(1))], [(5.0, _event(0))])
        assert result == 3.0

    def test_peek_does_not_mutate(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "count", key, [(True, _event(0))], [])
        assert store.peek(0, 0, "count", key) == 1
        assert store.peek(0, 0, "count", key) == 1

    def test_namespaces_isolated(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "count", key, [(True, _event(0))], [])
        store.apply(1, 0, "count", key, [(True, _event(1))], [(True, _event(0))])
        assert store.peek(0, 0, "count", key) == 1
        assert store.peek(1, 0, "count", key) == 0

    def test_agg_index_isolated(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(1.0, _event(0))], [])
        store.apply(0, 1, "count", key, [(True, _event(0))], [])
        assert store.peek(0, 0, "sum", key) == 1.0
        assert store.peek(0, 1, "count", key) == 1

    def test_access_counters(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(1.0, _event(0))], [])
        assert store.key_reads == 1
        assert store.key_writes == 1


class TestCountDistinctColumnFamily:
    def test_distinct_counters_in_aux_cf(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "countDistinct", key, [("x", _event(0)), ("y", _event(1))], [])
        assert store.peek(0, 0, "countDistinct", key) == 2
        store.apply(0, 0, "countDistinct", key, [], [("x", _event(0))])
        assert store.peek(0, 0, "countDistinct", key) == 1

    def test_distinct_isolated_per_entity(self):
        store = MetricStateStore()
        a = encode_group_key(("a",))
        b = encode_group_key(("b",))
        store.apply(0, 0, "countDistinct", a, [("x", _event(0))], [])
        store.apply(0, 0, "countDistinct", b, [("x", _event(1))], [])
        store.apply(0, 0, "countDistinct", a, [], [("x", _event(0))])
        assert store.peek(0, 0, "countDistinct", a) == 0
        assert store.peek(0, 0, "countDistinct", b) == 1


class TestCheckpointRestore:
    def test_restore_preserves_all_state(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(5.0, _event(0))], [])
        store.apply(0, 1, "countDistinct", key, [("m1", _event(0))], [])
        checkpoint = store.checkpoint()
        files = store.export_checkpoint(checkpoint)
        restored = MetricStateStore.restore(checkpoint, files)
        assert restored.peek(0, 0, "sum", key) == 5.0
        assert restored.peek(0, 1, "countDistinct", key) == 1

    def test_restored_store_continues(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "count", key, [(True, _event(0))], [])
        checkpoint = store.checkpoint()
        restored = MetricStateStore.restore(
            checkpoint, store.export_checkpoint(checkpoint)
        )
        result = restored.apply(0, 0, "count", key, [(True, _event(1))], [])
        assert result == 2


class TestResidentSet:
    def test_hits_do_not_touch_the_lsm(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(1.0, _event(0))], [])
        gets, puts = store.db.stats.gets, store.db.stats.puts
        for i in range(1, 50):
            store.apply(0, 0, "sum", key, [(1.0, _event(i))], [])
            store.peek(0, 0, "sum", key)
        assert (store.db.stats.gets, store.db.stats.puts) == (gets, puts)
        assert store.key_reads == 50 + 49 and store.key_writes == 50

    def test_eviction_writes_back_and_reloads(self):
        store = MetricStateStore(resident_cap=2)
        keys = [encode_group_key((f"c{i}",)) for i in range(5)]
        for round_no in range(3):
            for i, key in enumerate(keys):
                store.apply(0, 0, "count", key, [(True, _event(round_no * 5 + i))], [])
        assert len(store._resident) == 2
        assert [store.peek(0, 0, "count", key) for key in keys] == [3] * 5

    def test_write_back_is_one_sorted_table_per_checkpoint(self):
        store = MetricStateStore()
        for i in reversed(range(40)):
            store.apply(0, 0, "count", encode_group_key((f"c{i:02d}",)), [(True, _event(i))], [])
        assert store.db.stats.puts == 0  # nothing serialised before the barrier
        store.checkpoint()
        assert store.db.stats.flushes == 1 and store.db.run_sizes("aggstate") == [40]
        rows, _ = store.export_metric_rows(0)
        assert [key for key, _ in rows] == sorted(key for key, _ in rows)
        assert len(rows) == 40
        store.checkpoint()  # nothing dirty: no new table
        assert store.db.stats.flushes == 1

    def test_forget_metric_drops_resident_entries_unwritten(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(5.0, _event(0))], [])
        store.apply(1, 0, "sum", key, [(7.0, _event(0))], [])
        store.checkpoint()
        store.apply(0, 0, "sum", key, [(1.0, _event(1))], [])
        store.apply(1, 0, "sum", key, [(1.0, _event(1))], [])
        writes = store.db.stats.puts + store.db.stats.deletes
        store.forget_metric(0)
        assert (0, 0, key) not in store._resident and (0, 0, key) not in store._dirty
        assert store.db.stats.puts + store.db.stats.deletes == writes
        store.checkpoint()  # writes back metric 1 only
        assert store.db.stats.puts == writes + 1
        assert store.peek(1, 0, "sum", key) == 8.0

    def test_import_replaces_rows_and_resident_entries(self):
        store = MetricStateStore()
        a, b = encode_group_key(("a",)), encode_group_key(("b",))
        store.apply(0, 0, "sum", a, [(5.0, _event(0))], [])
        rows = store.export_metric_rows(0)
        store.apply(0, 0, "sum", a, [(1.0, _event(1))], [])
        store.apply(0, 0, "sum", b, [(9.0, _event(2))], [])
        store.checkpoint()
        store.apply(0, 0, "sum", b, [(1.0, _event(3))], [])
        store.import_metric_rows(0, *rows)
        assert store.peek(0, 0, "sum", a) == 5.0
        assert store.peek(0, 0, "sum", b) == 0.0
        assert store.export_metric_rows(0) == rows


class TestMissPath:
    """A miss asks the LSM only once it may hold a row that is not resident."""

    def test_a_store_that_never_evicted_makes_no_lsm_reads(self):
        store = MetricStateStore()
        for round_no in range(4):
            for i in range(round_no * 50, round_no * 50 + 100):  # half new keys
                key = encode_group_key((f"c{i}",))
                store.apply(0, 0, "sum", key, [(1.0, _event(i))], [])
                store.peek(0, 1, "count", key)
            store.checkpoint()
        assert store.db.run_sizes("aggstate")  # rows were written back
        assert store.db.stats.gets == 0 and store.db.stats.bloom_builds == 0
        assert store.peek(0, 0, "sum", encode_group_key(("c99",))) == 2.0

    def test_a_miss_after_an_eviction_loads_the_written_row(self):
        store = MetricStateStore(resident_cap=1)
        a, b = encode_group_key(("a",)), encode_group_key(("b",))
        store.apply(0, 0, "sum", a, [(5.0, _event(0))], [])
        store.checkpoint()  # a's row is written; a stays resident, clean
        store.apply(0, 0, "sum", b, [(7.0, _event(1))], [])  # evicts a, no write
        assert store.resident(0, 0, a) is None
        assert store.peek(0, 0, "sum", a) == 5.0
        assert store.db.stats.gets > 0

    def test_a_miss_after_an_import_loads_the_imported_row(self):
        source = MetricStateStore()
        key = encode_group_key(("c1",))
        source.apply(3, 0, "sum", key, [(4.0, _event(0))], [])
        rows = source.export_metric_rows(3)
        store = MetricStateStore()
        store.import_metric_rows(3, *rows)
        assert store.peek(3, 0, "sum", key) == 4.0

    def test_a_miss_after_a_restore_loads_the_checkpointed_row(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        store.apply(0, 0, "sum", key, [(6.0, _event(0))], [])
        checkpoint = store.checkpoint()
        restored = MetricStateStore.restore(checkpoint, store.export_checkpoint(checkpoint))
        assert restored.apply(0, 0, "sum", key, [(1.0, _event(1))], []) == 7.0
        # a restore of a store that wrote nothing has no row to look up
        empty = MetricStateStore()
        checkpoint = empty.checkpoint()
        restored = MetricStateStore.restore(checkpoint, empty.export_checkpoint(checkpoint))
        assert restored.peek(0, 0, "sum", key) == 0.0
        assert restored.db.stats.gets == 0


class TestCells:
    """What the task plan's cell index relies on."""

    def _cell(self, store, key):
        store.apply(0, 0, "sum", key, [(1.0, _event(0))], [])
        store.apply(0, 1, "count", key, [(True, _event(0))], [])
        leaves = ((0, 0), (0, 1))
        return Cell(key, leaves, tuple(store.resident(0, i, key) for i in (0, 1)))

    def test_resident_never_loads(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        assert store.resident(0, 0, key) is None
        assert not store._resident and store.db.stats.gets == 0

    def test_epoch_moves_when_an_entry_leaves(self):
        store = MetricStateStore(resident_cap=2)
        self._cell(store, encode_group_key(("c1",)))
        epoch = store.epoch
        store.peek(0, 0, "sum", encode_group_key(("c1",)))  # a hit: nothing leaves
        assert store.epoch == epoch
        store.peek(0, 0, "sum", encode_group_key(("c2",)))  # a load past the cap
        assert store.epoch > epoch
        epoch = store.epoch
        store.forget_metric(0)
        assert store.epoch > epoch

    def test_a_fold_on_a_cell_reaches_the_next_barrier(self):
        store = MetricStateStore()
        key = encode_group_key(("c1",))
        cell = self._cell(store, key)
        store.checkpoint()
        cell.aggregators[0].add(2.0, _event(1))  # what the plan does on a hit
        cell.dirty = True
        store.dirty_cells.append(cell)
        rows, _ = store.export_metric_rows(0)
        assert not cell.dirty and not store.dirty_cells
        restored = create_aggregator("sum")
        restored.state_from_bytes(dict(rows)[MetricStateStore.state_key(0, 0, key)])
        assert restored.result() == 3.0

    def test_a_dirty_cell_is_settled_before_its_entry_is_evicted(self):
        store = MetricStateStore(resident_cap=2)
        key = encode_group_key(("c1",))
        cell = self._cell(store, key)
        store.checkpoint()
        cell.aggregators[0].add(2.0, _event(1))
        cell.dirty = True
        store.dirty_cells.append(cell)
        store.peek(0, 0, "sum", encode_group_key(("c2",)))  # evicts (0, 0, c1)
        assert store.resident(0, 0, key) is None
        assert store.peek(0, 0, "sum", key) == 3.0  # written back, reloaded

    def test_cap_must_hold_an_entry(self):
        with pytest.raises(ValueError):
            MetricStateStore(resident_cap=0)


#: metric slot -> aggregation per agg index (every Figure 4 aggregation)
MODEL_METRICS = {
    0: ("sum", "count", "avg", "min", "max"),
    1: ("stdDev", "countDistinct", "last", "prev"),
}
MODEL_KEYS = [encode_group_key((f"card-{i}",)) for i in range(4)]
SLOTS = st.sampled_from(sorted(MODEL_METRICS))
ENTRIES = st.tuples(SLOTS, st.integers(0, 4), st.sampled_from(MODEL_KEYS)).filter(
    lambda entry: entry[1] < len(MODEL_METRICS[entry[0]])
)
VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.floats(-1e6, 1e6, allow_nan=False, width=32)
)


class ResidentStoreMachine(RuleBasedStateMachine):
    """The store under a resident cap of 4 (18 entries compete for it)
    against one never-serialised aggregator per entry: whatever the
    interleaving of folds, barriers, evictions, restores and metric
    removals, no reader can tell the two apart. Each slot holds one live
    metric; removing it retires the id for good, as the catalogue does."""

    def __init__(self):
        super().__init__()
        self.store = MetricStateStore(resident_cap=4)
        self.ids = {slot: slot for slot in MODEL_METRICS}  # slot -> live metric id
        self.model = {}  # (slot, agg, key) -> (aggregator, [(value, event) in window])
        self.clock = 0

    def _agg_name(self, entry):
        return MODEL_METRICS[entry[0]][entry[1]]

    def _model_result(self, entry):
        if entry in self.model:
            return self.model[entry][0].result()
        return create_aggregator(self._agg_name(entry)).result()

    def _model_rows(self, slot):
        state_rows, distinct_rows = [], []
        for entry, (aggregator, _) in self.model.items():
            if entry[0] != slot:
                continue
            key = MetricStateStore.state_key(self.ids[slot], entry[1], entry[2])
            state_rows.append((key, aggregator.state_to_bytes()))
            if aggregator.needs_aux:
                for suffix, count in aggregator._aux._counts.items():
                    buf = bytearray()
                    serde.write_varint(buf, count)
                    distinct_rows.append((key + suffix, bytes(buf)))
        return sorted(state_rows), sorted(distinct_rows)

    @rule(entry=ENTRIES, values=st.lists(VALUES, max_size=3), evict=st.integers(0, 3))
    def apply(self, entry, values, evict):
        aggregator, window = self.model.setdefault(
            entry, (create_aggregator(self._agg_name(entry)), [])
        )
        exits, window[:] = window[:evict], window[evict:]
        enters = []
        for value in values:
            self.clock += 1
            enters.append((value, Event(f"e{self.clock}", self.clock * 10, {})))
        window.extend(enters)
        aggregator.update_batch(enters, exits)
        result = self.store.apply(
            self.ids[entry[0]], entry[1], self._agg_name(entry), entry[2], enters, exits
        )
        assert result == aggregator.result()

    @rule(entry=ENTRIES)
    def peek(self, entry):
        result = self.store.peek(
            self.ids[entry[0]], entry[1], self._agg_name(entry), entry[2]
        )
        assert result == self._model_result(entry)

    @rule()
    def checkpoint_and_restore(self):
        checkpoint = self.store.checkpoint()
        files = self.store.export_checkpoint(checkpoint)
        self.store = MetricStateStore(
            db=MetricStateStore.restore(checkpoint, files).db, resident_cap=4
        )

    @rule(slot=SLOTS)
    def export_and_import(self, slot):
        rows = self.store.export_metric_rows(self.ids[slot])
        assert rows == self._model_rows(slot)
        self.store.import_metric_rows(self.ids[slot], *rows)

    @rule(slot=SLOTS)
    def metric_values(self, slot):
        names = MODEL_METRICS[slot]
        specs = [(index, name, f"{name}#{index}") for index, name in enumerate(names)]
        expected = {
            decode_group_key(group_key): {
                display: self._model_result((slot, index, group_key))
                for index, _, display in specs
            }
            for group_key in {e[2] for e in self.model if e[0] == slot}
        }
        assert self.store.metric_values(self.ids[slot], specs) == expected

    @rule(slot=SLOTS)
    def remove_metric(self, slot):
        retired = self.ids[slot]
        self.store.forget_metric(retired)
        assert not any(entry[0] == retired for entry in self.store._resident)
        self.ids[slot] = max(self.ids.values()) + 1
        for entry in [e for e in self.model if e[0] == slot]:
            del self.model[entry]

    @invariant()
    def resident_set_is_bounded(self):
        assert len(self.store._resident) <= 4
        assert self.store._dirty <= set(self.store._resident)


TestResidentStoreMachine = ResidentStoreMachine.TestCase
TestResidentStoreMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
