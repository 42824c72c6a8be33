"""LSM store tests: memtable, SSTable, bloom, and the full DB."""

import math

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.storage import MemoryStorage
from repro.lsm import BloomFilter, LsmConfig, LsmDb, MemTable, SSTable, TOMBSTONE
from repro.lsm import db as lsm_db
from repro.lsm.db import Checkpoint, LsmStats


def run_bound(sizes, width):
    """The size-tier bound: ``width`` runs per power-of-two size class
    between the smallest run and the whole family."""
    return width * (1 + math.ceil(math.log2(sum(sizes) / min(sizes))))


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(500, 0.01)
        keys = [f"key-{i}".encode() for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.for_capacity(1000, 0.01)
        for i in range(1000):
            bloom.add(f"in-{i}".encode())
        false_positives = sum(
            bloom.might_contain(f"out-{i}".encode()) for i in range(10_000)
        )
        assert false_positives < 500  # well under 5%

    @given(
        st.sets(st.binary(max_size=12), max_size=80),
        st.sampled_from([0.5, 0.1, 0.01, 0.0001]),
    )
    @settings(max_examples=150, deadline=None)
    def test_from_keys_sets_the_bits_of_add_per_key(self, keys, fp_rate):
        # down to 8-bit filters, where strides of 0 and whole laps are common
        one_by_one = BloomFilter.for_capacity(len(keys), fp_rate)
        for key in keys:
            one_by_one.add(key)
        at_once = BloomFilter.from_keys(sorted(keys), fp_rate)
        assert (at_once.num_bits, at_once.num_hashes, at_once._bits) == (
            one_by_one.num_bits,
            one_by_one.num_hashes,
            one_by_one._bits,
        )

    def test_table_with_untagged_bloom_still_serves_reads(self):
        """A checkpointed SSTable written when filters were stored — an
        untagged FNV-era filter or a tagged one, here with no bit set —
        reopens with its keys readable: the stored region is skipped and
        the first probe builds a filter from the table's keys."""
        entries = [(f"k{i:03d}".encode(), b"v%d" % i) for i in range(40)]
        filter_body = b"\x80\x03\x07\x30" + bytes(48)  # 384 bits, 7 hashes
        for region in (filter_body, b"\x00\x01" + filter_body):
            storage = MemoryStorage()
            SSTable.write(storage, "new.sst", entries)
            blob = storage.read_all("new.sst")
            footer_len = int.from_bytes(blob[-4:], "little")
            footer_off = len(blob) - 4 - footer_len
            storage.create("old.sst")
            storage.append("old.sst", blob[:footer_off] + region + blob[footer_off:])
            table = SSTable.open(storage, "old.sst")
            assert [table.get(key) for key, _ in entries] == [v for _, v in entries]
            assert table.get(b"k0005") is None

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 1.5)


class TestMemTable:
    def test_put_get(self):
        table = MemTable()
        table.put(b"b", b"2")
        table.put(b"a", b"1")
        assert table.get(b"a") == b"1"
        assert table.get(b"missing") is None

    def test_overwrite(self):
        table = MemTable()
        table.put(b"k", b"old")
        table.put(b"k", b"new")
        assert table.get(b"k") == b"new"
        assert len(table) == 1

    def test_delete_leaves_tombstone(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.delete(b"k")
        assert table.get(b"k") is TOMBSTONE

    def test_items_sorted(self):
        table = MemTable()
        for key in (b"c", b"a", b"b"):
            table.put(key, b"v")
        assert [k for k, _ in table.items()] == [b"a", b"b", b"c"]

    def test_scan_range(self):
        table = MemTable()
        for i in range(10):
            table.put(f"{i:02d}".encode(), b"v")
        keys = [k for k, _ in table.scan(b"03", b"07")]
        assert keys == [b"03", b"04", b"05", b"06"]

    def test_scan_open_ended(self):
        table = MemTable()
        for i in range(5):
            table.put(f"{i}".encode(), b"v")
        assert len(list(table.scan())) == 5
        assert len(list(table.scan(start=b"3"))) == 2

    def test_approximate_bytes_tracks_payload(self):
        table = MemTable()
        assert table.approximate_bytes == 0
        table.put(b"key", b"value")
        assert table.approximate_bytes == 8
        table.put(b"key", b"xx")
        assert table.approximate_bytes == 5

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=8),
                st.one_of(st.binary(max_size=8), st.none()),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_model_based(self, operations):
        table = MemTable()
        model: dict[bytes, object] = {}
        for key, value in operations:
            if value is None:
                table.delete(key)
                model[key] = TOMBSTONE
            else:
                table.put(key, value)
                model[key] = value
        assert dict(table.items()) == model
        for key in model:
            assert table.get(key) == model[key]


class TestSSTable:
    def _write(self, entries, storage=None):
        storage = storage or MemoryStorage()
        return SSTable.write(storage, "t.sst", entries), storage

    def test_point_lookup(self):
        table, _ = self._write([(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(100)])
        assert table.get(b"k042") == b"v42"
        assert table.get(b"k999") is None

    def test_tombstone_roundtrip(self):
        table, _ = self._write([(b"a", b"1"), (b"b", TOMBSTONE)])
        assert table.get(b"b") is TOMBSTONE

    def test_out_of_order_rejected(self):
        with pytest.raises(StorageError):
            self._write([(b"b", b"1"), (b"a", b"2")])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(StorageError):
            self._write([(b"a", b"1"), (b"a", b"2")])

    def test_entries_range_scan(self):
        table, _ = self._write([(f"{i:02d}".encode(), b"v") for i in range(20)])
        keys = [k for k, _ in table.entries(b"05", b"09")]
        assert keys == [b"05", b"06", b"07", b"08"]

    @given(
        st.dictionaries(
            st.binary(max_size=300),
            st.one_of(st.just(TOMBSTONE), st.binary(max_size=300)),
            max_size=40,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_roundtrip_across_the_one_byte_length_boundary(self, rows, interval):
        # lengths of 0, 127, 128 and 300 bytes: one- and two-byte varints
        entries = sorted(rows.items())
        table, storage = self._write(entries, MemoryStorage())
        reopened = SSTable.open(storage, "t.sst")
        assert list(table.entries()) == list(reopened.entries()) == entries
        for key, value in entries[::interval]:
            assert reopened.get(key) == value
            assert [k for k, _ in reopened.entries(key)][0] == key

    def test_open_reads_back_everything(self):
        entries = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(50)]
        _, storage = self._write(entries)
        reopened = SSTable.open(storage, "t.sst")
        assert reopened.count == 50
        assert reopened.min_key == b"k000"
        assert reopened.max_key == b"k049"
        assert list(reopened.entries()) == entries

    def test_might_contain_range_check(self):
        table, _ = self._write([(b"m", b"1")])
        assert not table.might_contain(b"a")
        assert not table.might_contain(b"z")

    def test_empty_table(self):
        table, _ = self._write([])
        assert table.count == 0
        assert table.get(b"x") is None
        assert list(table.entries()) == []

    def test_file_is_sealed(self):
        _, storage = self._write([(b"a", b"1")])
        assert storage.is_sealed("t.sst")

    def test_file_stores_no_bloom_filter(self):
        """The bloom region is empty: the footer follows the index."""
        storage = MemoryStorage()
        entries = [(f"k{i:03d}".encode(), b"v") for i in range(100)]
        SSTable.write(storage, "t.sst", entries)
        blob = storage.read_all("t.sst")
        footer_off = len(blob) - 4 - int.from_bytes(blob[-4:], "little")
        footer = blob[footer_off:]
        _, offset = serde.read_varint(footer, 0)  # data_end
        index_off, offset = serde.read_varint(footer, offset)
        bloom_off, _ = serde.read_varint(footer, offset)
        assert index_off < bloom_off == footer_off

    def test_write_builds_no_filter_and_the_first_probe_builds_one(self):
        entries = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(100)]
        for probe in ("get", "might_contain"):
            stats = LsmStats()
            storage = MemoryStorage()
            table = SSTable.write(storage, "t.sst", entries, stats=stats)
            assert stats.bloom_builds == 0 and table._bloom is None
            assert table.might_contain(b"zzz") is False  # past max_key: no filter
            assert stats.bloom_builds == 0
            getattr(table, probe)(b"k042")
            assert stats.bloom_builds == 1
            assert table.get(b"k007") == b"v7" and table.get(b"k0405") is None
            assert table.might_contain(b"k099")
            assert stats.bloom_builds == 1
            reopened = SSTable.open(storage, "t.sst", stats=stats)
            assert stats.bloom_builds == 1
            assert reopened.get(b"k042") == b"v42"
            assert stats.bloom_builds == 2


class TestLsmDb:
    def test_basic_crud(self):
        db = LsmDb()
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_read_through_levels(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=200, l0_compaction_threshold=3))
        for i in range(300):
            db.put(f"k{i % 40:03d}".encode(), f"v{i}".encode())
        assert db.stats.flushes > 0
        assert db.stats.compactions > 0
        # Latest version wins across memtable + levels.
        for i in range(40):
            expected_iteration = max(j for j in range(300) if j % 40 == i)
            assert db.get(f"k{i:03d}".encode()) == f"v{expected_iteration}".encode()

    def test_delete_shadows_older_levels(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=100))
        db.put(b"key", b"value")
        db.flush()
        db.delete(b"key")
        db.flush()
        assert db.get(b"key") is None
        assert dict(db.scan()) == {}

    def test_scan_merges_sources(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=80))
        expected = {}
        for i in range(60):
            key = f"{i % 20:02d}".encode()
            value = f"v{i}".encode()
            db.put(key, value)
            expected[key] = value
        assert dict(db.scan()) == expected
        assert [k for k, _ in db.scan()] == sorted(expected)

    def test_prefix_scan(self):
        db = LsmDb()
        db.put(b"user:1", b"a")
        db.put(b"user:2", b"b")
        db.put(b"card:1", b"c")
        assert dict(db.prefix_scan(b"user:")) == {b"user:1": b"a", b"user:2": b"b"}

    def test_column_families_isolated(self):
        db = LsmDb()
        db.create_column_family("aux")
        db.put(b"k", b"main")
        db.put(b"k", b"aux-value", cf="aux")
        assert db.get(b"k") == b"main"
        assert db.get(b"k", cf="aux") == b"aux-value"
        db.delete(b"k", cf="aux")
        assert db.get(b"k") == b"main"

    def test_unknown_cf_rejected(self):
        with pytest.raises(StorageError):
            LsmDb().get(b"k", cf="nope")

    def test_ingest_sorted_equals_puts_then_flush(self):
        run = [(f"k{i:03d}".encode(), f"new{i}".encode()) for i in range(0, 60, 2)]
        dbs = [LsmDb(config=LsmConfig(l0_compaction_threshold=3)) for _ in range(2)]
        for db in dbs:
            db.create_column_family("aux")
            for i in range(40):  # older versions: a flushed table and a memtable
                db.put(f"k{i:03d}".encode(), f"old{i}".encode())
                if i == 19:
                    db.flush()
            db.delete(b"k002")
            db.put(b"side", b"effect", cf="aux")
        bulk, one_by_one = dbs
        bulk.ingest_sorted(run)
        for key, value in run:
            one_by_one.put(key, value)
        one_by_one.flush()
        assert list(bulk.scan()) == list(one_by_one.scan())
        assert bulk.get(b"k002") == b"new2" and bulk.get(b"k001") == b"old1"
        # one new run (the memtable under the ingested keys) over the flushed one
        assert bulk.run_sizes() == one_by_one.run_sizes() == [40, 20]
        assert bulk.stats.flushes == one_by_one.stats.flushes
        assert bulk.get(b"side", cf="aux") == b"effect"
        assert bulk.run_sizes("aux") == [1]  # every memtable went with it

    def test_ingest_sorted_rejects_unsorted_runs(self):
        with pytest.raises(StorageError):
            LsmDb().ingest_sorted([(b"b", b"1"), (b"a", b"2")])

    def test_checkpoint_restore(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=100))
        reference = {}
        for i in range(150):
            key = f"k{i % 30:03d}".encode()
            db.put(key, f"v{i}".encode())
            reference[key] = f"v{i}".encode()
        checkpoint = db.checkpoint()
        files = db.export_checkpoint(checkpoint)
        restored = LsmDb.import_checkpoint(checkpoint, files)
        assert dict(restored.scan()) == reference

    def test_checkpoint_pins_files_against_compaction(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=60, l0_compaction_threshold=2))
        for i in range(40):
            db.put(f"k{i:02d}".encode(), b"x" * 10)
        checkpoint = db.checkpoint()
        pinned = checkpoint.all_files()
        for i in range(200):
            db.put(f"k{i % 40:02d}".encode(), b"y" * 10)
        # Every checkpointed file must still be exportable.
        files = db.export_checkpoint(checkpoint)
        assert set(files) == pinned

    def test_release_checkpoint_garbage_collects(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=60, l0_compaction_threshold=2))
        for i in range(40):
            db.put(f"k{i:02d}".encode(), b"x" * 10)
        checkpoint = db.checkpoint()
        for i in range(200):
            db.put(f"k{i % 40:02d}".encode(), b"y" * 10)
        db.flush()
        before = len(db.storage.list())
        db.release_checkpoint(checkpoint)
        assert len(db.storage.list()) <= before

    def test_delta_export_excludes_known_files(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=100))
        for i in range(100):
            db.put(f"k{i:03d}".encode(), b"v")
        checkpoint = db.checkpoint()
        all_files = db.export_checkpoint(checkpoint)
        some = set(list(all_files)[:2])
        delta = db.export_checkpoint(checkpoint, exclude=some)
        assert set(delta) == set(all_files) - some

    def test_checkpoint_serde(self):
        db = LsmDb()
        db.put(b"k", b"v")
        checkpoint = db.checkpoint()
        restored = Checkpoint.from_bytes(checkpoint.to_bytes())
        assert restored.sequence == checkpoint.sequence
        assert restored.files == checkpoint.files

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.one_of(st.binary(min_size=1, max_size=6), st.none()),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_model_based_against_dict(self, operations):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=150, l0_compaction_threshold=2))
        model: dict[bytes, bytes] = {}
        for key_index, value in operations:
            key = f"key-{key_index:03d}".encode()
            if value is None:
                db.delete(key)
                model.pop(key, None)
            else:
                db.put(key, value)
                model[key] = value
        assert dict(db.scan()) == model
        for key_index in range(61):
            key = f"key-{key_index:03d}".encode()
            assert db.get(key) == model.get(key)

    def test_similar_adjacent_runs_merge_and_the_big_run_waits(self):
        db = LsmDb(config=LsmConfig(l0_compaction_threshold=3))
        db.ingest_sorted([(b"big%03d" % i, b"v") for i in range(64)])
        for round_no in range(2):
            db.ingest_sorted([(b"r%d-%d" % (round_no, i), b"v") for i in range(4)])
        assert db.run_sizes() == [4, 4, 64] and db.stats.compactions == 0
        db.ingest_sorted([(b"r2-%d" % i, b"v") for i in range(4)])
        # three similar runs merged; 12 entries are not yet the 64 below them
        assert db.run_sizes() == [12, 64] and db.stats.compactions == 1
        db.delete(b"big000")
        db.flush()
        assert db.run_sizes() == [1, 12, 64]
        for round_no in range(3, 7):
            db.ingest_sorted([(b"r%d-%02d" % (round_no, i), b"v") for i in range(26)])
        # [26, 26, 26 | 1, 12] grew past 64: everything merged into the
        # oldest run, and only that merge dropped the tombstone
        assert db.run_sizes() == [26, 64 - 1 + 12 + 3 * 26]
        assert db.get(b"big000") is None and db.get(b"big001") == b"v"

    def test_run_count_stays_within_the_size_tier_bound(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=80, l0_compaction_threshold=2))
        for i in range(400):
            db.put(f"k{i % 50:03d}".encode(), f"value-{i}".encode())
            sizes = db.run_sizes()
            assert not sizes or len(sizes) <= run_bound(sizes, 2)
        assert db.stats.compactions > 0

    def test_merge_that_cancels_out_leaves_no_table_behind(self):
        db = LsmDb(config=LsmConfig(l0_compaction_threshold=2))
        db.put(b"a", b"1")
        db.flush()
        db.delete(b"a")
        db.flush()
        assert db.run_sizes() == [] and db.stats.compactions == 1
        assert [name for name in db.storage.list() if name.endswith(".sst")] == []

    def test_leveled_checkpoint_restores_newest_first(self):
        # The layout checkpoints had while runs were grouped into levels:
        # [[L0 tables, newest first], [the L1 run]].
        storage = MemoryStorage()
        names = ["sst-default-L0-00000005.sst", "sst-default-L0-00000003.sst",
                 "sst-default-L1-00000002.sst"]
        SSTable.write(storage, names[0], [(b"a", b"newest"), (b"d", TOMBSTONE)])
        SSTable.write(storage, names[1], [(b"a", b"middle"), (b"b", b"middle")])
        SSTable.write(storage, names[2], [(b"a", b"oldest"), (b"b", b"oldest"),
                                          (b"c", b"oldest"), (b"d", b"oldest")])
        checkpoint = Checkpoint(sequence=9, files={"default": [names[:2], names[2:]]})
        checkpoint = Checkpoint.from_bytes(checkpoint.to_bytes())
        files = {name: storage.read_all(name) for name in names}
        db = LsmDb.import_checkpoint(checkpoint, files)
        assert db.run_sizes() == [2, 2, 4]
        assert dict(db.scan()) == {b"a": b"newest", b"b": b"middle", b"c": b"oldest"}
        assert db.get(b"a") == b"newest" and db.get(b"d") is None
        db.put(b"e", b"fresh")
        assert db.checkpoint().sequence == 10
        assert "sst-default-00000006.sst" in db.storage.list()  # numbering carries on
        assert db.get(b"e") == b"fresh"


RUN_ROWS = st.dictionaries(
    st.binary(max_size=140),
    st.one_of(st.just(TOMBSTONE), st.binary(max_size=140)),
    min_size=1,
    max_size=30,
)


class TestMergeSplicesRecords:
    """A merge writes the records its input tables hold; the file must
    be the one :meth:`SSTable.write` writes from the decoded entries."""

    @given(
        st.lists(RUN_ROWS, min_size=2, max_size=5),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_merged_table_bytes_equal_a_write_of_the_merged_entries(
        self, runs, reopen, data
    ):
        # lengths up to 140 bytes: one- and two-byte varints
        db = LsmDb(config=LsmConfig(l0_compaction_threshold=64))
        for rows in reversed(runs):  # the last run is the oldest
            for key, value in sorted(rows.items()):
                if value is TOMBSTONE:
                    db.delete(key)
                else:
                    db.put(key, value)
            db.flush()
        if reopen:  # tables opened from storage parse their records
            snapshot = db.checkpoint()
            db = LsmDb.import_checkpoint(
                snapshot, db.export_checkpoint(snapshot), config=db.config
            )
        family = db._cfs["default"]
        count = len(family.runs)
        start = data.draw(st.integers(0, count - 2), label="start")
        end = data.draw(st.integers(start + 2, count), label="end")  # end == count: oldest run
        stale = family.runs[start:end]
        expected_entries = lsm_db._merge_entries(
            [table.entries() for table in stale], drop_tombstones=end == count
        )
        reference = MemoryStorage()
        if expected_entries:
            SSTable.write(reference, "ref.sst", expected_entries)
        read_before = db.storage.stats.read_bytes
        db._merge_runs(family, start, end)
        if not expected_entries:
            assert len(family.runs) == count - (end - start)
            return
        merged = family.runs[start]
        assert merged.name not in {table.name for table in stale}
        if not reopen:  # the input tables held their records: nothing read
            assert db.storage.stats.read_bytes == read_before
        assert db.storage.read_all(merged.name) == reference.read_all("ref.sst")
        assert list(merged.entries()) == expected_entries

    def test_opened_table_parses_the_records_it_was_written_with(self):
        storage = MemoryStorage()
        entries = [(b"a", b""), (b"b" * 200, TOMBSTONE), (b"c", b"v" * 300)]
        written = SSTable.write(storage, "t.sst", entries)
        assert SSTable.open(storage, "t.sst").records() == written.records()

    def test_first_probe_of_a_written_table_reads_no_bytes(self):
        storage = MemoryStorage()
        table = SSTable.write(storage, "t.sst", [(b"k%03d" % i, b"v") for i in range(100)])
        before = storage.stats.read_bytes
        assert table.might_contain(b"k042")
        assert storage.stats.read_bytes == before


FAMILIES = ("default", "aux")
MACHINE_KEYS = st.sampled_from([b"k%02d" % i for i in range(12)])
MACHINE_VALUES = st.binary(min_size=1, max_size=4)


class LsmDbMachine(RuleBasedStateMachine):
    """``LsmDb`` against a dict per column family, with a merge width
    of 2-3 and a 12-key space so merges, overwrites and tombstones
    collide constantly. Checkpoints remember the model they froze."""

    @initialize(width=st.integers(2, 3))
    def open(self, width):
        self.config = LsmConfig(memtable_flush_bytes=48, l0_compaction_threshold=width)
        self.db = LsmDb(config=self.config)
        self.db.create_column_family("aux")
        self.model = {cf: {} for cf in FAMILIES}
        self.checkpoints = []  # (Checkpoint, model at that point)

    @rule(cf=st.sampled_from(FAMILIES), key=MACHINE_KEYS, value=MACHINE_VALUES)
    def put(self, cf, key, value):
        self.db.put(key, value, cf=cf)
        self.model[cf][key] = value

    @rule(cf=st.sampled_from(FAMILIES), key=MACHINE_KEYS)
    def delete(self, cf, key):
        self.db.delete(key, cf=cf)
        self.model[cf].pop(key, None)

    @rule()
    def flush(self):
        self.db.flush()

    @rule(cf=st.sampled_from(FAMILIES), value=MACHINE_VALUES,
          keys=st.sets(MACHINE_KEYS, min_size=1, max_size=6))
    def ingest_sorted(self, cf, keys, value):
        self.db.ingest_sorted([(key, value) for key in sorted(keys)], cf=cf)
        self.model[cf].update(dict.fromkeys(keys, value))

    @rule(cf=st.sampled_from(FAMILIES), key=MACHINE_KEYS)
    def get(self, cf, key):
        assert self.db.get(key, cf=cf) == self.model[cf].get(key)

    @rule(cf=st.sampled_from(FAMILIES))
    def scan(self, cf):
        assert list(self.db.scan(cf=cf)) == sorted(self.model[cf].items())

    @rule(cf=st.sampled_from(FAMILIES), digit=st.sampled_from(b"01"))
    def prefix_scan(self, cf, digit):
        prefix = b"k%c" % digit
        assert list(self.db.prefix_scan(prefix, cf=cf)) == sorted(
            item for item in self.model[cf].items() if item[0].startswith(prefix)
        )

    @rule()
    def checkpoint(self):
        snapshot = self.db.checkpoint()
        self.checkpoints.append(
            (snapshot, {cf: dict(rows) for cf, rows in self.model.items()})
        )

    @rule(data=st.data(), move_in=st.booleans())
    def import_checkpoint(self, data, move_in):
        if not self.checkpoints:
            return
        snapshot, frozen = data.draw(st.sampled_from(self.checkpoints))
        files = self.db.export_checkpoint(snapshot)
        restored = LsmDb.import_checkpoint(snapshot, files, config=self.config)
        for cf in FAMILIES:
            assert list(restored.scan(cf=cf)) == sorted(frozen[cf].items())
        if move_in:  # carry on from the snapshot, on the restored copy
            self.db, self.checkpoints = restored, []
            self.model = {cf: dict(rows) for cf, rows in frozen.items()}

    @rule(data=st.data())
    def release_checkpoint(self, data):
        if not self.checkpoints:
            return
        index = data.draw(st.integers(0, len(self.checkpoints) - 1))
        self.db.release_checkpoint(self.checkpoints.pop(index)[0])

    def _tables(self):
        return {name for name in self.db.storage.list() if name.endswith(".sst")}

    @invariant()
    def checkpointed_files_exist(self):
        for snapshot, _ in self.checkpoints:
            assert snapshot.all_files() <= self._tables()

    @invariant()
    def no_orphan_tables(self):
        named = {t.name for family in self.db._cfs.values() for t in family.runs}
        for snapshot, _ in self.checkpoints:
            named |= snapshot.all_files()
        assert self._tables() <= named

    @invariant()
    def run_count_is_bounded(self):
        for cf in FAMILIES:
            sizes = self.db.run_sizes(cf)
            if sizes:
                assert len(sizes) <= run_bound(sizes, self.config.l0_compaction_threshold)


MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestLsmDbMachine = LsmDbMachine.TestCase
TestLsmDbMachine.settings = MACHINE_SETTINGS


class TestLsmDbMachineCatchesMutants:
    """The machine is only worth its run time if it fails on the two
    compaction bugs it exists for."""

    HUNT = settings(
        MACHINE_SETTINGS, max_examples=400, derandomize=True, database=None,
        phases=[Phase.generate], report_multiple_bugs=False,
    )

    def test_merging_non_adjacent_runs(self, monkeypatch):
        def merge_first_and_third(db, family):
            runs = family.runs
            if len(runs) >= 3:
                runs[1], runs[2] = runs[2], runs[1]
                db._merge_runs(family, 0, 2)

        monkeypatch.setattr(LsmDb, "_compact", merge_first_and_third)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(LsmDbMachine, settings=self.HUNT)

    def test_dropping_tombstones_above_the_oldest_run(self, monkeypatch):
        merge = lsm_db._merge_records
        monkeypatch.setattr(
            lsm_db, "_merge_records", lambda runs, drop_tombstones: merge(runs, True)
        )
        with pytest.raises(AssertionError):
            run_state_machine_as_test(LsmDbMachine, settings=self.HUNT)
