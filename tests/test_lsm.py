"""LSM store tests: memtable, WAL, SSTable, bloom, and the full DB."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError
from repro.common.storage import MemoryStorage
from repro.lsm import BloomFilter, LsmConfig, LsmDb, MemTable, SSTable, TOMBSTONE, WriteAheadLog


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

    def test_serde_roundtrip(self):
        bloom = BloomFilter.for_capacity(100)
        bloom.add(b"alpha")
        restored, _ = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored.might_contain(b"alpha")
        assert restored.num_bits == bloom.num_bits

    def test_serde_roundtrip_still_rules_keys_out(self):
        bloom = BloomFilter.for_capacity(100)
        bloom.add(b"alpha")
        restored, _ = BloomFilter.from_bytes(bloom.to_bytes())
        assert not all(
            restored.might_contain(f"out-{i}".encode()) for i in range(50)
        )

    @staticmethod
    def untagged_bytes(bloom):
        """The pre-tag layout (FNV-era tables): no scheme header."""
        from repro.common import serde

        buf = bytearray()
        serde.write_varint(buf, bloom.num_bits)
        serde.write_varint(buf, bloom.num_hashes)
        serde.write_bytes(buf, bytes(bloom._bits))
        return bytes(buf)

    def test_filter_from_another_hash_never_hides_a_key(self):
        """Bits set by a different hash say nothing about ours: an
        untagged or unknown-scheme filter must answer 'maybe' always."""
        bloom = BloomFilter.for_capacity(100)  # no key added: all clear
        tagged = bytearray(bloom.to_bytes())
        tagged[1] = 99  # a scheme id this code does not know
        for blob in (self.untagged_bytes(bloom), bytes(tagged)):
            restored, end = BloomFilter.from_bytes(blob)
            assert end == len(blob)
            assert restored.num_bits == bloom.num_bits
            assert restored.might_contain(b"alpha")

    def test_table_with_untagged_bloom_still_serves_reads(self, monkeypatch):
        """A checkpointed SSTable written before the hash change reopens
        with its keys readable (the bloom no longer skips, never lies)."""
        storage = MemoryStorage()
        entries = [(f"k{i:03d}".encode(), b"v%d" % i) for i in range(40)]
        with monkeypatch.context() as patch:
            # Old writer: untagged filter whose bits our hash never set.
            patch.setattr(BloomFilter, "add", lambda self, key: None)
            patch.setattr(BloomFilter, "to_bytes", self.untagged_bytes)
            SSTable.write(storage, "old.sst", entries)
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


class TestWal:
    def test_replay_returns_appended_records(self):
        storage = MemoryStorage()
        wal = WriteAheadLog(storage, "WAL")
        wal.append_put(0, b"a", b"1")
        wal.append_delete(1, b"b")
        wal.append_put(0, b"c", b"3")
        records = list(wal.replay())
        assert records == [
            (0, 0, b"a", b"1"),
            (1, 1, b"b", None),
            (0, 0, b"c", b"3"),
        ]

    def test_torn_tail_is_dropped(self):
        storage = MemoryStorage()
        wal = WriteAheadLog(storage, "WAL")
        wal.append_put(0, b"a", b"1")
        wal.append_put(0, b"b", b"2")
        data = storage.read_all("WAL")
        storage.delete("WAL")
        storage.create("WAL")
        storage.append("WAL", data[:-3])  # tear the final record
        torn = WriteAheadLog(storage, "WAL")
        records = list(torn.replay())
        assert records == [(0, 0, b"a", b"1")]

    def test_corrupt_crc_stops_replay(self):
        storage = MemoryStorage()
        wal = WriteAheadLog(storage, "WAL")
        wal.append_put(0, b"a", b"1")
        data = bytearray(storage.read_all("WAL"))
        data[-1] ^= 0xFF
        storage.delete("WAL")
        storage.create("WAL")
        storage.append("WAL", bytes(data))
        assert list(WriteAheadLog(storage, "WAL").replay()) == []

    def test_reset_truncates(self):
        storage = MemoryStorage()
        wal = WriteAheadLog(storage, "WAL")
        wal.append_put(0, b"a", b"1")
        wal.reset()
        assert wal.size() == 0
        assert list(wal.replay()) == []


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

    def test_wal_recovery_after_crash(self):
        storage = MemoryStorage()
        db = LsmDb(storage=storage, config=LsmConfig(memtable_flush_bytes=10_000))
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        db.delete(b"a")
        # "Crash": reopen from the same storage without flushing.
        recovered = LsmDb(storage=storage)
        assert recovered.get(b"a") is None
        assert recovered.get(b"b") == b"2"

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
        assert bulk.level_shape() == one_by_one.level_shape() == [2]
        assert bulk.stats.flushes == one_by_one.stats.flushes
        assert bulk.get(b"side", cf="aux") == b"effect"
        assert bulk.level_shape("aux") == [1]  # every memtable went with it

    def test_ingest_sorted_is_not_shadowed_by_wal_replay(self):
        storage = MemoryStorage()
        db = LsmDb(storage=storage)
        db.put(b"a", b"stale")  # in the WAL and the memtable
        db.ingest_sorted([(b"a", b"fresh"), (b"b", b"2")])
        db.put(b"c", b"3")
        recovered = LsmDb(storage=storage)  # "crash": replay the WAL
        assert dict(recovered.scan()) == {b"a": b"fresh", b"b": b"2", b"c": b"3"}

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
        from repro.lsm.db import Checkpoint

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

    def test_level_shape_after_compactions(self):
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=80, l0_compaction_threshold=2))
        for i in range(400):
            db.put(f"k{i % 50:03d}".encode(), f"value-{i}".encode())
        shape = db.level_shape()
        assert shape[0] < 2  # L0 keeps getting folded down
