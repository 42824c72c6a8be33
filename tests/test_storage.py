"""Storage backend tests (memory and file parity)."""

import os

import pytest

from repro.common.errors import StorageError
from repro.common.storage import FileStorage, MemoryStorage


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryStorage()
    return FileStorage(str(tmp_path / "store"))


class TestLifecycle:
    def test_create_and_append(self, storage):
        storage.create("a.seg")
        offset = storage.append("a.seg", b"hello")
        assert offset == 0
        assert storage.append("a.seg", b" world") == 5
        assert storage.read_all("a.seg") == b"hello world"

    def test_create_twice_fails(self, storage):
        storage.create("a.seg")
        with pytest.raises(StorageError):
            storage.create("a.seg")

    def test_read_range(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"0123456789")
        assert storage.read("a.seg", 2, 3) == b"234"

    def test_short_read_is_error(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"abc")
        with pytest.raises(StorageError):
            storage.read("a.seg", 1, 10)

    def test_size(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"abcd")
        assert storage.size("a.seg") == 4

    def test_missing_file_operations(self, storage):
        for operation in (
            lambda: storage.append("nope", b"x"),
            lambda: storage.read("nope", 0, 1),
            lambda: storage.read_all("nope"),
            lambda: storage.size("nope"),
            lambda: storage.seal("nope"),
            lambda: storage.delete("nope"),
        ):
            with pytest.raises(StorageError):
                operation()

    def test_exists(self, storage):
        assert not storage.exists("a.seg")
        storage.create("a.seg")
        assert storage.exists("a.seg")

    def test_list_sorted(self, storage):
        for name in ("c.seg", "a.seg", "b.seg"):
            storage.create(name)
        assert storage.list() == ["a.seg", "b.seg", "c.seg"]

    def test_delete(self, storage):
        storage.create("a.seg")
        storage.delete("a.seg")
        assert not storage.exists("a.seg")
        assert storage.list() == []


class TestSealing:
    def test_sealed_file_rejects_appends(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"data")
        storage.seal("a.seg")
        assert storage.is_sealed("a.seg")
        with pytest.raises(StorageError):
            storage.append("a.seg", b"more")

    def test_sealed_file_still_readable(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"data")
        storage.seal("a.seg")
        assert storage.read_all("a.seg") == b"data"

    def test_unsealed_by_default(self, storage):
        storage.create("a.seg")
        assert not storage.is_sealed("a.seg")

    def test_delete_sealed(self, storage):
        storage.create("a.seg")
        storage.seal("a.seg")
        storage.delete("a.seg")
        assert not storage.exists("a.seg")


class TestReplaceTruncateSync:
    def test_replace_creates_then_overwrites(self, storage):
        storage.replace("MANIFEST", b"first")
        storage.replace("MANIFEST", b"second!")
        assert storage.read_all("MANIFEST") == b"second!"
        assert storage.size("MANIFEST") == 7
        assert storage.list() == ["MANIFEST"]  # no .tmp name left behind

    def test_truncate_shortens_and_appends_resume_at_the_cut(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"0123456789")
        storage.truncate("a.seg", 4)
        assert storage.size("a.seg") == 4
        assert storage.read_all("a.seg") == b"0123"
        assert storage.append("a.seg", b"xy") == 4
        assert storage.read_all("a.seg") == b"0123xy"

    def test_truncate_cannot_grow_or_touch_missing_files(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"abc")
        with pytest.raises(StorageError):
            storage.truncate("a.seg", 4)
        with pytest.raises(StorageError):
            storage.truncate("nope", 0)
        with pytest.raises(StorageError):
            storage.sync("nope")

    def test_syncs_are_counted(self, storage):
        storage.create("a.seg")
        storage.sync("a.seg")
        storage.sync()
        assert storage.stats.syncs == 2
        storage.replace("MANIFEST", b"x")  # the file, then its directory
        assert storage.stats.snapshot()["syncs"] == 4
        assert storage.stats.appends == 1


class TestStats:
    def test_counters_track_operations(self, storage):
        storage.create("a.seg")
        storage.append("a.seg", b"12345")
        storage.read_all("a.seg")
        storage.seal("a.seg")
        stats = storage.stats.snapshot()
        assert stats["appends"] == 1
        assert stats["appended_bytes"] == 5
        assert stats["reads"] == 1
        assert stats["read_bytes"] == 5
        assert stats["seals"] == 1


class TestFileStorageSpecifics:
    def test_persists_across_instances(self, tmp_path):
        root = str(tmp_path / "store")
        first = FileStorage(root)
        first.create("a.seg")
        first.append("a.seg", b"persisted")
        first.seal("a.seg")
        second = FileStorage(root)
        assert second.read_all("a.seg") == b"persisted"
        assert second.is_sealed("a.seg")

    def test_subdirectory_names(self, tmp_path):
        storage = FileStorage(str(tmp_path / "store"))
        storage.create("sub/dir/file.seg")
        storage.append("sub/dir/file.seg", b"x")
        assert storage.list() == ["sub/dir/file.seg"]


class TestFileStorageContainment:
    """Names resolve under the root by path components, not by string
    prefix, for absolute and relative roots alike."""

    @pytest.mark.parametrize(
        "root, name, inside",
        [
            ("store", "x", True),
            ("store", "sub/../x", True),
            ("store", "../store2/x", False),  # sibling sharing the prefix
            ("store", "../x", False),
            ("store", "/tmp/x", False),
            ("./rel", "x", True),
            ("./rel", "sub/dir/x", True),
            ("./rel", "../rel2/x", False),
        ],
    )
    def test_names_stay_under_the_root(self, tmp_path, monkeypatch, root, name, inside):
        monkeypatch.chdir(tmp_path)
        if not root.startswith("."):
            root = str(tmp_path / root)
        storage = FileStorage(root)
        if inside:
            storage.create(name)
            storage.append(name, b"data")
            expected = os.path.normpath(name)
            assert storage.list() == [expected]
            assert (tmp_path / os.path.basename(root) / expected).read_bytes() == b"data"
        else:
            with pytest.raises(StorageError):
                storage.create(name)
            assert sorted(os.listdir(tmp_path)) == [os.path.basename(root)]
