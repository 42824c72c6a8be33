"""Storage backends: the one seam between the engine and its bytes.

The paper's reservoir writes chunks to "ordered and append-only files"
on locally-attached disks (§4.1.1), and relies on OS read-ahead for
sequential access; Kafka-style recovery (§3.3) needs the log to outlive
the node. Every durable byte in the tree goes through this file
surface — reservoir chunks, the LSM store, the durable bus's segment
files, side logs and cut file, and the supervisor's checkpoint store:

- :class:`FileStorage` writes real files under a directory (durable
  clusters, the examples and durability tests), and
- :class:`MemoryStorage` keeps everything in process (the engine's
  reservoirs and state stores, the unit tests and the simulator),
  while both count I/O operations so the experiment harness can charge
  latency for them.

Files are append-only while *open* and become immutable once *sealed* —
the same life-cycle the paper gives reservoir files. Small metadata
files (the LSM manifest, the cut, checkpoints) are rewritten whole with
:meth:`StorageBackend.replace`, which is atomic: a crash leaves the old
bytes or the new ones. Nothing is durable until :meth:`StorageBackend.sync`
says so; what the caller syncs, and when, is its fsync policy.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.errors import StorageError


@dataclass
class IoStats:
    """Operation counters a latency model can translate into time.

    A :meth:`~StorageBackend.replace` counts as one append of its bytes
    plus two syncs (the file, then the directory entry).
    """

    appends: int = 0
    appended_bytes: int = 0
    reads: int = 0
    read_bytes: int = 0
    seals: int = 0
    deletes: int = 0
    syncs: int = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dict (for reports and tests)."""
        return {
            "appends": self.appends,
            "appended_bytes": self.appended_bytes,
            "reads": self.reads,
            "read_bytes": self.read_bytes,
            "seals": self.seals,
            "deletes": self.deletes,
            "syncs": self.syncs,
        }


class StorageBackend(ABC):
    """A namespace of append-only, seal-able byte files."""

    def __init__(self) -> None:
        self.stats = IoStats()

    @abstractmethod
    def create(self, name: str) -> None:
        """Create an empty open file; error if it already exists."""

    @abstractmethod
    def append(self, name: str, data: bytes) -> int:
        """Append to an open file; return the offset the data landed at."""

    @abstractmethod
    def replace(self, name: str, data: bytes) -> None:
        """Atomically and durably set a file's whole contents (creating
        it if missing): after a crash it holds the old bytes or these."""

    @abstractmethod
    def truncate(self, name: str, size: int) -> None:
        """Cut a file down to its first ``size`` bytes."""

    @abstractmethod
    def sync(self, name: str | None = None) -> None:
        """Make a file's bytes durable; with no name, make the creates
        and deletes in the namespace durable."""

    @abstractmethod
    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``; short reads are errors."""

    @abstractmethod
    def read_all(self, name: str) -> bytes:
        """Read a whole file."""

    @abstractmethod
    def size(self, name: str) -> int:
        """Current size of a file in bytes."""

    @abstractmethod
    def seal(self, name: str) -> None:
        """Make a file immutable; further appends raise."""

    @abstractmethod
    def is_sealed(self, name: str) -> bool:
        """True once :meth:`seal` was called on the file."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove a file (sealed or not)."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """True if the file exists."""

    @abstractmethod
    def list(self) -> list[str]:
        """All file names, sorted."""


class MemoryStorage(StorageBackend):
    """In-process storage with the same semantics as file storage."""

    def __init__(self) -> None:
        super().__init__()
        self._files: dict[str, bytearray] = {}
        self._sealed: set[str] = set()

    def create(self, name: str) -> None:
        if name in self._files:
            raise StorageError(f"file already exists: {name}")
        self._files[name] = bytearray()

    def append(self, name: str, data: bytes) -> int:
        buf = self._file(name)
        if name in self._sealed:
            raise StorageError(f"cannot append to sealed file: {name}")
        offset = len(buf)
        buf.extend(data)
        self.stats.appends += 1
        self.stats.appended_bytes += len(data)
        return offset

    def replace(self, name: str, data: bytes) -> None:
        self._files[name] = bytearray(data)
        self.stats.appends += 1
        self.stats.appended_bytes += len(data)
        self.stats.syncs += 2

    def truncate(self, name: str, size: int) -> None:
        buf = self._file(name)
        if size > len(buf):
            raise StorageError(f"cannot grow {name} to {size} by truncation")
        del buf[size:]

    def sync(self, name: str | None = None) -> None:
        if name is not None:
            self._file(name)
        self.stats.syncs += 1

    def read(self, name: str, offset: int, length: int) -> bytes:
        buf = self._file(name)
        end = offset + length
        if end > len(buf):
            raise StorageError(
                f"short read on {name}: wanted [{offset}, {end}), size {len(buf)}"
            )
        self.stats.reads += 1
        self.stats.read_bytes += length
        return bytes(buf[offset:end])

    def read_all(self, name: str) -> bytes:
        buf = self._file(name)
        self.stats.reads += 1
        self.stats.read_bytes += len(buf)
        return bytes(buf)

    def size(self, name: str) -> int:
        return len(self._file(name))

    def seal(self, name: str) -> None:
        self._file(name)
        self._sealed.add(name)
        self.stats.seals += 1

    def is_sealed(self, name: str) -> bool:
        self._file(name)
        return name in self._sealed

    def delete(self, name: str) -> None:
        self._file(name)
        del self._files[name]
        self._sealed.discard(name)
        self.stats.deletes += 1

    def exists(self, name: str) -> bool:
        return name in self._files

    def list(self) -> list[str]:
        return sorted(self._files)

    def _file(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name}") from None


class FileStorage(StorageBackend):
    """Real files under ``root``; names may contain ``/`` subpaths."""

    _SEAL_SUFFIX = ".sealed"
    _TMP_SUFFIX = ".tmp"

    def __init__(self, root: str) -> None:
        super().__init__()
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, name: str) -> str:
        path = os.path.abspath(os.path.join(self.root, name))
        if path == self.root or os.path.commonpath([self.root, path]) != self.root:
            raise StorageError(f"file name escapes storage root: {name}")
        return path

    def _existing(self, name: str) -> str:
        path = self._path(name)
        if not os.path.exists(path):
            raise StorageError(f"no such file: {name}")
        return path

    def create(self, name: str) -> None:
        path = self._path(name)
        if os.path.exists(path):
            raise StorageError(f"file already exists: {name}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb"):
            pass

    def append(self, name: str, data: bytes) -> int:
        path = self._existing(name)
        if os.path.exists(path + self._SEAL_SUFFIX):
            raise StorageError(f"cannot append to sealed file: {name}")
        with open(path, "ab") as handle:
            offset = handle.tell()
            handle.write(data)
        self.stats.appends += 1
        self.stats.appended_bytes += len(data)
        return offset

    def replace(self, name: str, data: bytes) -> None:
        path = self._path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + self._TMP_SUFFIX
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir(os.path.dirname(path))  # the rename itself must survive
        self.stats.appends += 1
        self.stats.appended_bytes += len(data)
        self.stats.syncs += 2

    def truncate(self, name: str, size: int) -> None:
        path = self._existing(name)
        if size > os.path.getsize(path):
            raise StorageError(f"cannot grow {name} to {size} by truncation")
        os.truncate(path, size)

    def sync(self, name: str | None = None) -> None:
        if name is None:
            self._fsync_dir(self.root)
        else:
            fd = os.open(self._existing(name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self.stats.syncs += 1

    @staticmethod
    def _fsync_dir(path: str) -> None:
        """Make file creations/renames/deletions in a directory durable.

        fsync on a file covers its *contents*; the directory entry itself
        needs its own fsync or a rename/create can vanish on power loss.
        Best effort: some filesystems refuse directory fsync, and the
        fallback there is the same torn-state recovery the CRC framing
        already provides.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def read(self, name: str, offset: int, length: int) -> bytes:
        path = self._existing(name)
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        if len(data) != length:
            raise StorageError(
                f"short read on {name}: wanted {length} at {offset}, got {len(data)}"
            )
        self.stats.reads += 1
        self.stats.read_bytes += length
        return data

    def read_all(self, name: str) -> bytes:
        path = self._existing(name)
        with open(path, "rb") as handle:
            data = handle.read()
        self.stats.reads += 1
        self.stats.read_bytes += len(data)
        return data

    def size(self, name: str) -> int:
        return os.path.getsize(self._existing(name))

    def seal(self, name: str) -> None:
        path = self._existing(name)
        with open(path + self._SEAL_SUFFIX, "wb"):
            pass
        self.stats.seals += 1

    def is_sealed(self, name: str) -> bool:
        return os.path.exists(self._existing(name) + self._SEAL_SUFFIX)

    def delete(self, name: str) -> None:
        path = self._existing(name)
        os.remove(path)
        if os.path.exists(path + self._SEAL_SUFFIX):
            os.remove(path + self._SEAL_SUFFIX)
        self.stats.deletes += 1

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def list(self) -> list[str]:
        names: list[str] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(self._SEAL_SUFFIX):
                    continue
                full = os.path.join(dirpath, filename)
                names.append(os.path.relpath(full, self.root))
        return sorted(names)
