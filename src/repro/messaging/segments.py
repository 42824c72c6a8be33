"""Append-only segmented log files — the disk half of the durable bus.

Kafka's durability story (paper §3.3) is offset-addressed partition logs
on disk: consumers rewind to a committed offset and replay exactly the
uncommitted tail, and retention deletes whole segments from the front.
:class:`SegmentedLog` implements that file layout for one partition,
inside one :class:`~repro.common.storage.StorageBackend` namespace (a
``FileStorage`` rooted at the partition's directory on disk, or a
``MemoryStorage``): every create, append, truncate, delete and sync
goes through the backend, and the log only decides *when* to sync.

- **Segments**: fixed-size append-only files named by their base offset
  (``seg-<base>.log``). The highest-base segment is *active* (the only
  one written); lower segments are complete and immutable.
- **Records**: one :func:`repro.common.serde.write_frame` CRC frame
  each, so torn tail writes are detected::

      u32 crc | varint length | body          (crc over body)
      body := varint rel_offset | payload     (payload = caller bytes)

  ``rel_offset`` is the record's offset minus the segment base — it is
  redundant with the record's ordinal and is verified on read, turning
  a misplaced frame into a detected corruption instead of silent offset
  drift.
- **Sparse index**: every ``index_interval``-th record appends
  ``varint rel_offset | varint file_pos`` to ``seg-<base>.idx``. The
  index is advisory — a reader missing (or distrusting) it scans from
  the segment start; a torn index tail is simply ignored.
- **Buffered appends + fsync policy**: appends land in an in-process
  buffer and reach the file according to :class:`FsyncPolicy` — every
  record (``ALWAYS``), whenever the buffer exceeds ``flush_bytes`` or
  an explicit :meth:`SegmentedLog.flush` (``BATCH``), or with no fsync
  at all (``NEVER``: the OS decides, nothing survives power loss by
  contract).
- **Torn-tail truncation on open**: recovery scans the active segment
  frame by frame and truncates the file at the first incomplete or
  CRC-failing frame — everything before it is durable, everything after
  is the torn tail of an interrupted write.
- **Truncation**: :meth:`SegmentedLog.truncate_below` deletes whole
  segments that lie entirely below an offset (checkpoint-aware
  retention); :meth:`SegmentedLog.truncate_to` drops the record tail at
  or above an offset (the consistent-cut rollback a recovering frontend
  applies before replaying its write-ahead journal).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.common import serde
from repro.common.errors import MessagingError, SerdeError
from repro.common.storage import StorageBackend

_SEG_SUFFIX = ".log"
_IDX_SUFFIX = ".idx"
_SEG_PREFIX = "seg-"


class FsyncPolicy(enum.Enum):
    """When appended records are fsynced to the segment file."""

    NEVER = "never"
    BATCH = "batch"
    ALWAYS = "always"


def fsync_policy(name: "FsyncPolicy | str") -> FsyncPolicy:
    """Coerce a policy name (``"never"|"batch"|"always"``) to the enum."""
    if isinstance(name, FsyncPolicy):
        return name
    try:
        return FsyncPolicy(name)
    except ValueError:
        raise MessagingError(
            f"unknown fsync policy {name!r}; use never, batch or always"
        ) from None


@dataclass
class SegmentConfig:
    """Tuning knobs of one segmented log."""

    segment_bytes: int = 1 << 20  # roll the active segment at this size
    flush_bytes: int = 1 << 16  # BATCH/NEVER: write out the buffer at this size
    index_interval: int = 64  # records between sparse index entries
    fsync: FsyncPolicy = FsyncPolicy.BATCH


def _segment_file(base: int) -> str:
    return f"{_SEG_PREFIX}{base:020d}{_SEG_SUFFIX}"


def _index_file(base: int) -> str:
    return f"{_SEG_PREFIX}{base:020d}{_IDX_SUFFIX}"


def _base_of(name: str) -> int | None:
    if not (name.startswith(_SEG_PREFIX) and name.endswith(_SEG_SUFFIX)):
        return None
    digits = name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def _read_records(data: bytes) -> Iterator[tuple[int, int, int, bytes]]:
    """Yield ``(file_pos, end_pos, rel_offset, payload)`` per intact
    record; stops at the first torn frame (:func:`serde.iter_frames`)."""
    for start, end, body in serde.iter_frames(data):
        try:
            rel_offset, payload_start = serde.read_varint(body, 0)
        except SerdeError:
            return
        yield start, end, rel_offset, body[payload_start:]


class SegmentedLog:
    """One partition's records in a storage namespace, split into
    offset-named segments."""

    def __init__(
        self, storage: StorageBackend, config: SegmentConfig | None = None
    ) -> None:
        self.storage = storage
        self.config = config if config is not None else SegmentConfig()
        #: bases of the completed segments, ascending; segments are
        #: contiguous, so each one ends where the next (or the active
        #: segment) begins.
        self._bases: list[int] = []
        self._active_base = 0
        self._active_size = 0  # durable bytes already in the active file
        self._active_count = 0  # records in the active segment (incl. buffered)
        self._buffer = bytearray()
        self._index_buffer = bytearray()
        self._records_since_index = 0
        self.appends = 0
        self.fsyncs = 0
        self._recover()

    # -- life-cycle ------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild segment metadata; truncate the active segment's torn tail."""
        bases = sorted(
            base
            for name in self.storage.list()
            if (base := _base_of(name)) is not None
        )
        if not bases:
            self._create_active(0)
            return
        # All but the highest-base segment were completed by a roll (the
        # roll writes + fsyncs the old file before creating the new one);
        # their record counts define the chain of end offsets. The active
        # segment gets the torn-tail scan + truncate.
        *self._bases, self._active_base = bases
        name = self._active_name()
        data = self.storage.read_all(name)
        for _pos, end, rel_offset, _payload in _read_records(data):
            if rel_offset != self._active_count:
                break  # misplaced frame: treat like a torn tail
            self._active_size = end
            self._active_count += 1
        if self._active_size < len(data):
            self.storage.truncate(name, self._active_size)
            self.storage.sync(name)
            # The index may point past the truncated tail; drop it — it
            # is advisory and rebuilt as appends resume.
            self._remove_index()

    def _create_active(self, base: int) -> None:
        self._active_base = base
        self._active_size = 0
        self._active_count = 0
        self._records_since_index = 0
        self._remove_index()  # an orphan of an interrupted truncation
        self.storage.create(self._active_name())
        if self.config.fsync is not FsyncPolicy.NEVER:
            self.storage.sync()

    def _active_name(self) -> str:
        return _segment_file(self._active_base)

    def close(self) -> None:
        """Write out buffered records (fsynced unless policy NEVER)."""
        self.flush()

    # -- append path -----------------------------------------------------------

    @property
    def start_offset(self) -> int:
        """Lowest offset still retained (advances with truncation)."""
        return self._bases[0] if self._bases else self._active_base

    @property
    def end_offset(self) -> int:
        """Offset the next append will receive."""
        return self._active_base + self._active_count

    def append(self, payload: bytes) -> int:
        """Frame and buffer one record; returns its assigned offset."""
        rel = self._active_count
        if self._records_since_index == 0:
            serde.write_varint(self._index_buffer, rel)
            serde.write_varint(
                self._index_buffer, self._active_size + len(self._buffer)
            )
        self._records_since_index = (
            self._records_since_index + 1
        ) % max(1, self.config.index_interval)
        offset = self._active_base + rel
        body = bytearray()
        serde.write_varint(body, rel)
        body.extend(payload)
        serde.write_frame(self._buffer, body)
        self._active_count += 1
        self.appends += 1
        policy = self.config.fsync
        if policy is FsyncPolicy.ALWAYS:
            self.flush()
        elif len(self._buffer) >= self.config.flush_bytes:
            self.flush()
        if self._active_size + len(self._buffer) >= self.config.segment_bytes:
            self._roll()
        return offset

    def flush(self) -> None:
        """Write buffered records out; fsync unless the policy is NEVER."""
        wrote = self._write_out()
        if wrote and self.config.fsync is not FsyncPolicy.NEVER:
            self.storage.sync(self._active_name())
            self.fsyncs += 1

    def _write_out(self) -> bool:
        if not self._buffer and not self._index_buffer:
            return False
        if self._buffer:
            self.storage.append(self._active_name(), self._buffer)
            self._active_size += len(self._buffer)
            self._buffer.clear()
        if self._index_buffer:
            index = _index_file(self._active_base)
            if not self.storage.exists(index):
                self.storage.create(index)
            self.storage.append(index, self._index_buffer)
            self._index_buffer.clear()
        return True

    def _roll(self) -> None:
        """Seal the active segment and open the next one.

        The old file is written and fsynced (even under BATCH) before
        the new one exists, so every non-active segment on disk is
        complete — recovery only ever scans the highest-base file.
        """
        self._write_out()
        if self.config.fsync is not FsyncPolicy.NEVER:
            self.storage.sync(self._active_name())
            self.fsyncs += 1
        self._bases.append(self._active_base)
        self._create_active(self.end_offset)

    # -- read path -------------------------------------------------------------

    def records(self, from_offset: int, max_records: int | None = None):
        """Yield ``(offset, payload)`` at ``from_offset`` onwards.

        Reads below :attr:`start_offset` clamp to it (the records were
        retention-truncated away, exactly like a Kafka earliest reset).
        """
        self._write_out()  # make the files authoritative
        from_offset = max(from_offset, self.start_offset)
        remaining = max_records if max_records is not None else -1
        while from_offset < self.end_offset and remaining != 0:
            base, seg_end = self._locate(from_offset)
            for offset, payload in self._scan_segment(base, from_offset):
                yield offset, payload
                from_offset = offset + 1
                if remaining > 0:
                    remaining -= 1
                    if remaining == 0:
                        return
                if from_offset >= seg_end:
                    break
            else:
                return  # segment exhausted early (shouldn't happen)

    def _locate(self, offset: int) -> tuple[int, int]:
        """``(base, end)`` of the segment holding ``offset``."""
        spans = self.segment_spans()
        return spans[bisect_right([base for base, _ in spans], offset) - 1]

    def _scan_segment(self, base: int, from_offset: int):
        name = _segment_file(base)
        size = self.storage.size(name)
        start_pos = min(self._index_seek(base, from_offset - base), size)
        data = self.storage.read(name, start_pos, size - start_pos)
        for _pos, _end, rel, payload in _read_records(data):
            offset = base + rel
            if offset >= self.end_offset:
                return
            if offset >= from_offset:
                yield offset, payload

    def _index_seek(self, base: int, target_rel: int) -> int:
        """Best index position at or before ``target_rel`` (0 if no index)."""
        name = _index_file(base)
        if not self.storage.exists(name):
            return 0
        data = self.storage.read_all(name)
        best = 0
        position = 0
        while position < len(data):
            try:
                rel, position2 = serde.read_varint(data, position)
                pos, position2 = serde.read_varint(data, position2)
            except SerdeError:
                break  # torn index tail: advisory, ignore
            if rel > target_rel:
                break
            best = pos
            position = position2
        return best

    # -- truncation ------------------------------------------------------------

    def truncate_below(self, offset: int) -> int:
        """Delete whole segments entirely below ``offset``; returns the
        new :attr:`start_offset`.

        The active segment is never deleted, so the log always accepts
        appends at :attr:`end_offset`; a record at ``offset`` itself is
        always retained.
        """
        completed = self.segment_spans()[:-1]
        drop = sum(1 for _base, end in completed if end <= offset)
        for base in self._bases[:drop]:
            self._remove_segment_files(base)
        del self._bases[:drop]
        if drop and self.config.fsync is not FsyncPolicy.NEVER:
            self.storage.sync()
        return self.start_offset

    def truncate_to(self, end_offset: int) -> None:
        """Drop every record at or above ``end_offset`` (tail rollback).

        This is the consistent-cut recovery primitive: a frontend that
        crashed mid-flush rolls its log back to the last cut its meta
        file recorded, then replays its write-ahead journal from there.
        """
        if end_offset >= self.end_offset:
            return
        if end_offset < self.start_offset:
            raise MessagingError(
                f"cannot truncate to {end_offset}: below retained start "
                f"{self.start_offset}"
            )
        self._buffer.clear()
        self._index_buffer.clear()
        if end_offset <= self._active_base:
            # The whole active file is past the cut; so are completed
            # segments whose base is at or past it.
            self._remove_segment_files(self._active_base)
            end = self._active_base
            while self._bases and self._bases[-1] >= end_offset:
                end = self._bases.pop()
                self._remove_segment_files(end)
            if self.config.fsync is not FsyncPolicy.NEVER:
                self.storage.sync()
            if end == end_offset:
                # The cut is exactly a segment boundary: fresh, empty
                # active file at the cut.
                self._create_active(end_offset)
                return
            # The cut lands inside the last completed segment: it
            # becomes the active segment again and is trimmed below.
            self._active_base = self._bases.pop()
            self._active_size = self.storage.size(self._active_name())
            self._active_count = end - self._active_base
        self._truncate_active_at(end_offset)

    def _truncate_active_at(self, end_offset: int) -> None:
        target_rel = end_offset - self._active_base
        name = self._active_name()
        data = self.storage.read_all(name)
        cut_pos = len(data)
        count = 0
        for pos, _end, rel, _payload in _read_records(data):
            if rel >= target_rel:
                cut_pos = pos
                break
            count = rel + 1
        self.storage.truncate(name, cut_pos)
        self.storage.sync(name)
        self._active_size = cut_pos
        self._active_count = count
        self._records_since_index = 0
        self._remove_index()

    def _remove_index(self) -> None:
        index = _index_file(self._active_base)
        if self.storage.exists(index):
            self.storage.delete(index)

    def _remove_segment_files(self, base: int) -> None:
        for name in (_segment_file(base), _index_file(base)):
            if self.storage.exists(name):
                self.storage.delete(name)

    # -- introspection ---------------------------------------------------------

    def segment_spans(self) -> list[tuple[int, int]]:
        """``(base, end)`` per on-disk segment, active last."""
        bases = self._bases + [self._active_base]
        return list(zip(bases, bases[1:] + [self.end_offset]))

    def disk_bytes(self) -> int:
        """Bytes currently on disk (excluding unwritten buffer)."""
        return sum(
            self.storage.size(name)
            for name in self.storage.list()
            if name.endswith((_SEG_SUFFIX, _IDX_SUFFIX))
        )
