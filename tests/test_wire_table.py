"""The wire table against golden frames.

``tests/data/wire_golden.json`` holds frames with a constructor spec
for each: most written by the last commit whose codec was hand-written
per message (a2a7e7d); the ``WorkBatch``, ``BatchDone`` and
``BackfillRecords`` frames (tags 29, 30 and 48) by the table that made
their rows columns. The table must reproduce every
one of them byte for byte — supervisor control logs, router journals and
on-disk checkpoints written before it must keep decoding — and its
decoder must answer bytes that are *not* a frame with ``SerdeError``
and nothing else.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.common.errors import SerdeError
from repro.shard import wire

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "wire_golden", ROOT / "tools" / "wire_golden.py"
)
wire_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wire_golden)

GOLDEN = wire_golden.load()
FRAMES = [bytes.fromhex(entry["hex"]) for entry in GOLDEN]


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry["name"] for entry in GOLDEN])
def test_golden_frame(entry):
    msg = wire_golden.build(entry["spec"])
    frame = bytes.fromhex(entry["hex"])
    assert wire.encode(msg) == frame
    assert wire.decode(frame) == msg
    assert type(wire.decode(frame)) is type(msg)


def test_golden_set_covers_the_table():
    assert len(GOLDEN) >= 54
    assert len({entry["name"] for entry in GOLDEN}) == len(GOLDEN)
    assert {frame[0] for frame in FRAMES} == {row.tag for row in wire.TABLE}
    # Telemetry tails on and off for each hot frame.
    for cls, tail in (
        ("WorkBatch", ("trace",)),
        ("IngestBatch", ("trace",)),
        ("BatchDone", ("trace", "stats")),
        ("ReplyBatch", ("trace", "stats")),
    ):
        specs = [e["spec"] for e in GOLDEN if e["spec"]["$"] == cls]
        for attr in tail:
            assert any(spec[attr] is None for spec in specs), (cls, attr)
            assert any(spec[attr] is not None for spec in specs), (cls, attr)


class TestTableInvariants:
    def test_tags_and_classes_are_unique(self):
        assert len(wire.TABLE) == 37
        assert len({row.tag for row in wire.TABLE}) == len(wire.TABLE)
        assert len({row.cls for row in wire.TABLE}) == len(wire.TABLE)

    def test_every_tag_constant_has_exactly_one_row(self):
        constants = {
            name: value for name, value in vars(wire).items() if name.startswith("MSG_")
        }
        assert len(set(constants.values())) == len(constants)
        assert sorted(constants.values()) == sorted(row.tag for row in wire.TABLE)

    def test_rows_name_real_constructor_arguments(self):
        import dataclasses

        for row in wire.TABLE:
            fields = {f.name for f in dataclasses.fields(row.cls)}
            assert set(row.attrs()) == fields, row.cls.__name__
            assert len(row.attrs()) == len(fields), row.cls.__name__

    @pytest.mark.parametrize("tag", [6, 7, 16, 17, 27, 28, 42])
    def test_retired_tags_have_no_row(self, tag):
        # 6/16 were the per-field WorkBatch/BatchDone rows, 7/17 the
        # whole-file checkpoint pair, 27/28 the deleted shared-memory
        # transport, 42 the per-field BackfillRecords row.
        assert tag not in {row.tag for row in wire.TABLE}
        with pytest.raises(SerdeError):
            wire.decode(bytes([tag, 0, 0, 0]))

    def test_unregistered_class_is_rejected(self):
        with pytest.raises(SerdeError):
            wire.encode(object())


class TestMalformedInput:
    """``wire.decode`` on bytes no encoder produced: a value or
    ``SerdeError`` — never ``IndexError``/``UnicodeDecodeError``/..."""

    @staticmethod
    def decodes_or_serde_error(data: bytes) -> None:
        try:
            wire.decode(data)
        except SerdeError:
            pass

    @pytest.mark.parametrize("entry", GOLDEN, ids=[entry["name"] for entry in GOLDEN])
    def test_prefixes_and_byte_flips(self, entry):
        frame = bytes.fromhex(entry["hex"])
        for cut in range(len(frame)):
            self.decodes_or_serde_error(frame[:cut])
        for position in range(len(frame)):
            for mask in (0xFF, 0x80, 0x01):
                flipped = bytearray(frame)
                flipped[position] ^= mask
                self.decodes_or_serde_error(bytes(flipped))

    def test_errors_name_the_frame(self):
        with pytest.raises(SerdeError, match="malformed DdlRequest frame"):
            wire.decode(bytes([wire.MSG_DDL_REQUEST, 1, 2, 0xFF, 0xFE]))
        with pytest.raises(SerdeError, match="malformed ReplyBatch frame"):
            # one reply whose topic index points past an empty table
            wire.decode(bytes([wire.MSG_REPLY_BATCH, 0, 1, 0, 5, 0]))


class TestLayoutCombinators:
    def test_sorted_containers_encode_equal_bytes(self):
        from repro.common.layout import STR, VARINT, mapping, seq

        names = seq(STR, build=set, sort=True)
        one, other = bytearray(), bytearray()
        names.write(one, {"b", "a", "c"})
        names.write(other, {"c", "b", "a"})
        assert one == other
        assert names.read(memoryview(bytes(one)), 0) == ({"a", "b", "c"}, len(one))
        counts = mapping(STR, VARINT, sort=True)
        one, other = bytearray(), bytearray()
        counts.write(one, {"x": 1, "a": 2})
        counts.write(other, {"a": 2, "x": 1})
        assert one == other

    def test_tuple_arity_is_checked_on_write(self):
        from repro.common.layout import STR, VARINT, tuple_of

        with pytest.raises(ValueError):
            tuple_of(STR, VARINT).write(bytearray(), ("only-one",))

    def test_truncated_flag_is_a_serde_error(self):
        from repro.common.layout import FLAG

        with pytest.raises(SerdeError):
            FLAG.read(memoryview(b""), 0)
