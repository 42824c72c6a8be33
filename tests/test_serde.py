"""Binary serde primitives: round trips and corruption handling."""

import pytest
from hypothesis import given, strategies as st

from repro.common import serde
from repro.common.errors import SerdeError


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        buf = bytearray()
        serde.write_varint(buf, value)
        decoded, offset = serde.read_varint(bytes(buf), 0)
        assert decoded == value
        assert offset == len(buf)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        buf = bytearray()
        serde.write_varint(buf, value)
        assert serde.read_varint(bytes(buf), 0)[0] == value

    def test_small_values_encode_in_one_byte(self):
        buf = bytearray()
        serde.write_varint(buf, 100)
        assert len(buf) == 1

    def test_negative_rejected(self):
        with pytest.raises(SerdeError):
            serde.write_varint(bytearray(), -1)

    def test_truncated_raises(self):
        buf = bytearray()
        serde.write_varint(buf, 2**40)
        with pytest.raises(SerdeError):
            serde.read_varint(bytes(buf[:-1]), 0)

    def test_overlong_raises(self):
        with pytest.raises(SerdeError):
            serde.read_varint(b"\xff" * 11, 0)


class TestSignedVarint:
    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip_property(self, value):
        buf = bytearray()
        serde.write_signed_varint(buf, value)
        assert serde.read_signed_varint(bytes(buf), 0)[0] == value

    def test_zigzag_mapping(self):
        assert serde.zigzag_encode(0) == 0
        assert serde.zigzag_encode(-1) == 1
        assert serde.zigzag_encode(1) == 2
        assert serde.zigzag_encode(-2) == 3

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_zigzag_inverse(self, value):
        assert serde.zigzag_decode(serde.zigzag_encode(value)) == value

    @given(st.integers(min_value=-(2**75), max_value=2**75))
    def test_roundtrip_beyond_i64(self, value):
        """Python ints are unbounded: a tagged int past the i64 range
        (up to what ``read_varint`` accepts) reads back unchanged."""
        buf = bytearray()
        serde.write_value(buf, value)
        assert serde.read_value(bytes(buf), 0) == (value, len(buf))


class TestBytesAndStrings:
    @given(st.binary(max_size=200))
    def test_bytes_roundtrip(self, payload):
        buf = bytearray()
        serde.write_bytes(buf, payload)
        decoded, offset = serde.read_bytes(bytes(buf), 0)
        assert decoded == payload
        assert offset == len(buf)

    @given(st.text(max_size=100))
    def test_str_roundtrip(self, text):
        buf = bytearray()
        serde.write_str(buf, text)
        assert serde.read_str(bytes(buf), 0)[0] == text

    def test_truncated_bytes_raise(self):
        buf = bytearray()
        serde.write_bytes(buf, b"hello world")
        with pytest.raises(SerdeError):
            serde.read_bytes(bytes(buf[:-3]), 0)


class TestFixedWidth:
    @given(st.floats(allow_nan=False))
    def test_f64_roundtrip(self, value):
        buf = bytearray()
        serde.write_f64(buf, value)
        assert serde.read_f64(bytes(buf), 0)[0] == value

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_u32_roundtrip(self, value):
        buf = bytearray()
        serde.write_u32(buf, value)
        assert serde.read_u32(bytes(buf), 0)[0] == value

    def test_truncated_f64(self):
        with pytest.raises(SerdeError):
            serde.read_f64(b"\x00" * 7, 0)


_scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.floats(allow_nan=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)


class TestTaggedValues:
    @given(_scalar_values)
    def test_roundtrip_property(self, value):
        buf = bytearray()
        serde.write_value(buf, value)
        decoded, offset = serde.read_value(bytes(buf), 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(buf)

    def test_bool_is_not_int(self):
        buf = bytearray()
        serde.write_value(buf, True)
        decoded, _ = serde.read_value(bytes(buf), 0)
        assert decoded is True

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerdeError):
            serde.write_value(bytearray(), object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerdeError):
            serde.read_value(b"\x99", 0)

    def test_sequence_of_values(self):
        buf = bytearray()
        values = [None, 1, "two", 3.0, False, b"four"]
        for value in values:
            serde.write_value(buf, value)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = serde.read_value(bytes(buf), offset)
            decoded.append(value)
        assert decoded == values


class TestCrc:
    def test_crc_detects_change(self):
        data = b"some payload"
        crc = serde.crc32_of(data)
        assert serde.crc32_of(b"some payloae") != crc

    def test_crc_stable(self):
        assert serde.crc32_of(b"x") == serde.crc32_of(b"x")


class TestFrames:
    PAYLOADS = [b"", b"a", b"x" * 200, bytes(range(256))]

    def framed(self, payloads):
        buf = bytearray()
        for payload in payloads:
            serde.write_frame(buf, payload)
        return bytes(buf)

    def test_layout_is_crc_then_length_prefixed_payload(self):
        buf = bytearray()
        serde.write_frame(buf, b"abc")
        assert bytes(buf) == serde.crc32_of(b"abc").to_bytes(4, "little") + b"\x03abc"

    def test_roundtrip(self):
        data = self.framed(self.PAYLOADS)
        offset = 0
        for payload in self.PAYLOADS:
            decoded, offset = serde.read_frame(data, offset)
            assert decoded == payload
        assert offset == len(data)
        frames = list(serde.iter_frames(data))
        assert [payload for _, _, payload in frames] == self.PAYLOADS
        assert [start for start, _, _ in frames[1:]] == [end for _, end, _ in frames[:-1]]
        assert frames[-1][1] == len(data)

    def test_iter_frames_from_an_offset(self):
        data = self.framed(self.PAYLOADS)
        second = serde.read_frame(data, 0)[1]
        assert [p for _, _, p in serde.iter_frames(data, second)] == self.PAYLOADS[1:]

    @pytest.mark.parametrize("flip", [False, True])
    def test_iter_frames_stops_at_the_first_torn_frame(self, flip):
        data = self.framed(self.PAYLOADS)
        ends = [end for _, end, _ in serde.iter_frames(data)]
        for cut in range(len(data)):
            damaged = bytearray(data[: cut + 1] if not flip else data)
            if flip:
                damaged[cut] ^= 0x5A
            # Exactly the frames wholly before the damage survive.
            survivors = sum(1 for end in ends if end <= (cut if flip else cut + 1))
            decoded = [p for _, _, p in serde.iter_frames(bytes(damaged))]
            assert decoded == self.PAYLOADS[:survivors], cut

    def test_read_frame_raises_on_damage(self):
        data = bytearray(self.framed([b"payload"]))
        with pytest.raises(SerdeError):
            serde.read_frame(bytes(data[:-1]), 0)
        data[-1] ^= 1
        with pytest.raises(SerdeError):
            serde.read_frame(bytes(data), 0)
