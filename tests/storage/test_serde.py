"""Unit tests for the low-level serialization primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.storage import serde


class TestVarint:
    def test_zero(self):
        out = bytearray()
        serde.write_uvarint(out, 0)
        assert bytes(out) == b"\x00"
        assert serde.read_uvarint(bytes(out), 0) == (0, 1)

    def test_single_byte_boundary(self):
        out = bytearray()
        serde.write_uvarint(out, 127)
        assert len(out) == 1
        out2 = bytearray()
        serde.write_uvarint(out2, 128)
        assert len(out2) == 2

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            serde.write_uvarint(bytearray(), -1)

    def test_truncated_raises(self):
        out = bytearray()
        serde.write_uvarint(out, 1 << 40)
        with pytest.raises(EncodingError):
            serde.read_uvarint(bytes(out[:-1]), 0)

    @given(st.integers(min_value=0, max_value=2**70))
    def test_roundtrip(self, value):
        out = bytearray()
        serde.write_uvarint(out, value)
        assert serde.read_uvarint(bytes(out), 0) == (value, len(out))


class TestBulkVarints:
    """``read_uvarints``/``read_svarints`` agree with one scalar read
    per value, whichever of their two paths a block takes."""

    @given(
        st.lists(st.integers(min_value=0, max_value=2**70), max_size=40),
        st.binary(max_size=3),
    )
    def test_unsigned_matches_scalar_reads(self, values, prefix):
        out = bytearray(prefix)
        for value in values:
            serde.write_uvarint(out, value)
        out += b"\xff"  # whatever follows the block is left alone
        got, offset = serde.read_uvarints(bytes(out), len(prefix), len(values))
        assert got == values
        assert offset == len(out) - 1

    @given(st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=40))
    def test_signed_matches_scalar_reads(self, values):
        out = bytearray()
        for value in values:
            serde.write_svarint(out, value)
        assert serde.read_svarints(bytes(out), 0, len(values)) == (values, len(out))

    def test_all_single_byte_block(self):
        data = bytes([5, 0, 127, 9])
        assert serde.read_uvarints(data, 1, 3) == ([0, 127, 9], 4)

    @pytest.mark.parametrize(
        "data,count",
        [
            (b"\x01\x02", 3),  # single-byte values, one short
            (b"\x01\x80", 2),  # continuation bit, then nothing
            (b"\x81\x01\x05", 3),  # multi-byte value, then one short
            (b"", 1),
        ],
    )
    def test_truncated_raises(self, data, count):
        with pytest.raises(EncodingError, match="truncated varint"):
            serde.read_uvarints(data, 0, count)
        with pytest.raises(EncodingError, match="truncated varint"):
            serde.read_svarints(data, 0, count)

    def test_count_zero_reads_nothing(self):
        assert serde.read_uvarints(b"\x80", 0, 0) == ([], 0)


class TestZigzag:
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert serde.unzigzag(serde.zigzag(value)) == value

    def test_small_magnitudes_small_codes(self):
        assert serde.zigzag(0) == 0
        assert serde.zigzag(-1) == 1
        assert serde.zigzag(1) == 2
        assert serde.zigzag(-2) == 3

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_svarint_roundtrip(self, value):
        out = bytearray()
        serde.write_svarint(out, value)
        assert serde.read_svarint(bytes(out), 0) == (value, len(out))


class TestScalars:
    @given(st.floats(allow_nan=False))
    def test_double_roundtrip(self, value):
        out = bytearray()
        serde.write_double(out, value)
        decoded, offset = serde.read_double(bytes(out), 0)
        assert decoded == value
        assert offset == 8

    @given(st.text())
    def test_string_roundtrip(self, value):
        out = bytearray()
        serde.write_string(out, value)
        assert serde.read_string(bytes(out), 0) == (value, len(out))


sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(),
)


class TestSelfDescribingValues:
    @given(sql_values)
    def test_roundtrip(self, value):
        out = bytearray()
        serde.write_value(out, value)
        decoded, offset = serde.read_value(bytes(out), 0)
        assert decoded == value and type(decoded) is type(value)
        assert offset == len(out)

    def test_sequence_roundtrip(self):
        values = [None, True, False, -5, 3.25, "héllo", ""]
        out = bytearray()
        for value in values:
            serde.write_value(out, value)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = serde.read_value(bytes(out), offset)
            decoded.append(value)
        assert decoded == values

    def test_unsupported_type_raises(self):
        with pytest.raises(EncodingError):
            serde.write_value(bytearray(), object())


class TestBitPacking:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**17 - 1)),
    )
    def test_roundtrip(self, values):
        width = serde.bit_width_for(max(values) if values else 0)
        packed = serde.pack_bits(values, width)
        assert serde.unpack_bits(packed, width, len(values)) == values

    def test_zero_width(self):
        assert serde.pack_bits([0, 0, 0], 0) == b""
        assert serde.unpack_bits(b"", 0, 3) == [0, 0, 0]

    def test_width_for(self):
        assert serde.bit_width_for(0) == 0
        assert serde.bit_width_for(1) == 1
        assert serde.bit_width_for(255) == 8
        assert serde.bit_width_for(256) == 9
