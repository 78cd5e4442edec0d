"""Tests for blocks, position indexes and column files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.errors import StorageError
from repro.monitor import METRICS
from repro.storage.block import BlockInfo, decode_block, encode_block
from repro.storage.column_file import ColumnReader, ColumnWriter


def build_column(values, dtype=types.INTEGER, encoding="AUTO", block_rows=64):
    writer = ColumnWriter(dtype, encoding, block_rows=block_rows)
    writer.extend(values)
    data, index = writer.finish()
    return ColumnReader(data, index)


class TestBlockRoundtrip:
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=-(2**62), max_value=2**62))
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_with_nulls(self, values):
        payload, info = encode_block(values, types.INTEGER, None, 0, 0)
        assert decode_block(payload, info) == values

    def test_min_max_ignore_nulls(self):
        payload, info = encode_block([None, 5, 1, None, 9], types.INTEGER, None, 0, 0)
        assert info.min_value == 1
        assert info.max_value == 9
        assert info.null_count == 2

    def test_all_null_block(self):
        payload, info = encode_block([None, None], types.INTEGER, None, 0, 0)
        assert info.min_value is None and info.max_value is None
        assert decode_block(payload, info) == [None, None]
        assert not info.may_contain(0, 100)

    def test_may_contain(self):
        _, info = encode_block([10, 20, 30], types.INTEGER, None, 0, 0)
        assert info.may_contain(15, 25)
        assert info.may_contain(None, 10)
        assert info.may_contain(30, None)
        assert not info.may_contain(31, None)
        assert not info.may_contain(None, 9)

    def test_blockinfo_serialization_roundtrip(self):
        info = BlockInfo(100, 50, 3, "RLE", 1234, 567, -5, "zz")
        out = bytearray()
        info.serialize(out)
        decoded, offset = BlockInfo.deserialize(bytes(out), 0)
        assert decoded == info
        assert offset == len(out)


class TestColumnWriterReader:
    def test_read_all(self):
        values = list(range(1000))
        reader = build_column(values)
        assert reader.read_all() == values
        assert reader.row_count == 1000

    def test_multiple_blocks_created(self):
        reader = build_column(list(range(1000)), block_rows=100)
        assert len(reader.blocks) == 10
        assert [b.start_position for b in reader.blocks][:3] == [0, 100, 200]

    def test_positional_get(self):
        values = [i * 3 for i in range(500)]
        reader = build_column(values, block_rows=64)
        for position in (0, 63, 64, 499, 250):
            assert reader.get(position) == values[position]

    def test_read_range_cuts_inside_blocks(self):
        values = [None if i % 50 == 7 else i // 3 for i in range(300)]
        reader = build_column(values, block_rows=64)
        before = METRICS.counter("storage.blocks_decoded")
        # unaligned at both ends: blocks 1 and 2 only
        assert reader.read_range(70, 150) == values[70:150]
        assert METRICS.counter("storage.blocks_decoded") - before == 2
        assert reader.read_range(150, 150) == [] == reader.read_range(9, 3)
        assert reader.read_range(0, 10_000) == values

    @pytest.mark.parametrize(
        "encoding, kind", [("RLE", "rle"), ("BLOCK_DICT", "dict"), ("PLAIN", "plain")]
    )
    def test_vector_for_range_trims_and_keeps_encoding(self, encoding, kind):
        values = [i // 10 for i in range(300)]
        reader = build_column(values, encoding=encoding, block_rows=64)
        whole = reader.vector_for_range(1, 0, 300)  # clipped to block 1
        assert whole is reader.block_vector(1)
        assert (whole.kind, list(whole)) == (kind, values[64:128])
        trimmed = reader.vector_for_range(1, 70, 100)
        assert (trimmed.kind, list(trimmed)) == (kind, values[70:100])
        assert (trimmed.row_count, trimmed.null_count) == (30, 0)

    def test_vector_for_range_counts_nulls_of_the_trimmed_rows(self):
        values = [None if i % 8 == 0 else i for i in range(128)]
        reader = build_column(values, block_rows=64)
        trimmed = reader.vector_for_range(1, 65, 81)
        assert (trimmed.kind, list(trimmed)) == ("plain", values[65:81])
        assert trimmed.null_count == 2  # positions 72 and 80

    def test_get_out_of_range(self):
        reader = build_column([1, 2, 3])
        with pytest.raises(StorageError):
            reader.get(3)

    def test_empty_column(self):
        reader = build_column([])
        assert reader.read_all() == []
        assert reader.row_count == 0
        assert reader.min_value() is None

    def test_min_max_from_metadata(self):
        reader = build_column([5, None, -2, 100, 7], block_rows=2)
        assert reader.min_value() == -2
        assert reader.max_value() == 100

    def test_block_pruning(self):
        # 10 blocks of 100 sorted values; a range filter hits few blocks.
        reader = build_column(list(range(1000)), block_rows=100)
        decoded = METRICS.counter("storage.blocks_decoded")
        # pure metadata: nine blocks pruned (the storage walk counts
        # them), none decoded to decide it
        assert reader.position_range_for(250, 260) == (200, 300, 9)
        assert METRICS.counter("storage.blocks_decoded") == decoded
        assert reader.read_range(200, 300) == list(range(200, 300))
        assert METRICS.counter("storage.blocks_decoded") - decoded == 1
        # open bounds, a range spanning blocks, a range holding nothing
        assert reader.position_range_for(None, 99) == (0, 100, 9)
        assert reader.position_range_for(250, 420) == (200, 500, 7)
        assert reader.position_range_for(5000, None) == (0, 0, 10)

    def test_position_range_keeps_null_blocks(self):
        values = [None] * 100 + list(range(100)) + [None, 900] * 50
        reader = build_column(values, block_rows=100)
        # NULL-bearing blocks are retained — NULL handling is the
        # predicate evaluator's job, not the pruner's — so the range
        # runs from the first to the last of them.
        assert reader.position_range_for(5000, 6000)[:2] == (0, 300)
        assert reader.position_range_for(10, 20)[:2] == (0, 300)

    def test_varchar_column(self):
        values = ["m%03d" % (i % 7) for i in range(200)]
        reader = build_column(values, dtype=types.VARCHAR)
        assert reader.read_all() == values

    def test_float_column(self):
        values = [i / 7.0 for i in range(200)]
        reader = build_column(values, dtype=types.FLOAT)
        assert reader.read_all() == values

    def test_explicit_encoding_respected(self):
        reader = build_column([1, 1, 1, 2, 2], encoding="RLE", block_rows=5)
        assert reader.blocks[0].encoding == "RLE"

    def test_position_index_is_small(self):
        # The paper: position index ~ 1/1000 the raw column data.
        values = list(range(100_000))
        writer = ColumnWriter(types.INTEGER, "PLAIN")
        writer.extend(values)
        data, index = writer.finish()
        assert len(index) < len(data) / 100

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=-(10**9), max_value=10**9)),
            max_size=300,
        )
    )
    @settings(max_examples=30)
    def test_property_roundtrip(self, values):
        reader = build_column(values, block_rows=37)
        assert reader.read_all() == values
        if values:
            assert reader.get(len(values) - 1) == values[-1]
