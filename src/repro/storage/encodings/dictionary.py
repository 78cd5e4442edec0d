"""Block Dictionary encoding.

    Block Dictionary: Within a data block, distinct column values are
    stored in a dictionary and actual values are replaced with
    references to the dictionary.  This type is best for few-valued,
    unsorted columns such as stock prices.  (section 3.4.1)

The dictionary is block-local (no global dictionary to maintain, so
ROS containers remain immutable and self-contained) and references are
bit-packed to the smallest width that covers the dictionary size.
"""

from __future__ import annotations

from ...errors import EncodingError
from ...types import DataType
from ..serde import bit_width_for, pack_bits, packed_size, read_uvarint
from ..serde import read_values, unpack_bits, uvarint_size, write_uvarint
from ..serde import write_values
from .base import BlockFacts, Encoding, register


class BlockDictionaryEncoding(Encoding):
    """Block-local dictionary with bit-packed codes; any type."""

    name = "BLOCK_DICT"

    #: Refuse to build dictionaries beyond this many entries; a column
    #: with more distinct values per block is not "few-valued".
    max_dictionary_size = 4096

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        facts = facts or BlockFacts(values)
        entries = facts.entries
        width = self.code_width(entries)
        out = bytearray()
        write_uvarint(out, len(entries))
        write_values(out, entries, facts.kinds)
        write_uvarint(out, width)
        out += pack_bits(list(map(facts.codes.__getitem__, facts.keys)), width)
        return bytes(out)

    def trial(self, values: list, facts: BlockFacts) -> int:
        # the entry count, the entries' records, the width, the codes
        entries = facts.entries
        width = self.code_width(entries)
        return (
            uvarint_size(len(entries))
            + facts.records_size(entries)
            + uvarint_size(width)
            + packed_size(len(values), width)
        )

    @staticmethod
    def code_width(entries: list) -> int:
        """Bits per code: none for a dictionary of one entry."""
        return bit_width_for(max(len(entries) - 1, 0))

    def decode(self, data: bytes, count: int) -> list:
        entries, codes = self.decode_parts(data, count)
        return list(map(entries.__getitem__, codes))

    def decode_parts(self, data: bytes, count: int) -> tuple[list, list[int]]:
        """Decode to ``(entries, codes)`` without mapping codes to values.

        The execution engine's dictionary kernels want the dictionary
        and the code list separately (test each entry once, compare
        codes as integers).
        """
        size, offset = read_uvarint(data, 0)
        entries, offset = read_values(data, offset, size)
        width, offset = read_uvarint(data, offset)
        codes = unpack_bits(data[offset:], width, count)
        if max(codes, default=-1) >= size:
            raise EncodingError("a code beyond the dictionary")
        return entries, codes

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        limit = self.max_dictionary_size
        return len(values) <= limit or len(set(values[: limit + 1])) <= limit


BLOCK_DICT = register(BlockDictionaryEncoding())
