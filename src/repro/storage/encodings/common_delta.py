"""Compressed Common Delta encoding.

    Compressed Common Delta: Builds a dictionary of all the deltas in
    the block and then stores indexes into the dictionary using entropy
    coding.  This type is best for sorted data with predictable
    sequences and occasional sequence breaks.  For example, timestamps
    recorded at periodic intervals or primary keys.  (section 3.4.1)

A periodic timestamp column has essentially one delta (the interval)
plus a handful of breaks, so the delta dictionary is tiny and the
bit-packed, zlib-entropy-coded index stream collapses to almost
nothing — this is how the meter experiment (section 8.2.2) stores a
collection-timestamp column in a fraction of its raw size.
"""

from __future__ import annotations

import zlib
from itertools import accumulate
from operator import sub

from ...errors import EncodingError
from ...types import DataType
from ..serde import bit_width_for, inflate, pack_bits, read_svarint, read_svarints
from ..serde import read_uvarint, unpack_bits, write_svarint, write_svarints
from ..serde import write_uvarint
from .base import BlockFacts, Encoding, register


class CompressedCommonDeltaEncoding(Encoding):
    """Delta dictionary + entropy-coded indexes; integers only."""

    name = "COMMONDELTA_COMP"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        out = bytearray()
        write_svarint(out, values[0] if values else 0)
        deltas = list(map(sub, values[1:], values))
        # the distinct deltas, coded in order of first appearance
        code_of = {delta: code for code, delta in enumerate(dict.fromkeys(deltas))}
        write_uvarint(out, len(code_of))
        write_svarints(out, list(code_of))
        width = bit_width_for(max(len(code_of) - 1, 0))
        write_uvarint(out, width)
        out += pack_bits(list(map(code_of.__getitem__, deltas)), width)
        return zlib.compress(bytes(out), level=6)

    def decode(self, data: bytes, count: int) -> list:
        if count == 0:
            return []
        raw = inflate(data)
        first, offset = read_svarint(raw, 0)
        size, offset = read_uvarint(raw, offset)
        entries, offset = read_svarints(raw, offset, size)
        width, offset = read_uvarint(raw, offset)
        codes = unpack_bits(raw[offset:], width, count - 1)
        if max(codes, default=-1) >= size:
            raise EncodingError("a delta code beyond the dictionary")
        return list(accumulate(map(entries.__getitem__, codes), initial=first))

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        # any integer block: one with no common delta loses on size
        return dtype.integral and (facts or BlockFacts(values)).kinds <= {int}


COMMONDELTA_COMP = register(CompressedCommonDeltaEncoding())
