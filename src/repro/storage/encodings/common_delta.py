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

from ...types import DataType
from ..serde import (
    bit_width_for,
    pack_bits,
    read_svarint,
    read_svarints,
    read_uvarint,
    unpack_bits,
    write_svarint,
    write_uvarint,
)
from .base import Encoding, register, values_are_integral


class CompressedCommonDeltaEncoding(Encoding):
    """Delta dictionary + entropy-coded indexes; integers only."""

    name = "COMMONDELTA_COMP"

    #: A block whose consecutive deltas exceed this many distinct values
    #: has no "common" deltas and should use another encoding.
    max_delta_dictionary = 65536

    def encode(self, values: list) -> bytes:
        out = bytearray()
        write_svarint(out, values[0] if values else 0)
        deltas = [values[i] - values[i - 1] for i in range(1, len(values))]
        dictionary: dict[int, int] = {}
        entries: list[int] = []
        codes = []
        for delta in deltas:
            code = dictionary.get(delta)
            if code is None:
                code = len(entries)
                dictionary[delta] = code
                entries.append(delta)
            codes.append(code)
        write_uvarint(out, len(entries))
        for entry in entries:
            write_svarint(out, entry)
        width = bit_width_for(max(len(entries) - 1, 0))
        write_uvarint(out, width)
        out += pack_bits(codes, width)
        return zlib.compress(bytes(out), level=6)

    def decode(self, data: bytes, count: int) -> list:
        if count == 0:
            return []
        raw = zlib.decompress(data)
        first, offset = read_svarint(raw, 0)
        size, offset = read_uvarint(raw, offset)
        entries, offset = read_svarints(raw, offset, size)
        width, offset = read_uvarint(raw, offset)
        codes = unpack_bits(raw[offset:], width, count - 1)
        return list(
            accumulate((entries[code] for code in codes), initial=first)
        )

    def supports(self, dtype: DataType, values: list) -> bool:
        if not (dtype.integral and values_are_integral(values)):
            return False
        if len(values) < 2:
            return True
        sample_deltas = {
            values[i] - values[i - 1] for i in range(1, min(len(values), 8192))
        }
        return len(sample_deltas) <= self.max_delta_dictionary


COMMONDELTA_COMP = register(CompressedCommonDeltaEncoding())
