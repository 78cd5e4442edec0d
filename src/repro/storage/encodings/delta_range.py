"""Compressed Delta Range encoding.

    Compressed Delta Range: Stores each value as a delta from the
    previous one.  This type is ideal for many-valued float columns
    that are either sorted or confined to a range.  (section 3.4.1)

Integers are stored as zigzag varint deltas from the previous value.
Floats are first reinterpreted as their raw 64-bit patterns and the
*patterns* are delta-coded — unlike arithmetic float deltas this is
exactly reversible, and neighbouring floats in a sorted or
range-confined column share high-order bits so their pattern deltas
are small.  Either stream is then run through zlib (the "compressed"
part).
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate, chain
from operator import sub

from ...types import DataType
from ..serde import read_svarints, write_svarints
from .base import BlockFacts, Encoding, register


def floats_to_ordered_ints(values: list[float]) -> list[int]:
    """Reinterpret doubles as sign-magnitude-ordered 64-bit integers,
    a whole block in one pack and one unpack.

    The mapping is monotone in the float ordering (NaNs aside), so
    sorted floats produce monotone integers with small deltas.
    """
    count = len(values)
    raws = struct.unpack(f"<{count}q", struct.pack(f"<{count}d", *values))
    return [raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF for raw in raws]


def ordered_ints_to_floats(raws: list[int]) -> list[float]:
    """Inverse of :func:`float_to_ordered_int` over a whole block: one
    pack and one unpack instead of a pair per value."""
    patterns = [raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF for raw in raws]
    count = len(patterns)
    return list(struct.unpack(f"<{count}d", struct.pack(f"<{count}q", *patterns)))


class CompressedDeltaRangeEncoding(Encoding):
    """Delta-from-previous plus zlib; numeric types only."""

    name = "DELTARANGE_COMP"

    _INT_TAG = 0
    _FLOAT_TAG = 1

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        if values and isinstance(values[0], float):
            out = bytearray([self._FLOAT_TAG])
            values = floats_to_ordered_ints(values)
        else:
            out = bytearray([self._INT_TAG])
        # each value less the one before it, the first less zero
        write_svarints(out, list(map(sub, values, chain((0,), values))))
        return zlib.compress(bytes(out), level=6)

    def decode(self, data: bytes, count: int) -> list:
        raw = zlib.decompress(data)
        if count == 0:
            return []
        deltas, _ = read_svarints(raw, 1, count)
        values = list(accumulate(deltas))
        if raw[0] == self._FLOAT_TAG:
            return ordered_ints_to_floats(values)
        return values

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        kinds = (facts or BlockFacts(values)).kinds
        return kinds <= {int} or (not dtype.integral and kinds <= {float})


DELTARANGE_COMP = register(CompressedDeltaRangeEncoding())
