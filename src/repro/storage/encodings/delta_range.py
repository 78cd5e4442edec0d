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
from itertools import accumulate

from ...types import DataType
from ..serde import read_svarints, write_svarint
from .base import Encoding, register, values_are_float, values_are_integral


def float_to_ordered_int(value: float) -> int:
    """Reinterpret a double as a sign-magnitude-ordered 64-bit integer.

    The mapping is monotone in the float ordering (NaNs aside), so
    sorted floats produce monotone integers with small deltas.
    """
    raw = struct.unpack("<q", struct.pack("<d", value))[0]
    return raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF


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

    def encode(self, values: list) -> bytes:
        out = bytearray()
        if values and isinstance(values[0], float):
            out.append(self._FLOAT_TAG)
            stream = (float_to_ordered_int(value) for value in values)
        else:
            out.append(self._INT_TAG)
            stream = iter(values)
        previous = 0
        for value in stream:
            write_svarint(out, value - previous)
            previous = value
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

    def supports(self, dtype: DataType, values: list) -> bool:
        if dtype.integral:
            return values_are_integral(values)
        return values_are_float(values) or values_are_integral(values)


DELTARANGE_COMP = register(CompressedDeltaRangeEncoding())
