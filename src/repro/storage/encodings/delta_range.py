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
from array import array
from itertools import accumulate, chain
from operator import sub

from ...errors import EncodingError
from ...types import DataType
from ..serde import inflate, lane_mask, read_svarints, unzigzag_lanes, varint_lanes, write_svarints
from .base import BlockFacts, Encoding, register


_LOW_WORD = (1 << 64) - 1


def floats_to_ordered_ints(values: list[float]) -> list[int]:
    """Reinterpret doubles as sign-magnitude-ordered 64-bit integers,
    a whole block in one pack and one unpack.

    The mapping is monotone in the float ordering (NaNs aside), so
    sorted floats produce monotone integers with small deltas.
    """
    count = len(values)
    raws = struct.unpack(f"<{count}q", struct.pack(f"<{count}d", *values))
    return [raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF for raw in raws]


def deltas_to_floats(deltas: int, width: int, count: int) -> list[float]:
    """The floats whose ordered ints have the deltas in ``deltas``, one
    two's complement delta in each ``width``-byte lane (``width`` >= 8).
    A delta may take 65 bits, so the sums are taken modulo 2**64."""
    words = memoryview(deltas.to_bytes(width * count, "little")).cast("q")[:: width // 8]
    ordered = int.from_bytes(array("Q", map(_LOW_WORD.__and__, accumulate(words))), "little")
    # the sign fix of floats_to_ordered_ints: a negative one's low 63 bits flipped
    signs = (ordered >> 63) & lane_mask(b"\x01" + bytes(7), 8 * count)
    patterns = ordered ^ ((signs << 63) - signs)
    return memoryview(patterns.to_bytes(8 * count, "little")).cast("d").tolist()


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
        raw = inflate(data)
        if count == 0:
            return []
        if raw[:1] == bytes([self._FLOAT_TAG]):
            read = varint_lanes(raw, 1, count, 8)
            if read is None:  # cut short, or a delta beyond 65 bits
                raise EncodingError("corrupt float deltas")
            lanes, width, _ = read
            return deltas_to_floats(unzigzag_lanes(lanes, width, count), width, count)
        deltas, _ = read_svarints(raw, 1, count)
        return list(accumulate(deltas))

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        kinds = (facts or BlockFacts(values)).kinds
        return kinds <= {int} or (not dtype.integral and kinds <= {float})


DELTARANGE_COMP = register(CompressedDeltaRangeEncoding())
