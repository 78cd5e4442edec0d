"""Compressed Delta Range encoding.

    Compressed Delta Range: Stores each value as a delta from the
    previous one.  This type is ideal for many-valued float columns
    that are either sorted or confined to a range.  (section 3.4.1)

Integers are stored as zigzag varint deltas from the previous value.
Floats are first reinterpreted as their raw 64-bit patterns and the
*patterns* are delta-coded — unlike arithmetic float deltas this is
exactly reversible, and neighbouring floats in a sorted or
range-confined column share high-order bits so their pattern deltas
are small; each delta is zigzagged modulo 2**64 into an 8-byte
lane.  Either stream is then run through zlib (the "compressed" part).
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate, chain
from operator import sub

from ...errors import EncodingError
from ...types import DataType
from ..serde import inflate, lane_mask, read_svarints, unzigzag_lanes, write_svarints
from .base import BlockFacts, Encoding, register


_LOW_WORD = (1 << 64) - 1


def _flip_negatives(lanes: int, count: int) -> int:
    """Each 8-byte lane's low 63 bits flipped where its top bit is set (double <-> ordered int)."""
    signs = (lanes >> 63) & lane_mask(b"\x01" + bytes(7), 8 * count)
    return lanes ^ ((signs << 63) - signs)


def floats_to_ordered_ints(values: list[float]) -> list[int]:
    """Reinterpret doubles as sign-magnitude-ordered 64-bit integers,
    a whole block in one pack and one unpack.

    The mapping is monotone in the float ordering (NaNs aside), so
    sorted floats produce monotone integers with small deltas.
    """
    count = len(values)
    patterns = int.from_bytes(struct.pack(f"<{count}d", *values), "little")
    return memoryview(_flip_negatives(patterns, count).to_bytes(8 * count, "little")).cast("q").tolist()


class CompressedDeltaRangeEncoding(Encoding):
    """Delta-from-previous plus zlib; numeric types only."""

    name = "DELTARANGE_COMP"

    _INT_TAG = 0
    _FLOAT_TAG = 1

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        if not values or not isinstance(values[0], float):
            out = bytearray([self._INT_TAG])
            # each value less the one before it, the first less zero
            write_svarints(out, list(map(sub, values, chain((0,), values))))
            return zlib.compress(bytes(out), level=6)
        # the tag, then per value 8 bytes: the zigzag of its ordered int
        # less the one before modulo 2**64 (zlib takes the zero high bytes)
        count = len(values)
        ordered = floats_to_ordered_ints(values)
        deltas = map(_LOW_WORD.__and__, map(sub, ordered, chain((0,), ordered)))
        lanes = int.from_bytes(struct.pack(f"<{count}Q", *deltas), "little")
        signs = (lanes >> 63) & lane_mask(b"\x01" + bytes(7), 8 * count)
        words = (lanes << 1) ^ (signs << 64) ^ ((signs << 64) - signs)
        return zlib.compress(bytes([self._FLOAT_TAG]) + words.to_bytes(8 * count, "little"), level=6)

    def decode(self, data: bytes, count: int) -> list:
        raw = inflate(data)
        if raw[:1] != bytes([self._FLOAT_TAG]):
            deltas, _ = read_svarints(raw, 1, count)
            return list(accumulate(deltas))
        # unzigzag the lanes, sum modulo 2**64, undo the sign fix
        if len(raw) != 1 + 8 * count:
            raise EncodingError(f"corrupt float lanes: {len(raw)} bytes, {count} rows")
        deltas = unzigzag_lanes(int.from_bytes(raw[1:], "little"), 8, count).to_bytes(8 * count, "little")
        sums = map(_LOW_WORD.__and__, accumulate(memoryview(deltas).cast("q")))
        ordered = int.from_bytes(struct.pack(f"<{count}Q", *sums), "little")
        return memoryview(_flip_negatives(ordered, count).to_bytes(8 * count, "little")).cast("d").tolist()

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        kinds = (facts or BlockFacts(values)).kinds
        return kinds <= {int} or (not dtype.integral and kinds <= {float})


DELTARANGE_COMP = register(CompressedDeltaRangeEncoding())
