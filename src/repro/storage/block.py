"""Data blocks: the unit of encoding, metadata and pruning.

A column file is a sequence of blocks of up to :data:`BLOCK_ROWS`
values.  Each block carries a :class:`BlockInfo` record in the
column's *position index* (section 3.7): start position, row count,
minimum and maximum value — the metadata the execution engine uses to
skip blocks (and the planner uses to skip whole ROS containers [22]).

NULLs are handled here, not in the encodings: a block with NULLs
stores a presence bitmap before the encoded payload and the encoding
only sees the non-NULL values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from ..errors import EncodingError
from ..monitor import METRICS
from ..types import DataType
from .encodings import ENCODINGS, Encoding, encode_auto
from .serde import read_uvarint, read_value, write_uvarint, write_value

#: Default number of rows per block.
BLOCK_ROWS = 8192


@dataclass
class BlockInfo:
    """Position-index entry for one block of one column."""

    #: Ordinal position (within the container) of the block's first row.
    start_position: int
    #: Number of rows in the block (including NULLs).
    row_count: int
    #: Number of NULL rows; a presence bitmap is stored iff > 0.
    null_count: int
    #: Name of the concrete encoding used for the payload.
    encoding: str
    #: Byte offset of the block within the column data file.
    offset: int
    #: Byte length of the block within the column data file.
    length: int
    #: Minimum non-NULL, non-NaN value in the block (None if there is none).
    min_value: object
    #: Maximum non-NULL, non-NaN value in the block (None if there is none).
    max_value: object

    @property
    def end_position(self) -> int:
        """One past the ordinal position of the block's last row."""
        return self.start_position + self.row_count

    def may_contain(self, low, high) -> bool:
        """Whether the block can hold values in the closed range [low, high].

        ``None`` bounds are open.  Blocks that are all-NULL never match
        a value range, and a bound that does not order against the
        block's values proves nothing.  This is the pruning primitive
        for both block skipping and ROS container elimination.
        """
        if self.min_value is None and self.max_value is None:
            return False
        try:
            if low is not None and self.max_value is not None and self.max_value < low:
                return False
            if high is not None and self.min_value is not None and self.min_value > high:
                return False
        except TypeError:
            pass
        return True

    def serialize(self, out: bytearray) -> None:
        """Append this entry to a position-index byte stream."""
        write_uvarint(out, self.start_position)
        write_uvarint(out, self.row_count)
        write_uvarint(out, self.null_count)
        encoded_name = self.encoding.encode("ascii")
        write_uvarint(out, len(encoded_name))
        out += encoded_name
        write_uvarint(out, self.offset)
        write_uvarint(out, self.length)
        write_value(out, self.min_value)
        write_value(out, self.max_value)

    @classmethod
    def deserialize(cls, data: bytes, offset: int) -> tuple["BlockInfo", int]:
        """Read one entry from a position-index byte stream."""
        start, offset = read_uvarint(data, offset)
        rows, offset = read_uvarint(data, offset)
        nulls, offset = read_uvarint(data, offset)
        name_len, offset = read_uvarint(data, offset)
        name = data[offset : offset + name_len].decode("ascii")
        offset += name_len
        byte_offset, offset = read_uvarint(data, offset)
        length, offset = read_uvarint(data, offset)
        min_value, offset = read_value(data, offset)
        max_value, offset = read_value(data, offset)
        info = cls(start, rows, nulls, name, byte_offset, length, min_value, max_value)
        return info, offset


def _presence_bitmap(values: list) -> bytes:
    """Bitmap with bit i set when values[i] is non-NULL."""
    bits = "".join(["0" if value is None else "1" for value in reversed(values)])
    return int(bits, 2).to_bytes((len(values) + 7) // 8, "little")


#: ``"0"`` / ``"1"`` -> byte 0 / 1: a bitmap's binary digits as flags.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _apply_bitmap(bitmap: bytes, non_nulls: list, count: int) -> list:
    """Rebuild a value list of length ``count`` from bitmap + non-NULLs:
    a row's rank among the non-NULL rows (0 if NULL) indexes ``[None, *non_nulls]``.
    The flags are the bitmap's binary digits, lowest first, as bytes."""
    if len(bitmap) < (count + 7) // 8:
        raise EncodingError("truncated presence bitmap")
    digits = format(int.from_bytes(bitmap, "little"), "b")[::-1][:count]
    present = digits.encode().translate(_DIGIT_FLAGS).ljust(count, b"\0")
    if sum(present) != len(non_nulls):
        raise EncodingError("the presence bitmap disagrees with the values")
    slots = map(mul, present, accumulate(present))
    return list(map([None, *non_nulls].__getitem__, slots))


def value_bounds(non_nulls: list) -> tuple:
    """``(min, max)`` of a block's non-NULL values for its position
    index entry, ``(None, None)`` when there is nothing to bound.

    NaN is left out the way NULL is: it satisfies no range predicate,
    so pruning on the bounds of the other values is exact, while a NaN
    *as* a bound would order against nothing.  ``min``/``max`` keep a
    NaN only when it is the first value (nothing compares below or
    above it), so a clean result needs no second pass.
    """
    if not non_nulls:
        return None, None
    low, high = min(non_nulls), max(non_nulls)
    if low != low or high != high:
        ordered = [value for value in non_nulls if value == value]
        if not ordered:
            return None, None
        low, high = min(ordered), max(ordered)
    return low, high


def encode_block(
    values: list,
    dtype: DataType,
    encoding: Encoding | None,
    start_position: int,
    file_offset: int,
) -> tuple[bytes, BlockInfo]:
    """Encode one block; return ``(payload_bytes, BlockInfo)``.

    ``encoding=None`` means AUTO: pick empirically per block, and
    keep what the winning trial produced.  A block containing NULLs
    prepends a presence bitmap to the payload.
    """
    null_count = values.count(None)
    non_nulls = values
    if null_count:
        non_nulls = [value for value in values if value is not None]
    if encoding is None:
        encoding, payload = encode_auto(dtype, non_nulls)
    else:
        payload = encoding.encode(non_nulls)
    METRICS.inc("storage.blocks_encoded")
    if null_count:
        payload = _presence_bitmap(values) + payload
    min_value, max_value = value_bounds(non_nulls)
    info = BlockInfo(
        start_position=start_position,
        row_count=len(values),
        null_count=null_count,
        encoding=encoding.name,
        offset=file_offset,
        length=len(payload),
        min_value=min_value,
        max_value=max_value,
    )
    return payload, info


def decode_block(payload: bytes, info: BlockInfo) -> list:
    """Decode a block payload back into its value list (NULLs included)."""
    encoding = ENCODINGS[info.encoding]
    if info.null_count:
        bitmap_len = (info.row_count + 7) // 8
        bitmap = payload[:bitmap_len]
        non_nulls = encoding.decode(
            payload[bitmap_len:], info.row_count - info.null_count
        )
        return _apply_bitmap(bitmap, non_nulls, info.row_count)
    return encoding.decode(payload, info.row_count)
