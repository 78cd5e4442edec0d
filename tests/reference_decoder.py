"""The read path as it was before a block decoded in bulk — the oracle
the bulk-decode property holds the product to.

Everything here is value-at-a-time: the varint loop with a fast path
for a block of one-byte varints, ``unpack_bits`` taking a value's bits
from a byte buffer, PLAIN reading one self-describing record per value,
RLE a record and a length per run, the NULL bitmap tested bit by bit.
The two layouts of stored format 2 are read the same way: a block of
strings (PLAIN, RLE heads, BLOCK_DICT entries) its count, then a length
at a time, then a body at a time, and DELTARANGE_COMP's float lanes a
lane at a time, each delta summed modulo 2**64.
The one change from that code is the errors: a short or malformed
payload made these loops raise ``IndexError``, ``struct.error``,
``zlib.error`` or ``StopIteration``; :func:`decode_block` turns each
into the :class:`EncodingError` the product raises.

Unchanged product pieces are reused: the scalar ``serde`` readers
(``read_uvarint``, ``read_svarint``, ``read_value``) and ``BlockInfo``.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate

from repro.errors import EncodingError
from repro.storage.block import BlockInfo
from repro.storage.encodings.auto import CANDIDATE_NAMES
from repro.storage.serde import read_svarint, read_uvarint, read_value


def read_uvarints(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    head = data[offset : offset + count]
    if len(head) == count and max(head, default=0) < 0x80:
        return list(head), offset + count
    values = []
    for _ in range(count):
        result = 0
        shift = 0
        while True:
            byte = data[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        values.append(result)
    return values, offset


def read_svarints(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    raws, offset = read_uvarints(data, offset, count)
    return [(raw >> 1) ^ -(raw & 1) for raw in raws], offset


def unpack_bits(data: bytes, bit_width: int, count: int) -> list[int]:
    if bit_width == 0:
        return [0] * count
    values = []
    buffer = 0
    bits = 0
    mask = (1 << bit_width) - 1
    position = 0
    for _ in range(count):
        while bits < bit_width:
            buffer |= data[position] << bits
            position += 1
            bits += 8
        values.append(buffer & mask)
        buffer >>= bit_width
        bits -= bit_width
    return values


def read_strings(data: bytes, offset: int) -> tuple[list[str], int]:
    count, offset = read_uvarint(data, offset + 1)
    lengths = []
    for _ in range(count):
        length, offset = read_uvarint(data, offset)
        lengths.append(length)
    values = []
    for length in lengths:
        if offset + length > len(data):
            raise EncodingError("truncated string")
        values.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return values, offset


def read_records(data: bytes, offset: int, count: int) -> tuple[list, int]:
    if count and data[offset : offset + 1] == b"\x06":
        values, offset = read_strings(data, offset)
        if len(values) != count:
            raise EncodingError("a block of strings of another count")
        return values, offset
    values = []
    for _ in range(count):
        value, offset = read_value(data, offset)
        values.append(value)
    return values, offset


def ordered_ints_to_floats(raws: list[int]) -> list[float]:
    patterns = [raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF for raw in raws]
    count = len(patterns)
    return list(struct.unpack(f"<{count}d", struct.pack(f"<{count}q", *patterns)))


# -- the encodings' decoders ------------------------------------------


def plain(data: bytes, count: int) -> list:
    values, offset = read_records(data, 0, count)
    if offset != len(data):
        raise EncodingError("bytes past the last value")
    return values


def compressed_plain(data: bytes, count: int) -> list:
    return plain(zlib.decompress(data), count)


def iter_runs(data: bytes, count: int):
    emitted = 0
    offset = 0
    if data[:1] == b"\x06":  # a block of string heads, then the lengths
        heads, offset = read_strings(data, 0)
        lengths = []
        for _ in heads:
            length, offset = read_uvarint(data, offset)
            lengths.append(length)
        if sum(lengths) != count or offset != len(data):
            raise EncodingError("RLE runs disagree with the block")
        yield from zip(heads, lengths)
        return
    while emitted < count:
        value, offset = read_value(data, offset)
        length, offset = read_uvarint(data, offset)
        emitted += length
        yield value, length


def rle(data: bytes, count: int) -> list:
    values: list = []
    for value, length in iter_runs(data, count):
        values.extend([value] * length)
    return values


def deltaval(data: bytes, count: int) -> list:
    if count == 0:
        return []
    minimum, offset = read_svarint(data, 0)
    deltas, _ = read_uvarints(data, offset, count)
    return [minimum + delta for delta in deltas]


def decode_parts(data: bytes, count: int) -> tuple[list, list[int]]:
    size, offset = read_uvarint(data, 0)
    entries, offset = read_records(data, offset, size)
    width, offset = read_uvarint(data, offset)
    return entries, unpack_bits(data[offset:], width, count)


def block_dict(data: bytes, count: int) -> list:
    entries, codes = decode_parts(data, count)
    return [entries[code] for code in codes]


def deltarange(data: bytes, count: int) -> list:
    raw = zlib.decompress(data)
    if count == 0:
        return []
    if raw[0] != 1:
        deltas, _ = read_svarints(raw, 1, count)
        return list(accumulate(deltas))
    # per value an 8-byte lane: the zigzag of its ordered int's delta,
    # modulo 2**64
    if len(raw) != 1 + 8 * count:
        raise EncodingError("corrupt float lanes")
    ordered = []
    total = 0
    for index in range(count):
        lane = int.from_bytes(raw[1 + index * 8 : 9 + index * 8], "little")
        total = (total + ((lane >> 1) ^ -(lane & 1))) % 2**64
        ordered.append(total - 2**64 if total >= 2**63 else total)
    return ordered_ints_to_floats(ordered)


def commondelta(data: bytes, count: int) -> list:
    if count == 0:
        return []
    raw = zlib.decompress(data)
    first, offset = read_svarint(raw, 0)
    size, offset = read_uvarint(raw, offset)
    entries, offset = read_svarints(raw, offset, size)
    width, offset = read_uvarint(raw, offset)
    codes = unpack_bits(raw[offset:], width, count - 1)
    return list(accumulate((entries[code] for code in codes), initial=first))


def auto(data: bytes, count: int) -> list:
    return DECODERS[CANDIDATE_NAMES[data[0]]](data[1:], count)


DECODERS = {
    "PLAIN": plain,
    "COMPRESSED_PLAIN": compressed_plain,
    "RLE": rle,
    "DELTAVAL": deltaval,
    "BLOCK_DICT": block_dict,
    "DELTARANGE_COMP": deltarange,
    "COMMONDELTA_COMP": commondelta,
    "AUTO": auto,
}


def apply_bitmap(bitmap: bytes, non_nulls: list, count: int) -> list:
    values = [None] * count
    cursor = iter(non_nulls)
    for index in range(count):
        if bitmap[index >> 3] & (1 << (index & 7)):
            values[index] = next(cursor)
    return values


#: What a short or malformed payload made the loops above raise.
ERRORS = (IndexError, struct.error, zlib.error, StopIteration, UnicodeDecodeError)


def typed(function):
    """``function`` raising :class:`EncodingError` instead of
    :data:`ERRORS`."""

    def typed_function(*args):
        try:
            return function(*args)
        except ERRORS as exc:
            raise EncodingError(f"{type(exc).__name__}: {exc}") from None

    return typed_function


#: Encoding ``name``'s decode of ``count`` values from ``data``.
decode = typed(lambda name, data, count: DECODERS[name](data, count))
#: RLE's ``(value, run_length)`` pairs; BLOCK_DICT's ``(entries, codes)``.
runs = typed(lambda data, count: list(iter_runs(data, count)))
parts = typed(decode_parts)


def decode_block(payload: bytes, info: BlockInfo) -> list:
    """A block payload's values, NULLs included."""
    if not info.null_count:
        return decode(info.encoding, payload, info.row_count)
    bitmap_len = (info.row_count + 7) // 8
    non_nulls = decode(info.encoding, payload[bitmap_len:], info.row_count - info.null_count)
    return typed(apply_bitmap)(payload[:bitmap_len], non_nulls, info.row_count)
