"""Low-level byte serialization shared by all column encodings.

Encodings (section 3.4) are defined in terms of a handful of
primitives: unsigned varints, zigzag-coded signed varints, IEEE
doubles, and length-prefixed strings.  Keeping these in one module
makes every encoding short and makes byte-level sizes — the quantity
Table 4 measures — easy to reason about.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain

from ..errors import EncodingError

#: Byte tables for writing varints of values under 2**14 a plane at a
#: time (:func:`_short_varints`): with ``b0`` / ``b1`` a value's low and
#: high byte, its first varint byte is ``b0 | _CONTINUED[b1]`` and its
#: second ``_DOUBLED[b1] | _TOP_BIT[b0]``, dropped where that is zero.
_CONTINUED = bytes([0] + [0x80] * 255)
_DOUBLED = bytes(b << 1 & 0xFF for b in range(256))
_TOP_BIT = bytes(b >> 7 for b in range(256))
_DROPPED = bytes([1] + [0] * 255)
#: ``_VARINT_BYTES[b]``: the length of the varint of a value ``b`` bits long.
_VARINT_BYTES = bytes(max(1, -(-bits // 7)) for bits in range(256))


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as a LEB128 unsigned varint."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned varint; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise EncodingError("truncated varint") from None
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one with small absolute values
    mapping to small codes (0->0, -1->1, 1->2, -2->3, ...).

    Python ints are arbitrary-precision, so the negative branch XORs
    with -1 (bitwise NOT) rather than the fixed-width ``value >> 127``
    idiom, which under-shifts for magnitudes of 2**127 and beyond.
    """
    return (value << 1) ^ -1 if value < 0 else value << 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag varint."""
    write_uvarint(out, zigzag(value))


def read_svarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read a zigzag varint; return ``(value, new_offset)``."""
    raw, offset = read_uvarint(data, offset)
    return unzigzag(raw), offset


def write_uvarints(out: bytearray, values: list[int]) -> None:
    """Append every value of ``values`` as an unsigned varint.

    The bulk form of :func:`write_uvarint` for the block encoders — the
    write-side twin of :func:`read_uvarints`: a block of values under
    128 (small deltas, run lengths, dictionary sizes) is its own bytes
    and never enters the loop.
    """
    if not values:
        return
    if min(values) < 0:
        raise EncodingError(f"uvarint cannot encode negative value {min(values)}")
    top = max(values)
    if top < 0x80:
        out += bytes(values)
        return
    if top < 0x4000:
        out += _short_varints(values)
        return
    append = out.append
    for value in values:
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)


def _or(first: bytes, second: bytes) -> bytes:
    """The bitwise OR of two byte strings of one length."""
    merged = int.from_bytes(first, "little") | int.from_bytes(second, "little")
    return merged.to_bytes(len(first), "little")


def _short_varints(values: list[int], tag: bytes = b"") -> bytes:
    """The varints of ``values`` (each ``0 <= value < 2**14``), ``tag``
    (empty or one byte) before each, a byte plane at a time.

    Each value becomes UTF-16 code units — the tag, its first byte, its
    second byte or U+0100 where it has none — and the text, with every
    U+0100 taken out, is the bytes (Latin-1).  No loop per value."""
    count = len(values)
    packed = struct.pack(f"<{count}H", *values)
    low, high = packed[0::2], packed[1::2]
    first = _or(low, high.translate(_CONTINUED))
    second = _or(high.translate(_DOUBLED), low.translate(_TOP_BIT))
    step = 2 * (len(tag) + 2)
    units = bytearray(step * count)
    if tag:
        units[0::step] = tag * count
    units[step - 4 :: step] = first
    units[step - 2 :: step] = second
    units[step - 1 :: step] = second.translate(_DROPPED)
    return units.decode("utf-16-le").replace("\u0100", "").encode("latin-1")


def uvarint_sizes(values: list[int]) -> bytes | list[int]:
    """The length of each varint :func:`write_uvarints` writes for
    ``values``: a byte per seven bits of the value."""
    try:
        return bytes(map(int.bit_length, values)).translate(_VARINT_BYTES)
    except ValueError:  # a value of 256 bits or more
        return [-(-bits // 7) or 1 for bits in map(int.bit_length, values)]


def uvarints_size(values: list[int]) -> int:
    """The length of what :func:`write_uvarints` appends for ``values``."""
    if not values or max(values) < 0x80:
        return len(values)
    return sum(uvarint_sizes(values))


def uvarint_size(value: int) -> int:
    """The length of :func:`write_uvarint`'s bytes for ``value``."""
    return -(-value.bit_length() // 7) or 1


def zigzags(values: list[int]) -> list[int]:
    """:func:`zigzag` of every value of ``values``."""
    return [(value << 1) ^ -1 if value < 0 else value << 1 for value in values]


def write_svarints(out: bytearray, values: list[int]) -> None:
    """Append every value of ``values`` as a zigzag varint."""
    write_uvarints(out, zigzags(values))


def read_uvarints(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` consecutive unsigned varints; return
    ``(values, new_offset)``.

    The bulk form of :func:`read_uvarint` for the block decoders: one
    call per block instead of one per value, with the varint loop
    inlined.  A run of single-byte varints — small deltas, the common
    case in sorted columns — is its own byte values and never enters
    the loop.
    """
    head = data[offset : offset + count]
    if len(head) == count and max(head, default=0) < 0x80:
        return list(head), offset + count
    values = []
    append = values.append
    try:
        for _ in range(count):
            byte = data[offset]
            offset += 1
            if byte < 0x80:
                append(byte)
                continue
            result = byte & 0x7F
            shift = 7
            while True:
                byte = data[offset]
                offset += 1
                result |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            append(result)
    except IndexError:
        raise EncodingError("truncated varint") from None
    return values, offset


def read_svarints(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` consecutive zigzag varints; return
    ``(values, new_offset)``."""
    raws, offset = read_uvarints(data, offset, count)
    return [(raw >> 1) ^ -(raw & 1) for raw in raws], offset


def write_double(out: bytearray, value: float) -> None:
    """Append an IEEE-754 little-endian double."""
    out += struct.pack("<d", value)


def read_double(data: bytes, offset: int) -> tuple[float, int]:
    """Read an IEEE-754 little-endian double."""
    return struct.unpack_from("<d", data, offset)[0], offset + 8


def write_string(out: bytearray, value: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    encoded = value.encode("utf-8")
    write_uvarint(out, len(encoded))
    out += encoded


def read_string(data: bytes, offset: int) -> tuple[str, int]:
    """Read a length-prefixed UTF-8 string."""
    length, offset = read_uvarint(data, offset)
    return data[offset : offset + length].decode("utf-8"), offset + length


def write_value(out: bytearray, value) -> None:
    """Append one SQL value of any supported type (self-describing).

    Used by the plain encoding and by metadata that must store
    arbitrary min/max values.  Format: 1 tag byte then the payload.
    """
    if value is None:
        out.append(0)
    elif isinstance(value, bool):
        out.append(4 if value else 5)
    elif isinstance(value, int):
        out.append(1)
        write_svarint(out, value)
    elif isinstance(value, float):
        out.append(2)
        write_double(out, value)
    elif isinstance(value, str):
        out.append(3)
        write_string(out, value)
    else:
        raise EncodingError(f"unsupported SQL value {value!r}")


def _tagged(tag: bytes, width: int, payload: bytes) -> bytearray:
    """``payload`` cut into ``width``-byte records, ``tag`` before each."""
    count = len(payload) // width
    out = bytearray((width + 1) * count)
    out[:: width + 1] = tag * count
    for byte in range(width):
        out[byte + 1 :: width + 1] = payload[byte::width]
    return out


def _string_record(value: str) -> bytes:
    out = bytearray(b"\x03")
    write_string(out, value)
    return bytes(out)


def write_values(out: bytearray, values: list, kinds=None) -> None:
    """Append every value of ``values`` as :func:`write_value` does, a
    column at a time: ``kinds`` is the set of their types (worked out
    here when not given).  Small integers and booleans are byte
    slices, doubles one ``struct.pack``, a string is serialised once
    per distinct value; a list of mixed types (or holding NULLs — only
    metadata and grouped columns do) goes value by value.
    """
    if kinds is None:
        kinds = set(map(type, values))
    count = len(values)
    if not count:
        return
    if kinds == {int}:
        raws = zigzags(values)
        top = max(raws)
        if top < 0x80:
            out += _tagged(b"\x01", 1, bytes(raws))
            return
        if top < 0x4000:
            out += _short_varints(raws, b"\x01")
            return
        append = out.append
        for raw in raws:
            append(1)
            while raw > 0x7F:
                append(raw & 0x7F | 0x80)
                raw >>= 7
            append(raw)
    elif kinds == {float}:
        out += _tagged(b"\x02", 8, struct.pack(f"<{count}d", *values))
    elif kinds == {str}:
        records = {value: _string_record(value) for value in set(values)}
        out += b"".join(map(records.__getitem__, values))
    elif kinds == {bool}:
        out += bytes(map((5, 4).__getitem__, values))
    else:
        for value in values:
            write_value(out, value)


def record_sizes(values: list, kinds) -> list[int]:
    """The length of each record :func:`write_values` writes for
    ``values`` (``kinds``: the set of their types): a tag byte, then a
    varint, a double, nothing or a length-prefixed string."""
    if kinds == {int}:
        return [size + 1 for size in uvarint_sizes(zigzags(values))]
    if kinds == {str}:
        lengths = list(map(len, map(str.encode, values)))
        return [1 + size + length for size, length in zip(uvarint_sizes(lengths), lengths)]
    if kinds == {float}:
        return [9] * len(values)
    if kinds == {bool}:
        return [1] * len(values)
    return list(map(_record_size, values))


def _record_size(value) -> int:
    out = bytearray()
    write_value(out, value)
    return len(out)


def interleave(first: bytes, first_sizes, second: bytes, second_sizes) -> bytes:
    """Item ``i`` of ``first``, then item ``i`` of ``second``, for every
    ``i``: each byte string is its items end to end, ``*_sizes`` their
    lengths (as many of one as of the other)."""
    first_ends = list(accumulate(first_sizes))
    second_ends = list(accumulate(second_sizes))
    firsts = map(first.__getitem__, map(slice, [0, *first_ends], first_ends))
    seconds = map(second.__getitem__, map(slice, [0, *second_ends], second_ends))
    return b"".join(chain.from_iterable(zip(firsts, seconds)))


def values_size(values: list, kinds=None) -> int:
    """The length of what :func:`write_values` appends for ``values``
    (``kinds``: the set of their types): the sum of
    :func:`record_sizes`, without a list where a block of integers or
    strings allows."""
    if kinds is None:
        kinds = set(map(type, values))
    count = len(values)
    if not count:
        return 0
    if kinds == {int}:
        if -0x40 <= min(values) and max(values) < 0x40:
            return 2 * count
        return count + uvarints_size(zigzags(values))
    if kinds == {str}:
        if all(map(str.isascii, values)):
            lengths = list(map(len, values))
        else:
            lengths = list(map(len, map(str.encode, values)))
        return count + sum(lengths) + uvarints_size(lengths)
    return sum(record_sizes(values, kinds))


def read_value(data: bytes, offset: int):
    """Read one self-describing SQL value; return ``(value, new_offset)``."""
    tag = data[offset]
    offset += 1
    if tag == 0:
        return None, offset
    if tag == 1:
        return read_svarint(data, offset)
    if tag == 2:
        return read_double(data, offset)
    if tag == 3:
        return read_string(data, offset)
    if tag == 4:
        return True, offset
    if tag == 5:
        return False, offset
    raise EncodingError(f"unknown value tag {tag}")


def pack_bits(values: list[int], bit_width: int) -> bytes:
    """Bit-pack ``values`` (each < 2**bit_width) into a byte string:
    value ``i`` is bits ``[i * bit_width, (i + 1) * bit_width)`` of one
    little-endian integer, whose binary digits are the values' own,
    last value first."""
    if bit_width == 0 or not values:
        return b""
    distinct = set(values)
    digits_of = dict(zip(distinct, map(f"{{:0{bit_width}b}}".format, distinct)))
    digits = "".join(map(digits_of.__getitem__, reversed(values)))
    return int(digits, 2).to_bytes(packed_size(len(values), bit_width), "little")


def packed_size(count: int, bit_width: int) -> int:
    """The length of :func:`pack_bits`' bytes for ``count`` values."""
    return (count * bit_width + 7) // 8


def unpack_bits(data: bytes, bit_width: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bits` for ``count`` values."""
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


def bit_width_for(max_value: int) -> int:
    """Smallest bit width able to represent ``max_value`` distinct codes."""
    return max(1, (max_value).bit_length()) if max_value > 0 else 0
