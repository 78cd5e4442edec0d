"""Low-level byte serialization shared by all column encodings.

Encodings (section 3.4) are defined in terms of a handful of
primitives: unsigned varints, zigzag-coded signed varints, IEEE
doubles, length-prefixed strings and blocks of strings.  Keeping these in one module
makes every encoding short and makes byte-level sizes — the quantity
Table 4 measures — easy to reason about.
"""

from __future__ import annotations

import struct
import zlib
from itertools import accumulate, chain, repeat
from operator import add, and_, lshift, neg, rshift, xor

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
#: A varint stream as UTF-8 for :func:`varint_lanes`: a byte that continues
#: a varint is U+0880 + its 7-bit group, one that ends it U+0080 + its
#: group and a tab.
_TABBED_UTF8 = (
    bytes(0xE0 if b & 0x80 else 0xC2 | (b & 0x40) >> 6 for b in range(256)),
    bytes(0xA2 | (b & 0x40) >> 6 if b & 0x80 else 0x80 | b & 0x3F for b in range(256)),
    bytes(0x80 | b & 0x3F if b & 0x80 else 0x09 for b in range(256)),
)
#: Such a character's low byte to its 7-bit group, a space (padding) to 0.
_UNPAD = bytes(128) + bytes(range(128))
#: The bytes that continue a varint.
CONTINUING = bytes(range(0x80, 0x100))
_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: ``_BIT_PLANES[w][k]``: code ``k`` of a byte of ``8 // w`` codes of ``w`` bits.
_BIT_PLANES = {w: [bytes(b >> shift & (1 << w) - 1 for b in range(256)) for shift in range(0, 8, w)]
               for w in (1, 2, 4)}


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


def lane_mask(pattern: bytes, size: int) -> int:
    """``pattern`` repeated over ``size`` bytes as one little-endian int
    (built per call: a cache keyed on block size grows with the sizes)."""
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def varint_lanes(data: bytes, offset: int, count: int):
    """The ``count`` varints at ``offset`` as one little-endian int of
    lanes of ``width`` bytes, a value each: ``(lanes, width,
    new_offset)``, or None if a varint takes over 15 bytes or is cut
    short.  A tab after each varint, expanded, pads it to its lane;
    log2(width) mask-and-shift steps over the block close the gaps
    between the 7-bit groups.  The width is the longest varint's, found
    by one search, so the tabs are expanded once.  No step is taken per
    value."""
    head = data[offset : offset + count]
    if len(head) == count and head.isascii():
        return int.from_bytes(head, "little"), 1, offset + count
    stream = data[offset : offset + 15 * count]
    units = bytearray(3 * len(stream))
    for plane, table in enumerate(_TABBED_UTF8):
        units[plane::3] = stream.translate(table)
    text = units.decode("utf-8")
    if text.count("\t") < count:
        return None
    # lanes wider than the longest varint: a run of 7 (3) bytes that
    # continue one is a varint of 8 (4) bytes or more; bytes past the
    # varints may only widen them, and a varint over 15 bytes fails
    marks = stream.translate(_TOP_BIT)
    width = 16 if b"\1" * 7 in marks else 8 if b"\1" * 3 in marks else 4
    padded = text.expandtabs(width).encode("utf-16-le")[0 : 2 * width * count : 2]
    if padded[width - 1 :: width] != b" " * count:
        return None
    lanes = int.from_bytes(padded.translate(_UNPAD), "little")
    half = 1
    while half < width:
        low = lanes & lane_mask(b"\xff" * half + b"\0" * half, len(padded))
        lanes = low | ((lanes ^ low) >> half)
        half *= 2
    return lanes, width, offset + len(padded) - padded.count(b" ")


def unzigzag_lanes(lanes: int, width: int, count: int) -> int:
    """:func:`unzigzag` in every lane: each becomes its value's two's complement."""
    signs = lanes & lane_mask(b"\x01".ljust(width, b"\0"), width * count)
    return ((lanes ^ signs) >> 1) ^ ((signs << 8 * width) - signs)


def lane_values(lanes: int, width: int, count: int, signed: bool = False) -> list[int]:
    """The value in each of ``count`` lanes (two's complement if ``signed``)."""
    packed = memoryview(lanes.to_bytes(width * count, "little"))
    if width < 16:
        fmt = _LANE_FORMATS[width]
        return packed.cast(fmt.lower() if signed else fmt).tolist()
    highs = packed.cast("q" if signed else "Q")[1::2]
    return list(map(add, packed.cast("Q")[0::2], map(lshift, highs, repeat(64))))


def _read_each(read, data: bytes, offset: int, count: int) -> tuple[list, int]:
    """``count`` values read one at a time by ``read``."""
    values = []
    for _ in range(count):
        value, offset = read(data, offset)
        values.append(value)
    return values, offset


def read_uvarints(data: bytes, offset: int, count: int, signed: bool = False):
    """Read ``count`` unsigned (zigzag if ``signed``) varints: ``(values, new_offset)``."""
    # a few varints read faster one at a time than through the lanes' fixed steps
    read = varint_lanes(data, offset, count) if count > 8 else None
    if read is None:  # or an integer beyond 2**105, or a short stream
        return _read_each(read_svarint if signed else read_uvarint, data, offset, count)
    lanes, width, offset = read
    if signed:
        lanes = unzigzag_lanes(lanes, width, count)
    return lane_values(lanes, width, count, signed), offset


def read_svarints(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Read ``count`` consecutive zigzag varints; return
    ``(values, new_offset)``."""
    return read_uvarints(data, offset, count, signed=True)


def unzigzags(raws: list[int]) -> list[int]:
    """:func:`unzigzag` of every value of ``raws``."""
    ones = repeat(1)
    return list(map(xor, map(rshift, raws, ones), map(neg, map(and_, raws, ones))))


def inflate(data: bytes) -> bytes:
    """``zlib.decompress`` raising :class:`EncodingError` on a bad stream."""
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise EncodingError(f"corrupt compressed payload: {exc}") from None


def write_double(out: bytearray, value: float) -> None:
    """Append an IEEE-754 little-endian double."""
    out += struct.pack("<d", value)


def read_double(data: bytes, offset: int) -> tuple[float, int]:
    """Read an IEEE-754 little-endian double."""
    if offset + 8 > len(data):
        raise EncodingError("truncated double")
    return struct.unpack_from("<d", data, offset)[0], offset + 8


def write_string(out: bytearray, value: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    encoded = value.encode("utf-8")
    write_uvarint(out, len(encoded))
    out += encoded


def read_string(data: bytes, offset: int) -> tuple[str, int]:
    """Read a length-prefixed UTF-8 string."""
    length, offset = read_uvarint(data, offset)
    if offset + length > len(data):
        raise EncodingError("truncated string")
    try:
        return data[offset : offset + length].decode("utf-8"), offset + length
    except UnicodeDecodeError as exc:
        raise EncodingError(f"corrupt string: {exc}") from None


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


#: The tag of a block of strings (:func:`write_values`): no record's tag.
STRINGS = b"\x06"


def write_values(out: bytearray, values: list, kinds=None) -> None:
    """Append every value of ``values`` as :func:`write_value` does, a
    column at a time: ``kinds`` is the set of their types (worked out
    here when not given).  Small integers and booleans are byte
    slices, doubles one ``struct.pack``, strings one block (:data:`STRINGS`,
    count, UTF-8 lengths, bodies); a list of mixed types (or holding NULLs
    — only metadata and grouped columns do) goes value by value.
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
        text = "".join(values)
        out += STRINGS
        write_uvarint(out, count)
        write_uvarints(out, list(map(len, values if text.isascii() else map(str.encode, values))))
        out += text.encode("utf-8")
    elif kinds == {bool}:
        out += bytes(map((5, 4).__getitem__, values))
    else:
        for value in values:
            write_value(out, value)


def record_sizes(values: list, kinds) -> list[int]:
    """The length of each record :func:`write_values` writes for
    ``values`` (``kinds``: the set of their types, not ``{str}``): a
    tag byte, then a varint, a double or nothing."""
    if kinds == {int}:
        return [size + 1 for size in uvarint_sizes(zigzags(values))]
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
        return 1 + uvarint_size(count) + sum(lengths) + uvarints_size(lengths)
    return sum(record_sizes(values, kinds))


def read_value(data: bytes, offset: int):
    """Read one self-describing SQL value; return ``(value, new_offset)``."""
    if offset >= len(data):
        raise EncodingError("truncated value")
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


def read_strings(data: bytes, offset: int, expected: int | None = None) -> tuple[list[str], int]:
    """Read a block of (``expected``) strings: ``(values, new_offset)``.
    The lengths, read by the lanes, are summed into offsets; an ASCII
    body decodes once and is sliced, any other is sliced and decoded."""
    count, offset = read_uvarint(data, offset + 1)
    if expected not in (None, count):
        raise EncodingError(f"{count} strings where {expected} were written")
    lengths, offset = read_uvarints(data, offset, count)
    ends = list(accumulate(lengths, initial=0))
    body = bytes(data[offset : offset + ends[-1]])
    if len(body) != ends[-1]:
        raise EncodingError("truncated strings")
    slices = map(slice, ends, ends[1:])
    if body.isascii():
        return list(map(body.decode().__getitem__, slices)), offset + len(body)
    try:
        return list(map(bytes.decode, map(body.__getitem__, slices))), offset + len(body)
    except UnicodeDecodeError as exc:
        raise EncodingError(f"corrupt string: {exc}") from None


def read_values(data: bytes, offset: int, count: int) -> tuple[list, int]:
    """Read ``count`` records of :func:`write_values`; return ``(values,
    new_offset)``: in bulk if all are doubles, one-byte records,
    integers (a tag and a varint: twice as many varints) or a block of
    strings; mixed blocks record by record."""
    if count and data[offset : offset + 1] == STRINGS:
        return read_strings(data, offset, count)
    end = offset + 9 * count
    if len(data) >= end and data[offset:end:9] == b"\x02" * count:
        body = bytearray(8 * count)
        for byte in range(8):
            body[byte::8] = data[offset + byte + 1 : end : 9]
        return memoryview(body).cast("d").tolist(), end
    end = offset + count
    singles = data[offset:end]
    if len(singles) == count and not singles.translate(None, b"\x00\x04\x05"):
        return list(map({0: None, 4: True, 5: False}.__getitem__, singles)), end
    if data[offset : offset + 1] == b"\x01":
        try:
            words, end = read_svarints(data, offset, 2 * count)
        except EncodingError:  # not integers throughout: read record by record
            words = []
        if words[0::2].count(-1) == count:  # every tag the byte 1, zigzag -1
            return words[1::2], end
    return _read_each(read_value, data, offset, count)


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
    """Inverse of :func:`pack_bits` for ``count`` values: widths 1, 2, 4
    and 8 through per-byte tables, the others by :func:`_spread_bits`."""
    if bit_width == 0:
        return [0] * count
    size = packed_size(count, bit_width)
    data = bytes(data[:size])
    if len(data) < size:
        raise EncodingError("truncated bit-packed codes")
    if bit_width == 8:
        return list(data)
    planes = _BIT_PLANES.get(bit_width)
    if planes is None:
        return _spread_bits(data, bit_width, count)
    codes = bytearray(len(data) * len(planes))
    for plane, table in enumerate(planes):
        codes[plane :: len(planes)] = data.translate(table)
    return list(codes[:count])


def _spread_bits(data: bytes, bit_width: int, count: int) -> list[int]:
    """:func:`unpack_bits` for widths up to 64: each ``bit_width`` bytes
    (eight codes) move to eight lanes of their own, and three
    mask-and-shift steps over the block move each code to its lane."""
    lane = 1 << max(3, (bit_width - 1).bit_length())  # bits
    if lane > 64:
        raise EncodingError(f"bit width {bit_width} out of range")
    groups = -(-count // 8)
    data = data.ljust(groups * bit_width, b"\0")
    spread = bytearray(groups * lane)  # eight lanes of lane // 8 bytes a group
    for byte in range(bit_width):
        spread[byte :: lane] = data[byte :: bit_width]
    codes = int.from_bytes(spread, "little")
    for half in (4, 2, 1):
        unit = ((1 << half * bit_width) - 1).to_bytes(half * lane // 4, "little")
        low = codes & lane_mask(unit, len(spread))
        codes = low | ((codes ^ low) << half * (lane - bit_width))
    packed = codes.to_bytes(len(spread), "little")
    return memoryview(packed).cast(_LANE_FORMATS[lane // 8])[:count].tolist()


def bit_width_for(max_value: int) -> int:
    """Smallest bit width able to represent ``max_value`` distinct codes."""
    return max(1, (max_value).bit_length()) if max_value > 0 else 0
