"""A short or malformed payload raises :class:`EncodingError` from every
decoder, and nothing else.

Each case below used to escape as ``IndexError`` (bit-packed codes,
BLOCK_DICT, COMMONDELTA_COMP, PLAIN), ``struct.error`` (a cut double)
or ``zlib.error`` (a bad compressed stream); callers that quarantine a
corrupt container catch ``EncodingError``.  The sweep cuts blocks of
every encoding, with and without NULLs, at every length.
"""

import zlib

import pytest

from repro import types
from repro.errors import EncodingError
from repro.storage import serde
from repro.storage.block import decode_block, encode_block
from repro.storage.encodings import ENCODINGS


def _payload(name: str, values: list) -> bytes:
    return ENCODINGS[name].encode(values)


def _common_delta_cut_codes() -> bytes:
    raw = zlib.decompress(_payload("COMMONDELTA_COMP", [0, 5, 7, 12, 14, 30, 31]))
    return zlib.compress(raw[:-1])


def _common_delta_code_beyond_entries() -> bytes:
    raw = bytearray(zlib.decompress(_payload("COMMONDELTA_COMP", [0, 5, 7, 12, 20])))
    raw[-1] = 0xFF  # four codes 3, of three deltas
    return zlib.compress(bytes(raw))


CASES = {
    "bit-packed codes cut short": lambda: serde.unpack_bits(b"\x01", 4, 5),
    "bit-packed codes of width 3 cut short": lambda: serde.unpack_bits(b"\x01\x02", 3, 8),
    "a double cut short": lambda: serde.read_value(b"\x02\x00", 0),
    "no record at all": lambda: serde.read_value(b"", 0),
    "a string cut short": lambda: serde.read_value(b"\x03\x05ab", 0),
    "a string of bad UTF-8": lambda: serde.read_value(b"\x03\x02\xff\xfe", 0),
    "PLAIN doubles cut short": lambda: ENCODINGS["PLAIN"].decode(b"\x02\x00\x00", 1),
    "PLAIN records missing": lambda: ENCODINGS["PLAIN"].decode(_payload("PLAIN", ["a", 1]), 3),
    "BLOCK_DICT codes cut short": lambda: ENCODINGS["BLOCK_DICT"].decode(
        _payload("BLOCK_DICT", [1, 2, 3, 1, 2, 3, 1, 2, 3])[:-1], 9
    ),
    "BLOCK_DICT code beyond the dictionary": lambda: ENCODINGS["BLOCK_DICT"].decode(
        _payload("BLOCK_DICT", [1, 2, 3, 1])[:-1] + b"\xff", 4
    ),
    "COMMONDELTA_COMP codes cut short": lambda: ENCODINGS["COMMONDELTA_COMP"].decode(
        _common_delta_cut_codes(), 7
    ),
    "COMMONDELTA_COMP code beyond the deltas": lambda: ENCODINGS["COMMONDELTA_COMP"].decode(
        _common_delta_code_beyond_entries(), 5
    ),
    "COMMONDELTA_COMP bad zlib": lambda: ENCODINGS["COMMONDELTA_COMP"].decode(b"\x00oops", 3),
    "COMPRESSED_PLAIN bad zlib": lambda: ENCODINGS["COMPRESSED_PLAIN"].decode(b"\x00oops", 3),
    "DELTARANGE_COMP bad zlib": lambda: ENCODINGS["DELTARANGE_COMP"].decode(b"\x00oops", 3),
    "DELTARANGE_COMP floats cut short": lambda: ENCODINGS["DELTARANGE_COMP"].decode(
        zlib.compress(zlib.decompress(_payload("DELTARANGE_COMP", [1.5, -2.5, 3.0]))[:-1]), 3
    ),
    "DELTAVAL offsets cut short": lambda: ENCODINGS["DELTAVAL"].decode(
        _payload("DELTAVAL", [1, 300, 70000])[:-1], 3
    ),
    "RLE runs cut short": lambda: ENCODINGS["RLE"].decode(_payload("RLE", [7, 7, 8])[:-1], 3),
    "AUTO without a tag": lambda: ENCODINGS["AUTO"].decode(b"", 3),
    "AUTO with an unknown tag": lambda: ENCODINGS["AUTO"].decode(b"\x63", 3),
}


@pytest.mark.parametrize("case", CASES)
def test_a_malformed_payload_raises_encoding_error(case):
    with pytest.raises(EncodingError):
        CASES[case]()


def test_a_bitmap_with_more_rows_than_values_raises_encoding_error():
    payload, info = encode_block([1, None, 2], types.INTEGER, ENCODINGS["PLAIN"], 0, 0)
    with pytest.raises(EncodingError):
        decode_block(b"\x07" + payload[1:], info)  # three rows present, two values


BLOCKS = [
    (types.INTEGER, [5, -3, None, 2**40, 7, 7, 7, 300, None, -(2**63)]),
    (types.FLOAT, [1.5, -0.0, None, float("inf"), -2.5e300, 3.25, 1.5]),
    (types.VARCHAR, ["a", "", None, "zürich", "a", "東京"]),
    (types.BOOLEAN, [True, False, None, True, True]),
]


@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_every_cut_of_every_encoding_decodes_or_raises_encoding_error(name):
    for dtype, values in BLOCKS:
        for block in (values, [value for value in values if value is not None]):
            non_nulls = [value for value in block if value is not None]
            if not ENCODINGS[name].supports(dtype, non_nulls):
                continue
            payload, info = encode_block(block, dtype, ENCODINGS[name], 0, 0)
            for cut in range(len(payload)):
                try:
                    decode_block(payload[:cut], info)
                except EncodingError:
                    pass
