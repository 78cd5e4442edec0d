"""Counts, not timings: a block decodes in bulk.

Each encoding's decoder works a whole block at a time — varints in
lanes of one big integer, bit-packed codes through byte tables or a lane
spread, PLAIN records read as a block, a block of strings as a lengths
stream and one body, the NULL bitmap through a table — so the Python
lines it runs do not depend on how many rows the block holds.  The
count is ``sys.settrace`` line events inside ``repro.storage`` while one
block decodes: a block of 8,192 rows must cost exactly what a block of
4,096 rows of the same shape costs.  And a DELTARANGE_COMP float block
stores its deltas in fixed lanes, not varints: its decode expands no
tabs (``str.expandtabs``, the varint lanes' padding step), also when
most of its deltas are short and a few wrap modulo 2**64.
"""

import os
import sys

import pytest

import repro.storage
from repro import types
from repro.storage.block import decode_block, encode_block
from repro.storage.encodings import ENCODINGS

STORAGE = os.path.dirname(repro.storage.__file__)


def _ints(rows: int) -> list[int]:
    """Integers of one to four varint bytes, both signs, no order."""
    return [(index * 7919 % 10007 - 5003) * (index % 97 + 1) for index in range(rows)]


def _floats(rows: int) -> list[float]:
    """Meter-like readings of both signs: 65-bit pattern deltas."""
    return [(index % 13 - 6) * 1.25 + index / 8192 for index in range(rows)]


def _words(rows: int) -> list[str]:
    """ASCII strings of 0 to 300 bytes: lengths of one and two varint bytes."""
    return [f"m{index * 7 % 311:03d}" * (index % 5) + "x" * (index % 7 * 43) for index in range(rows)]


def _with_nulls(values: list) -> list:
    return [None if index % 11 == 3 else value for index, value in enumerate(values)]


#: (encoding, column type, values of a block of ``rows`` rows)
SHAPES = {
    "PLAIN-int": ("PLAIN", types.INTEGER, _ints),
    "PLAIN-float": ("PLAIN", types.FLOAT, _floats),
    "PLAIN-bool": ("PLAIN", types.BOOLEAN, lambda rows: [index % 3 == 0 for index in range(rows)]),
    "COMPRESSED_PLAIN-float": ("COMPRESSED_PLAIN", types.FLOAT, _floats),
    "PLAIN-str": ("PLAIN", types.VARCHAR, _words),
    "COMPRESSED_PLAIN-str": (
        "COMPRESSED_PLAIN", types.VARCHAR,
        lambda rows: [("zürich", "東京", "", "abc")[index % 4] * (index % 9) for index in range(rows)],
    ),
    "RLE-str": ("RLE", types.VARCHAR, lambda rows: [f"metric_{index // 5 % 900}" for index in range(rows)]),
    "BLOCK_DICT-str": ("BLOCK_DICT", types.VARCHAR, lambda rows: [f"é{index * 31 % 700}" for index in range(rows)]),
    "RLE-int": ("RLE", types.INTEGER, lambda rows: [index // 4 % 700 * 1000 for index in range(rows)]),
    "DELTAVAL": ("DELTAVAL", types.INTEGER, _ints),
    "BLOCK_DICT-width-2": ("BLOCK_DICT", types.VARCHAR, lambda rows: ["abcd"[index % 4] for index in range(rows)]),
    "BLOCK_DICT-width-6": ("BLOCK_DICT", types.INTEGER, lambda rows: [index * 31 % 37 for index in range(rows)]),
    "DELTARANGE_COMP-int": ("DELTARANGE_COMP", types.INTEGER, _ints),
    "DELTARANGE_COMP-float": ("DELTARANGE_COMP", types.FLOAT, _floats),
    "COMMONDELTA_COMP": (
        "COMMONDELTA_COMP", types.INTEGER,
        lambda rows: [index * 60 + index // 1000 * 7 for index in range(rows)],
    ),
    "AUTO": ("AUTO", types.INTEGER, _ints),
    "DELTAVAL-with-NULLs": ("DELTAVAL", types.INTEGER, lambda rows: _with_nulls(_ints(rows))),
    "DELTARANGE_COMP-float-with-NULLs": (
        "DELTARANGE_COMP", types.FLOAT, lambda rows: _with_nulls(_floats(rows)),
    ),
}


def line_events(function) -> int:
    """Line events inside ``repro.storage`` while ``function`` runs."""
    events = 0

    def trace(frame, event, arg):
        nonlocal events
        if not frame.f_code.co_filename.startswith(STORAGE):
            return None
        if event == "line":
            events += 1
        return trace

    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
    return events


def decode_lines(shape: str, rows: int) -> int:
    name, dtype, make = SHAPES[shape]
    values = make(rows)
    payload, info = encode_block(values, dtype, ENCODINGS[name], 0, 0)
    assert list(map(repr, decode_block(payload, info))) == list(map(repr, values))
    return line_events(lambda: decode_block(payload, info))


@pytest.mark.parametrize("shape", SHAPES)
def test_a_block_of_twice_the_rows_runs_the_same_lines(shape):
    assert decode_lines(shape, 8192) == decode_lines(shape, 4096)


def expandtabs_calls(function) -> int:
    """Calls of ``str.expandtabs`` while ``function`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", "") == "expandtabs":
            calls += 1

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


#: Float blocks whose deltas are mostly short, as varints they were.
FLOAT_BLOCKS = {
    # six-byte deltas, and ones that wrap modulo 2**64 into and out of
    # every tenth (negative) reading
    "meter": lambda rows: [
        -(100.0 + index) if index % 10 == 9 else 100.0 + index % 7 * 0.001
        for index in range(rows)
    ],
    "slow": lambda rows: [100.0 + index % 97 * 0.01 for index in range(rows)],
    "signs": _floats,
}


@pytest.mark.parametrize("shape", FLOAT_BLOCKS)
def test_a_float_block_expands_no_tabs(shape):
    values = FLOAT_BLOCKS[shape](8192)
    payload, info = encode_block(values, types.FLOAT, ENCODINGS["DELTARANGE_COMP"], 0, 0)
    assert info.encoding == "DELTARANGE_COMP"
    assert decode_block(payload, info) == values
    assert expandtabs_calls(lambda: decode_block(payload, info)) == 0
