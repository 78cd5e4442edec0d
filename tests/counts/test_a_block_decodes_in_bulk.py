"""Counts, not timings: a block decodes in bulk.

Each encoding's decoder works a whole block at a time — varints in
lanes of one big integer, bit-packed codes through byte tables or a lane
spread, PLAIN records read as a block, the NULL bitmap through a table —
so the Python lines it runs do not depend on how many rows the block
holds.  The count is ``sys.settrace`` line events inside
``repro.storage`` while one block decodes: a block of 8,192 rows must
cost exactly what a block of 4,096 rows of the same shape costs.
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


def _with_nulls(values: list) -> list:
    return [None if index % 11 == 3 else value for index, value in enumerate(values)]


#: (encoding, column type, values of a block of ``rows`` rows)
SHAPES = {
    "PLAIN-int": ("PLAIN", types.INTEGER, _ints),
    "PLAIN-float": ("PLAIN", types.FLOAT, _floats),
    "PLAIN-bool": ("PLAIN", types.BOOLEAN, lambda rows: [index % 3 == 0 for index in range(rows)]),
    "COMPRESSED_PLAIN-float": ("COMPRESSED_PLAIN", types.FLOAT, _floats),
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
