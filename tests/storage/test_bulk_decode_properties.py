"""Bulk decode against the value-at-a-time one.

Every block decoder works a whole block at a time: varints padded into
lanes of one big integer, bit-packed codes through per-byte tables or a
lane spread, PLAIN records of one fixed-width tag (and integers) read
as a block, the NULL bitmap expanded as the binary digits of one integer.
``tests/reference_decoder.py`` holds the decoders they replaced, and
this module holds the two to one answer: for every encoding, with and
without NULLs, a block decodes to the same values of the same types
(every NaN a NaN), or both raise :class:`EncodingError`.  RLE's runs and
BLOCK_DICT's ``(entries, codes)`` — what the execution kernels read —
are held to the reference the same way.

Blocks come from a drawn *shape* rather than value by value: varint
edges (127/128, 2**14, 2**63, 2**64 and beyond), integers beyond 2**64,
floats of both signs with ±0.0, ±inf, NaN and subnormals — full-range
doubles whose deltas wrap modulo 2**64 in 8-byte lanes — non-ASCII,
empty, all-empty and 1 KB strings, booleans, dictionaries of 1 to
4,096 entries (code widths 0 to 12), sorted or not, blocks of 1 to
8,192 rows, and payloads cut short anywhere.

Two planted mutations fail the property: the sign fix dropped for
negative float patterns, and every lane mask one byte off.

``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.
"""

import os
import random
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import reference_decoder
from repro import types
from repro.errors import EncodingError
from repro.storage import serde
from repro.storage.block import decode_block, encode_block
from repro.storage.encodings import ENCODINGS, delta_range

KINDS = ("int", "huge", "float", "str", "blank", "bool", "codes")
DTYPES = {
    "int": types.INTEGER, "huge": types.INTEGER, "float": types.FLOAT,
    "str": types.VARCHAR, "blank": types.VARCHAR, "bool": types.BOOLEAN,
    "codes": types.INTEGER,
}
INT_EDGES = [
    0, 1, -1, 63, -64, 127, 128, -128, 2**14 - 1, 2**14, -(2**14), 2**21,
    2**49 - 1, 2**56, 2**63 - 1, 2**63, -(2**63), 2**64 - 1, 2**64, -(2**64),
]
FLOAT_EDGES = [
    0.0, -0.0, float("inf"), float("-inf"), 5e-324, -5e-324, 2.2250738585072014e-308,
    -1.5, 1.5, 1e300, -1e300,
]
WORDS = ["", "a", "zürich", "東京", "metric_0004", "x" * 130, "\t|\n", "é" * 70, "k" * 1024]
SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 4095, 4096, 8192]


@dataclass(frozen=True)
class Shape:
    """What a block looks like; the values follow from it."""

    seed: int
    kind: str
    rows: int
    #: bits of an integer's magnitude; a float's exponent spread
    spread: int
    sorted: bool
    null_rate: float
    #: the encoding's name, or which of those that apply (by index, modulo)
    encoding: int | str
    #: a cut short payload keeps this share of its bytes (None: whole)
    cut: float | None


def make_values(shape: Shape) -> list:
    rng = random.Random(shape.seed)
    rows, kind = shape.rows, shape.kind
    if kind == "int":
        values = [
            rng.choice(INT_EDGES) if rng.random() < 0.2
            else rng.randrange(-(2 ** shape.spread), 2 ** shape.spread)
            for _ in range(rows)
        ]
    elif kind == "huge":
        values = [rng.randrange(2**64, 2**90) * rng.choice((1, -1)) for _ in range(rows)]
    elif kind == "float":
        values = [
            rng.choice(FLOAT_EDGES) if rng.random() < 0.1
            else float("nan") if rng.random() < 0.05  # each NaN its own object
            else rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randrange(-shape.spread, shape.spread + 1)
            for _ in range(rows)
        ]
    elif kind == "str":
        values = [rng.choice(WORDS) + str(rng.randrange(shape.spread + 1)) for _ in range(rows)]
    elif kind == "blank":  # empty strings, and an ASCII word among them when spread is odd
        values = ["" if shape.spread % 2 == 0 or rng.random() < 0.8 else "w" for _ in range(rows)]
    elif kind == "bool":
        values = [rng.random() < 0.5 for _ in range(rows)]
    else:  # a dictionary of 1 << (spread % 13) entries at most
        entries = [rng.randrange(-(10**6), 10**6) for _ in range(1 << shape.spread % 13)]
        values = [rng.choice(entries) for _ in range(rows)]
    if shape.sorted and kind != "float":
        values.sort()
    return [None if rng.random() < shape.null_rate else value for value in values]


def applicable(shape: Shape, values: list) -> list[str]:
    non_nulls = [value for value in values if value is not None]
    dtype = DTYPES[shape.kind]
    return [
        name for name, encoding in sorted(ENCODINGS.items())
        if encoding.supports(dtype, non_nulls)
    ]


def outcome(decode, *args):
    """What a decode gives: its values as ``(type, repr)`` pairs, or the
    :class:`EncodingError` it raised (any other exception escapes)."""
    try:
        result = decode(*args)
    except EncodingError:
        return EncodingError
    if isinstance(result, tuple):  # BLOCK_DICT's (entries, codes)
        return tuple(outcome(lambda: part) for part in result)
    return [(type(value), repr(value)) for value in result]


def check_block(shape: Shape) -> None:
    values = make_values(shape)
    name = shape.encoding
    if isinstance(name, int):
        names = applicable(shape, values)
        name = names[name % len(names)]
    payload, info = encode_block(values, DTYPES[shape.kind], ENCODINGS[name], 0, 0)
    if shape.cut is not None:
        payload = payload[: int(len(payload) * shape.cut)]
    got = outcome(decode_block, payload, info)
    expected = outcome(reference_decoder.decode_block, payload, info)
    assert got == expected, f"{name} decode differs from the reference on {shape}"
    if info.null_count == 0 and name == "RLE":
        got = outcome(lambda: list(ENCODINGS[name].iter_runs(payload, info.row_count)))
        expected = outcome(reference_decoder.runs, payload, info.row_count)
        assert got == expected, f"RLE runs differ from the reference on {shape}"
    if info.null_count == 0 and name == "BLOCK_DICT":
        got = outcome(ENCODINGS[name].decode_parts, payload, info.row_count)
        expected = outcome(reference_decoder.parts, payload, info.row_count)
        assert got == expected, f"BLOCK_DICT parts differ from the reference on {shape}"


shapes = st.builds(
    Shape,
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(KINDS),
    rows=st.one_of(st.sampled_from(SIZES), st.integers(1, 8192)),
    spread=st.sampled_from([1, 6, 7, 8, 13, 14, 20, 28, 49, 56, 62, 63, 64, 70]),
    sorted=st.booleans(),
    null_rate=st.sampled_from([0.0, 0.0, 0.1, 0.9]),
    encoding=st.integers(0, 7),
    cut=st.one_of(st.none(), st.none(), st.floats(0.0, 0.999)),
)

#: Blocks every run checks, whatever is drawn; each planted mutation
#: fails on one of them.
CORPUS = [
    Shape(1, "float", 4096, 8, False, 0.0, "DELTARANGE_COMP", None),
    Shape(2, "float", 300, 3, True, 0.1, "DELTARANGE_COMP", None),
    Shape(3, "int", 8192, 63, False, 0.0, "DELTARANGE_COMP", None),
    Shape(4, "int", 1000, 14, True, 0.0, "DELTAVAL", None),
    Shape(5, "codes", 2000, 5, False, 0.0, "BLOCK_DICT", None),  # width 5
    Shape(6, "codes", 2000, 12, False, 0.2, "BLOCK_DICT", None),  # width 12
    Shape(7, "codes", 50, 0, False, 0.0, "BLOCK_DICT", None),  # one entry: width 0
    Shape(8, "huge", 500, 0, True, 0.0, "DELTAVAL", None),
    Shape(9, "str", 700, 40, False, 0.3, "PLAIN", None),
    Shape(10, "bool", 129, 0, False, 0.5, "COMPRESSED_PLAIN", None),
    Shape(11, "int", 3000, 20, True, 0.0, "RLE", None),
    Shape(12, "codes", 8192, 3, True, 0.0, "COMMONDELTA_COMP", None),
    Shape(13, "float", 700, 300, False, 0.0, "PLAIN", None),
    Shape(14, "int", 5000, 49, False, 0.1, "AUTO", None),
    Shape(15, "float", 8192, 300, False, 0.0, "DELTARANGE_COMP", 0.5),  # cut short
    Shape(16, "float", 1, 300, False, 0.0, "DELTARANGE_COMP", None),  # one row
    Shape(17, "str", 900, 6, False, 0.0, "COMPRESSED_PLAIN", None),
    Shape(18, "blank", 300, 0, False, 0.0, "RLE", None),  # every string empty
    Shape(19, "str", 3000, 2, True, 0.0, "RLE", None),
    Shape(20, "str", 4000, 30, False, 0.1, "BLOCK_DICT", None),
]

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_bulk_decode_matches_the_value_at_a_time_decoders(seed_index):
    for shape in CORPUS:
        check_block(shape)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(shapes)
    def run(shape):
        check_block(shape)

    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


# -- planted mutations --------------------------------------------------------


def mutate_sign_fix_dropped(monkeypatch):
    """A negative float's pattern is its ordered int: no bits flipped."""
    monkeypatch.setattr(delta_range, "_flip_negatives", lambda lanes, count: lanes)


def mutate_lanes_one_byte_off(monkeypatch):
    """Every mask over the varint lanes starts one byte late."""
    lane_mask = serde.lane_mask
    monkeypatch.setattr(
        serde, "lane_mask", lambda pattern, size: lane_mask(pattern[-1:] + pattern[:-1], size)
    )


@pytest.mark.parametrize("mutate", [mutate_sign_fix_dropped, mutate_lanes_one_byte_off])
def test_planted_mutation_fails_the_property(mutate, monkeypatch):
    for shape in CORPUS:
        check_block(shape)
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match="differs"):
        for shape in CORPUS:
            check_block(shape)
