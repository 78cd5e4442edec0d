"""Seeded property round-trips for every encoding, through the full
column pipeline.

Unlike tests/storage/test_encodings.py (which exercises
``encoding.encode``/``decode`` in isolation), these drive the whole
path a real container uses: ``ColumnWriter`` (blocking + position
index) -> serialized bytes -> ``ColumnReader`` -> decoded values.

Each stream shape the paper's encodings care about is covered — empty,
single run, all-distinct, boundary magnitudes, and seeded random typed
streams — and every serialization is checked byte-for-byte: writing
the same values twice must produce identical bytes, and the decoded
values must equal the originals exactly (types included).

The measured compressed size of every roundtrip is recorded in the
metrics registry (``encoding.compressed_bytes.<NAME>``), which is how
the bench trajectory tracks compression wins per encoding.
"""

import random

import pytest

from repro import types
from repro.monitor import METRICS
from repro.storage.column_file import ColumnReader, ColumnWriter

SEED = 20260806
#: Small blocks so a few thousand values span many blocks.
BLOCK = 256

INT_BOUND = 2**62


def _ints(rng, count):
    return [rng.randint(-INT_BOUND, INT_BOUND) for _ in range(count)]


def _floats(rng, count):
    return [rng.uniform(-1e9, 1e9) for _ in range(count)]


def _texts(rng, count):
    alphabet = "abcdefghijklmnop"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        for _ in range(count)
    ]


def _with_nulls(rng, values):
    return [None if rng.random() < 0.05 else value for value in values]


def _low_cardinality(rng, count):
    domain = ["AAPL", "GOOG", "HP", "VERT", None]
    return [rng.choice(domain) for _ in range(count)]


def _periodic_ints(rng, count):
    current = rng.randint(0, 10**9)
    out = []
    for index in range(count):
        current += 86400 if index % 500 == 499 else 300
        out.append(current)
    return out


# (encoding, dtype, stream builder) — every registered encoding appears
# with streams it supports; AUTO exercises the chooser itself.
CASES = [
    ("PLAIN", types.INTEGER, _ints),
    ("PLAIN", types.VARCHAR, lambda rng, n: _with_nulls(rng, _texts(rng, n))),
    ("COMPRESSED_PLAIN", types.VARCHAR, _texts),
    ("RLE", types.VARCHAR, _low_cardinality),
    ("RLE", types.INTEGER, lambda rng, n: sorted(rng.choices(range(8), k=n))),
    ("DELTAVAL", types.INTEGER, _ints),
    ("BLOCK_DICT", types.VARCHAR, _low_cardinality),
    ("BLOCK_DICT", types.FLOAT, lambda rng, n: [rng.choice([10.25, 10.5, 10.75]) for _ in range(n)]),
    ("RLE", types.FLOAT, lambda rng, n: sorted(rng.choices([-1.5, -0.0, 0.0, 2.5], k=n))),
    ("AUTO", types.FLOAT, lambda rng, n: rng.choices([-0.0, 0.0], weights=[1, 9], k=n)),
    ("DELTARANGE_COMP", types.INTEGER, lambda rng, n: sorted(_ints(rng, n))),
    ("DELTARANGE_COMP", types.FLOAT, _floats),
    ("COMMONDELTA_COMP", types.INTEGER, _periodic_ints),
    ("AUTO", types.INTEGER, _ints),
    ("AUTO", types.VARCHAR, _low_cardinality),
]

BOUNDARY_STREAMS = {
    types.INTEGER: [0, 1, -1, INT_BOUND, -INT_BOUND, INT_BOUND - 1, 2, -2],
    types.FLOAT: [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 2.5, -2.5],
    types.VARCHAR: ["", "a", "a" * 200, "zz", "\t|\n", "0", "a", ""],
}


def _roundtrip(encoding_name, dtype, values):
    """Write values, reread them, and return (decoded, data, index)."""
    writer = ColumnWriter(dtype, encoding_name, block_rows=BLOCK)
    writer.extend(values)
    data, index = writer.finish()
    reader = ColumnReader(data, index)
    return reader.read_all(), data, index


def _check(encoding_name, dtype, values):
    decoded, data, index = _roundtrip(encoding_name, dtype, values)
    # equality is not enough: 1 == 1.0 and -0.0 == 0.0, so compare what
    # the values are, not what they equal.
    assert list(map(repr, decoded)) == list(map(repr, values))
    # determinism, byte-for-byte: the same stream serializes identically.
    decoded2, data2, index2 = _roundtrip(encoding_name, dtype, values)
    assert (data2, index2) == (data, index)
    assert list(map(repr, decoded2)) == list(map(repr, values))
    METRICS.observe(f"encoding.compressed_bytes.{encoding_name}", len(data))
    histogram = METRICS.histogram(f"encoding.compressed_bytes.{encoding_name}")
    assert histogram is not None and histogram.count >= 1


@pytest.mark.parametrize(
    "encoding_name,dtype,build",
    CASES,
    ids=[f"{name}-{dtype.name}" for name, dtype, build in CASES],
)
class TestEncodingPipelineRoundtrip:
    def test_random_stream(self, encoding_name, dtype, build):
        rng = random.Random(SEED)
        _check(encoding_name, dtype, build(rng, 3000))

    def test_empty_stream(self, encoding_name, dtype, build):
        _check(encoding_name, dtype, [])

    def test_single_run(self, encoding_name, dtype, build):
        rng = random.Random(SEED + 1)
        value = next(v for v in build(rng, 50) if v is not None)
        _check(encoding_name, dtype, [value] * (BLOCK * 2 + 17))

    def test_all_distinct(self, encoding_name, dtype, build):
        rng = random.Random(SEED + 2)
        seen: dict = {}
        for value in build(rng, 8000):
            if value is not None:
                seen.setdefault(repr(value), value)
        distinct = list(seen.values())[: BLOCK + 50]
        if encoding_name == "BLOCK_DICT":
            # the dictionary encoder only claims low-cardinality blocks;
            # keep the distinct run within one block's dictionary limit.
            distinct = distinct[:40]
        _check(encoding_name, dtype, distinct)

    def test_boundary_magnitudes(self, encoding_name, dtype, build):
        _check(encoding_name, dtype, list(BOUNDARY_STREAMS[dtype]))

    def test_different_seeds_differ(self, encoding_name, dtype, build):
        # the generators really are seed-driven: two seeds, two streams.
        a = build(random.Random(1), 200)
        b = build(random.Random(2), 200)
        assert len(a) == len(b) == 200
        if encoding_name not in ("RLE", "BLOCK_DICT"):
            assert list(map(repr, a)) != list(map(repr, b))


def test_sizes_recorded_for_every_encoding():
    """After a sweep, the registry holds a size histogram per encoding."""
    rng = random.Random(SEED + 3)
    for encoding_name, dtype, build in CASES:
        _check(encoding_name, dtype, build(rng, 500))
    snapshot = METRICS.snapshot()
    for encoding_name, _, _ in CASES:
        key = f"encoding.compressed_bytes.{encoding_name}"
        assert key in snapshot["histograms"]
        assert snapshot["histograms"][key]["count"] >= 1
