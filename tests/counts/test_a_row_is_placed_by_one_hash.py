"""Counts, not timings: a row's place is one hash of its key.

The storage ring, the resegmenting Send and StorageUnion route a batch
through one router (``projections/segmentation.py``): the key's ring
position, hashed once per distinct key of the whole stream, then one
split of positions into ring ranges.  5,000 rows over 18 distinct keys
— half of them written as the ``int``, half as the ``float`` it equals,
in blocks of 256 — cost 18 FNV-1a hashes in a Send and in a StorageUnion,
and every row of one key lands in one place.  Nothing outside the
segmentation module and the hash itself calls ``hash_row`` or turns a
segmentation offset into a node.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro import hashing
from repro.execution import ColumnRef
from repro.execution.operators import (
    Exchange,
    RowSource,
    SendOperator,
    StorageUnionOperator,
)

ROWS = 5_000
DISTINCT = 18
SRC = Path(hashing.__file__).parent
PLACEMENT = {SRC / "hashing.py", SRC / "projections" / "segmentation.py"}


def rows(first=0, count=ROWS):
    return [
        {"id": i, "k": i % DISTINCT if i % 2 else float(i % DISTINCT)}
        for i in range(first, first + count)
    ]


@pytest.fixture
def hashes(monkeypatch):
    """How many times ``hashing.fnv1a_64`` ran."""
    calls = Counter()
    real = hashing.fnv1a_64

    def counting(data):
        calls["fnv1a_64"] += 1
        return real(data)

    monkeypatch.setattr(hashing, "fnv1a_64", counting)
    return calls


def placed_once(blocks_by_place) -> dict:
    """key -> the one place its rows went; fails if any key went to two."""
    place_of = {}
    for place, blocks in blocks_by_place.items():
        for block in blocks:
            for key in block.column("k"):
                assert place_of.setdefault(key, place) == place, key
    return place_of


def test_a_resegmenting_send_hashes_once_per_distinct_key(hashes):
    exchange = Exchange(3)
    source = RowSource(rows(), ["id", "k"], block_rows=256)
    SendOperator(source, exchange, segment_exprs=[ColumnRef("k")]).run()
    assert hashes["fnv1a_64"] == DISTINCT
    channels = {destination: exchange.drain(destination) for destination in range(3)}
    assert sum(block.row_count for blocks in channels.values() for block in blocks) == ROWS
    assert len(placed_once(channels)) == DISTINCT


def test_a_storage_union_hashes_once_per_distinct_key(hashes):
    sources = [
        RowSource(rows(0, ROWS // 2), ["id", "k"], block_rows=256),
        RowSource(rows(ROWS // 2, ROWS // 2), ["id", "k"], block_rows=256),
    ]
    union = StorageUnionOperator(sources, resegment_exprs=[ColumnRef("k")], fanout=3)
    pipes = {pipe: list(union.pipeline_source(pipe).blocks()) for pipe in range(3)}
    assert hashes["fnv1a_64"] == DISTINCT
    assert sum(block.row_count for blocks in pipes.values() for block in blocks) == ROWS
    assert len(placed_once(pipes)) == DISTINCT


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _mentions_offset(node) -> bool:
    return any(
        (isinstance(n, ast.Attribute) and n.attr == "offset")
        or (isinstance(n, ast.Name) and n.id.endswith("offset"))
        or (isinstance(n, ast.Constant) and n.value == "offset")
        for n in ast.walk(node)
    )


def test_placement_lives_in_the_segmentation_module():
    hash_row_users, offset_arithmetic = set(), []
    for path, tree in _modules():
        for node in ast.walk(tree):
            named = {getattr(node, field, None) for field in ("id", "name", "attr")}
            if "hash_row" in named:  # a Name, an import, an attribute, the def
                hash_row_users.add(path)
            if path in PLACEMENT:
                continue
            modulo = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            getattr_call = isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr"
            if (modulo or getattr_call) and _mentions_offset(node):
                offset_arithmetic.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert hash_row_users == PLACEMENT
    assert offset_arithmetic == []
