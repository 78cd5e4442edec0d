"""Tests for deterministic segmentation hashing: values that compare
equal hash equally, values that do not hash apart."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import RING_SIZE, fnv1a_64, hash_row


class TestFnv:
    def test_known_vector(self):
        # FNV-1a 64-bit of empty input is the offset basis
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_avalanche(self):
        assert fnv1a_64(b"a") != fnv1a_64(b"b")

    @given(st.binary(max_size=64))
    def test_in_range(self, data):
        assert 0 <= fnv1a_64(data) < RING_SIZE


class TestValueHashing:
    def test_stable_across_calls(self):
        assert hash_row(["abc"]) == hash_row(["abc"])
        assert hash_row([1, "x", 2.5]) == hash_row([1, "x", 2.5])

    def test_no_cross_type_collisions_for_common_values(self):
        # 0, 0.0, -0.0 and False are one value; "0", "" and None are not it
        values = [0, "0", "", None, 0.5]
        hashes = {hash_row([v]) for v in values}
        assert len(hashes) == len(values)
        assert {hash_row([v]) for v in (0, 0.0, -0.0, False)} == {hash_row([0])}

    def test_row_boundaries_matter(self):
        assert hash_row(["ab", "c"]) != hash_row(["a", "bc"])

    @given(st.lists(st.one_of(
        st.none(), st.booleans(),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False), st.text(max_size=10),
    ), max_size=5))
    def test_row_hash_in_ring(self, values):
        assert 0 <= hash_row(values) < RING_SIZE


#: NULL, bools, ints, floats (integral ones, -0.0, NaN, beyond int64)
#: and strings: every kind of value a key column holds
SQL_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**63, -(2.0**63), 2.0**62, float("nan")]),
    st.floats(), st.integers(-3, 3).map(float), st.text(max_size=3),
)


class TestRingPositionMemo:
    """``HashSegmentation.ring_positions`` hashes a batch column-wise,
    once per distinct key — and must land every row exactly where
    ``hash_row`` alone puts it."""

    def positions(self, columns, names):
        from repro.projections import HashSegmentation

        return HashSegmentation(names).ring_positions(columns)

    @given(SQL_VALUES, SQL_VALUES)
    def test_equal_values_hash_equally(self, x, y):
        twins = [y]
        if isinstance(x, (int, float)) and math.isfinite(x):
            twins += [int(x), float(x), -x, bool(x)]
        for twin in twins:
            if twin == x and (not isinstance(twin, int) or -(2**63) <= twin < 2**63):
                assert hash_row([twin]) == hash_row([x]), (x, twin)
                assert self.positions({"a": [x, twin]}, ("a",)) == [hash_row([x])] * 2

    def test_the_memo_is_keyed_by_value(self):
        # -0.0 == 0.0 and 1 == True == 1.0 share a Python hash, so a
        # value-keyed memo hands them one position: the one each hashes to
        keys = [0.0, -0.0, 1, True, 1.0, "1", None, 0, False, 0.0, -0.0, 1, 2**63 * 1.0]
        expected = [hash_row([key]) for key in keys]
        assert len(set(expected)) == 5
        assert self.positions({"a": keys}, ("a",)) == expected

    def test_one_column_types(self):
        for keys in (
            [0.0, -0.0, 2.5, float("inf"), -0.0],
            [3, -3, 0, 3, 2**62],
            ["", "a", "a", "metric_0004"],
            [True, False, True],
            [None, None],
            [],
        ):
            assert self.positions({"a": keys}, ("a",)) == [
                hash_row([key]) for key in keys
            ]

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 1.0, None, float("inf")]),
        st.sampled_from([0, 1, True, False, "x", None]),
    ), max_size=30))
    def test_matches_hash_row_row_by_row(self, rows):
        columns = {"a": [a for a, _ in rows], "b": [b for _, b in rows]}
        assert self.positions(columns, ("b", "a")) == [
            hash_row([b, a]) for a, b in rows
        ]

    def test_hashes_once_per_distinct_key(self, monkeypatch):
        from repro import hashing

        calls = []
        real = hashing.fnv1a_64
        monkeypatch.setattr(
            hashing, "fnv1a_64", lambda data: calls.append(data) or real(data)
        )
        keys = [f"metric_{i % 18:04d}" for i in range(5000)]
        positions = self.positions({"a": keys}, ("a",))
        assert len(calls) == 18 and len(set(positions)) == 18


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2(i): ring_range takes the top bits of "
    "FNV-1a, which a key's last bytes barely reach — sequential names "
    "pile onto one ring third; the resegmenting Send now shares the ring, "
    "so its destinations skew the same way",
)
def test_sequential_string_keys_spread_over_three_nodes():
    from collections import Counter

    from repro.projections import HashSegmentation
    from repro.projections.segmentation import ring_range

    scheme = HashSegmentation(("metric",))
    positions = scheme.ring_positions({"metric": [f"metric_{i:04d}" for i in range(1000)]})
    nodes = Counter(ring_range(position, 3) for position in positions)
    # within 2x of even: no node under 1/6 or over 2/3 of the keys
    assert all(1000 / 6 <= nodes[node] <= 2000 / 3 for node in range(3)), nodes
