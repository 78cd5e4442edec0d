"""Tests for the segmentation ring, buddies and local segments."""

from hypothesis import given
from hypothesis import strategies as st

from storage_helpers import nodes_of

from repro.hashing import RING_SIZE, hash_row
from repro.projections import HashSegmentation, Replicated, buddy_of
from repro.projections.segmentation import ring_positions, ring_range, split_by_range


class TestHashing:
    def test_deterministic(self):
        assert hash_row(["meter_17"]) == hash_row(["meter_17"])
        assert hash_row([1, "a"]) == hash_row([1, "a"])

    def test_order_sensitive(self):
        assert hash_row([1, 23]) != hash_row([12, 3])

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_in_ring(self, value):
        assert 0 <= hash_row([value]) < RING_SIZE

    def test_distinct_types_distinct_hashes(self):
        # values of distinct types that are not equal hash apart ...
        assert hash_row([1]) != hash_row(["1"])
        assert hash_row([None]) != hash_row([0])
        # ... and ones that are equal do not: True == 1 == 1.0
        assert hash_row([True]) == hash_row([1]) == hash_row([1.0])


class TestRingMapping:
    def test_every_position_maps_to_one_node(self):
        scheme = HashSegmentation(("cid",))
        for node_count in (1, 2, 3, 5, 8):
            for position in (0, 1, RING_SIZE // 2, RING_SIZE - 1):
                node = scheme.node_for_range(ring_range(position, node_count), node_count)
                assert 0 <= node < node_count

    def test_ranges_follow_paper_table(self):
        # expr in [i*CMAX/N, (i+1)*CMAX/N) -> node i (before offset).
        scheme = HashSegmentation(("k",))
        node_count = 4
        for i in range(node_count):
            low = i * RING_SIZE // node_count
            high = (i + 1) * RING_SIZE // node_count - 1
            assert scheme.node_for_range(ring_range(low, node_count), node_count) == i
            assert scheme.node_for_range(ring_range(high, node_count), node_count) == i

    @given(st.integers(min_value=0, max_value=10**6))
    def test_rows_spread_consistently(self, key):
        scheme = HashSegmentation(("k",))
        rows = [{"k": key}, {"k": key + 1}, {"k": key}]
        nodes = nodes_of(scheme, rows, 3)
        assert nodes[0] == nodes[2] == nodes_of(scheme, rows[:1], 3)[0]

    def test_distribution_roughly_even(self):
        scheme = HashSegmentation(("k",))
        counts = [0, 0, 0]
        for node in nodes_of(scheme, [{"k": key} for key in range(30000)], 3):
            counts[node] += 1
        assert max(counts) - min(counts) < 2000

    def test_split_by_range_is_the_range_table(self):
        keys = list(range(500)) * 2
        positions = ring_positions([keys], len(keys))
        for count in (1, 3, 4):
            split = split_by_range(positions, count)
            assert sorted(sum(split.values(), [])) == list(range(len(keys)))
            for ring_range, indexes in split.items():
                assert indexes == sorted(indexes)
                assert all(
                    positions[i] * count // RING_SIZE == ring_range for i in indexes
                )


class TestBuddies:
    def test_offset_rotates_assignment(self):
        primary = HashSegmentation(("k",))
        buddy = buddy_of(primary, 1)
        rows = [{"k": key} for key in range(200)]
        assert nodes_of(buddy, rows, 3) == [
            (node + 1) % 3 for node in nodes_of(primary, rows, 3)
        ]
        for segment in range(3):
            host = buddy.node_for_range(segment, 3)
            assert host == (segment + 1) % 3
            assert buddy.range_for_node(host, 3) == segment

    def test_no_corow_colocation(self):
        primary = HashSegmentation(("k",))
        buddy = buddy_of(primary, 1)
        rows = [{"k": key} for key in range(500)]
        assert all(
            mine != theirs
            for mine, theirs in zip(nodes_of(primary, rows, 4), nodes_of(buddy, rows, 4))
        )

    def test_replicated_is_own_buddy(self):
        scheme = Replicated()
        assert buddy_of(scheme, 1) is scheme
        # no rotation: a replicated copy's segment i is served by node i
        assert scheme.offset == 0
        assert [scheme.node_for_range(i, 5) for i in range(5)] == list(range(5))


def local_segments(scheme, keys):
    """Local segment (3 nodes, 3 segments each) of every key."""
    return [
        scheme.local_segment_for_position(position, 3, 3)
        for position in scheme.ring_positions({"k": keys})
    ]


class TestLocalSegments:
    def test_segments_within_range(self):
        scheme = HashSegmentation(("k",))
        assert all(0 <= s < 3 for s in local_segments(scheme, list(range(2000))))

    def test_rows_stay_in_segment_across_calls(self):
        scheme = HashSegmentation(("k",))
        first = local_segments(scheme, [42])
        assert all(local_segments(scheme, [42]) == first for _ in range(5))
        assert local_segments(scheme, [42, 7, 42]) == first + local_segments(
            scheme, [7]
        ) + first

    def test_all_segments_used(self):
        scheme = HashSegmentation(("k",))
        assert set(local_segments(scheme, list(range(5000)))) == {0, 1, 2}
