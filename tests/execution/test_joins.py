"""Tests for hash join, merge join, all join flavors, SIP and the
runtime hash->merge switch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import (
    ColumnRef,
    HashJoinOperator,
    JoinType,
    MergeJoinOperator,
    RowSource,
    ScanOperator,
    SortKey,
    SortOperator,
    blocks_to_rows,
)

C = ColumnRef


def source(rows, columns, block_rows=16):
    return RowSource(rows, columns, block_rows=block_rows)


def facts():
    return [
        {"f_id": 1, "f_dim": 10},
        {"f_id": 2, "f_dim": 20},
        {"f_id": 3, "f_dim": 20},
        {"f_id": 4, "f_dim": 99},   # no matching dimension
        {"f_id": 5, "f_dim": None},  # NULL key never matches
    ]


def dims():
    return [
        {"d_id": 10, "d_name": "ten"},
        {"d_id": 20, "d_name": "twenty"},
        {"d_id": 30, "d_name": "thirty"},  # no matching fact
    ]


def hash_join(join_type, left=None, right=None, **kwargs):
    return HashJoinOperator(
        source(facts() if left is None else left, ["f_id", "f_dim"]),
        source(dims() if right is None else right, ["d_id", "d_name"]),
        [C("f_dim")],
        [C("d_id")],
        join_type,
        left_columns=["f_id", "f_dim"],
        right_columns=["d_id", "d_name"],
        **kwargs,
    )


def merge_join(join_type, left=None, right=None):
    left_rows = sorted(facts() if left is None else left, key=lambda r: (r["f_dim"] is not None, r["f_dim"] or 0))
    right_rows = sorted(dims() if right is None else right, key=lambda r: r["d_id"])
    return MergeJoinOperator(
        source(left_rows, ["f_id", "f_dim"]),
        source(right_rows, ["d_id", "d_name"]),
        [C("f_dim")],
        [C("d_id")],
        join_type,
        left_columns=["f_id", "f_dim"],
        right_columns=["d_id", "d_name"],
    )


EXPECTED_INNER_IDS = [1, 2, 3]


class TestHashJoinFlavors:
    def test_inner(self):
        out = blocks_to_rows(hash_join(JoinType.INNER).blocks())
        assert sorted(row["f_id"] for row in out) == EXPECTED_INNER_IDS
        assert all("d_name" in row for row in out)

    def test_left(self):
        out = blocks_to_rows(hash_join(JoinType.LEFT).blocks())
        assert sorted(row["f_id"] for row in out) == [1, 2, 3, 4, 5]
        unmatched = [row for row in out if row["f_id"] in (4, 5)]
        assert all(row["d_name"] is None for row in unmatched)

    def test_right(self):
        out = blocks_to_rows(hash_join(JoinType.RIGHT).blocks())
        assert sorted(row["d_id"] for row in out) == [10, 20, 20, 30]
        thirty = [row for row in out if row["d_id"] == 30]
        assert thirty[0]["f_id"] is None

    def test_full(self):
        out = blocks_to_rows(hash_join(JoinType.FULL).blocks())
        assert len(out) == 6  # 3 matches + facts 4,5 + dim 30

    def test_semi(self):
        out = blocks_to_rows(hash_join(JoinType.SEMI).blocks())
        assert sorted(row["f_id"] for row in out) == EXPECTED_INNER_IDS
        assert all(set(row) == {"f_id", "f_dim"} for row in out)

    def test_anti(self):
        out = blocks_to_rows(hash_join(JoinType.ANTI).blocks())
        assert sorted(row["f_id"] for row in out) == [4, 5]

    def test_duplicate_build_keys_multiply(self):
        right = [{"d_id": 10, "d_name": "a"}, {"d_id": 10, "d_name": "b"}]
        left = [{"f_id": 1, "f_dim": 10}]
        out = blocks_to_rows(hash_join(JoinType.INNER, left=left, right=right).blocks())
        assert len(out) == 2

    def test_column_collision_detected(self):
        from repro.errors import ExecutionError

        join = HashJoinOperator(
            source([{"a": 1}], ["a"]),
            source([{"a": 1}], ["a"]),
            [C("a")], [C("a")], JoinType.INNER,
            left_columns=["a"], right_columns=["a"],
        )
        with pytest.raises(ExecutionError):
            blocks_to_rows(join.blocks())


class TestMergeJoinFlavors:
    @pytest.mark.parametrize(
        "join_type",
        [JoinType.INNER, JoinType.LEFT, JoinType.RIGHT, JoinType.FULL,
         JoinType.SEMI, JoinType.ANTI],
    )
    def test_merge_matches_hash(self, join_type):
        hash_out = blocks_to_rows(hash_join(join_type).blocks())
        merge_out = blocks_to_rows(merge_join(join_type).blocks())
        key = lambda row: tuple(
            (value is None, value) for value in sorted(
                ((k, v) for k, v in row.items()), key=lambda kv: kv[0]
            )
        )
        normalize = lambda rows: sorted(
            (tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)
        )
        assert normalize(hash_out) == normalize(merge_out)

    def test_merge_duplicates_cross_product(self):
        left = [{"f_id": i, "f_dim": 10} for i in range(3)]
        right = [{"d_id": 10, "d_name": f"n{i}"} for i in range(2)]
        out = blocks_to_rows(merge_join(JoinType.INNER, left=left, right=right).blocks())
        assert len(out) == 6


class TestRuntimeSwitch:
    def test_hash_join_switches_to_merge(self):
        left = [{"f_id": i, "f_dim": i % 50} for i in range(500)]
        right = [{"d_id": i, "d_name": str(i)} for i in range(200)]
        join = hash_join(JoinType.INNER, left=left, right=right, max_build_rows=50)
        out = blocks_to_rows(join.blocks())
        assert join.switched_to_merge
        # correctness identical to unconstrained hash join
        reference = blocks_to_rows(hash_join(JoinType.INNER, left=left, right=right).blocks())
        normalize = lambda rows: sorted(
            tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows
        )
        assert normalize(out) == normalize(reference)

    def test_switch_counts_as_spill(self):
        from repro.execution import ResourcePool, WorkloadPolicy

        pool = ResourcePool(WorkloadPolicy(query_memory_rows=10))
        left = [{"f_id": i, "f_dim": i} for i in range(100)]
        right = [{"d_id": i, "d_name": str(i)} for i in range(100)]
        join = hash_join(JoinType.INNER, left=left, right=right, pool=pool)
        blocks_to_rows(join.blocks())
        assert pool.spills >= 1


class TestSip:
    def _storage(self, tmp_path):
        from repro import types
        from repro.core.schema import ColumnDef, TableDefinition
        from repro.projections import super_projection
        from repro.storage import StorageManager

        table = TableDefinition(
            "f", [ColumnDef("f_id", types.INTEGER), ColumnDef("f_dim", types.INTEGER)]
        )
        projection = super_projection(table, sort_order=["f_id"])
        manager = StorageManager(str(tmp_path / "n"))
        manager.register_projection(projection, table)
        rows = [{"f_id": i, "f_dim": i % 100} for i in range(1000)]
        manager.insert("f_super", rows, epoch=1, direct_to_ros=True)
        return manager

    def test_sip_filters_scan_output(self, tmp_path):
        manager = self._storage(tmp_path)
        scan = ScanOperator(manager, "f_super", 1, ["f_id", "f_dim"])
        dims_rows = [{"d_id": i, "d_name": str(i)} for i in range(5)]
        join = HashJoinOperator(
            scan,
            source(dims_rows, ["d_id", "d_name"]),
            [C("f_dim")],
            [C("d_id")],
            JoinType.INNER,
            left_columns=["f_id", "f_dim"],
            right_columns=["d_id", "d_name"],
        )
        sip = join.make_sip_filter([C("f_dim")])
        scan.sip_filters.append(sip)
        out = blocks_to_rows(join.blocks())
        assert len(out) == 50  # 5 of 100 dims match, 10 facts each
        assert sip.rows_filtered == 950
        # the join saw only pre-filtered rows
        assert scan.rows_produced == 50

    def test_sip_without_publication_is_noop(self, tmp_path):
        manager = self._storage(tmp_path)
        scan = ScanOperator(manager, "f_super", 1, ["f_id", "f_dim"])
        from repro.execution import SipFilter

        scan.sip_filters.append(SipFilter(key_exprs=[C("f_dim")]))
        assert len(blocks_to_rows(scan.blocks())) == 1000


class TestJoinProperties:
    @given(
        left_keys=st.lists(st.integers(min_value=0, max_value=20), max_size=30),
        right_keys=st.lists(st.integers(min_value=0, max_value=20), max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_inner_join_count_matches_bruteforce(self, left_keys, right_keys):
        left = [{"f_id": i, "f_dim": k} for i, k in enumerate(left_keys)]
        right = [{"d_id": k, "d_name": str(i)} for i, k in enumerate(right_keys)]
        out = blocks_to_rows(hash_join(JoinType.INNER, left=left, right=right).blocks())
        expected = sum(
            1 for lk in left_keys for rk in right_keys if lk == rk
        )
        assert len(out) == expected

    @given(
        left_keys=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=10)), max_size=25
        ),
        right_keys=st.lists(st.integers(min_value=0, max_value=10), max_size=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_left_join_preserves_every_left_row(self, left_keys, right_keys):
        left = [{"f_id": i, "f_dim": k} for i, k in enumerate(left_keys)]
        right = [{"d_id": k, "d_name": str(i)} for i, k in enumerate(right_keys)]
        out = blocks_to_rows(hash_join(JoinType.LEFT, left=left, right=right).blocks())
        from collections import Counter

        per_left = Counter(row["f_id"] for row in out)
        for i, key in enumerate(left_keys):
            matches = sum(1 for rk in right_keys if key is not None and rk == key)
            assert per_left[i] == max(matches, 1)

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=8), max_size=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_semi_plus_anti_partition_left(self, keys):
        left = [{"f_id": i, "f_dim": k} for i, k in enumerate(keys)]
        right = [{"d_id": k, "d_name": ""} for k in range(0, 9, 2)]
        semi = blocks_to_rows(hash_join(JoinType.SEMI, left=left, right=right).blocks())
        anti = blocks_to_rows(hash_join(JoinType.ANTI, left=left, right=right).blocks())
        assert len(semi) + len(anti) == len(left)
        assert {row["f_id"] for row in semi}.isdisjoint(
            row["f_id"] for row in anti
        )
