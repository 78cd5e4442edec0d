"""Tests for the v_monitor storage, lock and epoch tables and the
date-part functions."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import DataUnavailableError, QuorumLossError, UnknownObjectError
from repro.txn import IsolationLevel, LockMode


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": "x"} for i in range(300)])
    return db


class TestSystemViews:
    """Section 7's resource and allocation reporting, as SQL over the
    ``v_monitor`` tables."""

    def test_projections_view(self, db):
        rows = db.sql("SELECT * FROM v_monitor.projection_storage")
        # 3 nodes x 2 copies (primary + buddy)
        assert len(rows) == 6
        assert {row["projection_name"] for row in rows} == {"t_super", "t_super_b1"}
        assert sum(row["wos_rows"] + row["ros_rows"] for row in rows) == 600

    def test_wos_drains_into_view(self, db):
        sql = "SELECT wos_rows, ros_rows FROM v_monitor.projection_storage"
        assert sum(row["wos_rows"] for row in db.sql(sql)) == 600
        db.run_tuple_movers()
        after = db.sql(sql)
        assert sum(row["wos_rows"] for row in after) == 0
        assert sum(row["ros_rows"] for row in after) == 600

    def test_storage_containers_view(self, db):
        db.run_tuple_movers()
        rows = db.sql("SELECT * FROM v_monitor.storage_containers")
        assert rows
        assert all(row["row_count"] > 0 for row in rows)
        assert all(row["min_epoch"] <= row["max_epoch"] for row in rows)
        assert sum(row["row_count"] for row in rows) == 600

    def test_nodes_view_tracks_failure(self, db):
        db.run_tuple_movers()
        states = "SELECT is_up FROM v_monitor.node_states ORDER BY node_index"
        assert all(row["is_up"] for row in db.sql(states))
        db.fail_node(2)
        assert [row["is_up"] for row in db.sql(states)] == [True, True, False]
        lges = db.sql(
            "SELECT lge FROM v_monitor.projection_storage WHERE node_name = 'node00'"
        )
        assert lges and min(row["lge"] for row in lges) > 0

    def test_locks_view(self, db):
        session = db.session()
        session.insert("t", [{"k": 999, "v": "y"}])
        rows = db.sql("SELECT * FROM v_monitor.locks")
        assert rows == [{"object_name": "t", "txn_id": session.txn.txn_id,
                         "mode": LockMode.I.value}]
        session.rollback()
        assert db.sql("SELECT * FROM v_monitor.locks") == []

    def test_epochs_view(self, db):
        (row,) = db.sql("SELECT * FROM v_monitor.epochs")
        assert row["current_epoch"] == row["latest_queryable_epoch"] + 1
        assert row["nodes_down"] is False
        db.fail_node(2)
        assert db.sql("SELECT nodes_down FROM v_monitor.epochs") == [{"nodes_down": True}]

    def test_unknown_view(self, db):
        with pytest.raises(UnknownObjectError):
            db.sql("SELECT * FROM v_monitor.threads")


class TestMonitorIsAScan:
    """A ``v_monitor`` table is a scan leaf of the one plan: what a user
    table answers, it answers, and reading it takes no lock and needs
    no user data to be available."""

    def test_order_by_a_select_list_alias(self, db):
        rows = db.sql(
            "SELECT node_name, wos_rows + ros_rows AS total "
            "FROM v_monitor.projection_storage ORDER BY total DESC, node_name"
        )
        assert len(rows) == 6 and sum(row["total"] for row in rows) == 600
        assert [row["total"] for row in rows] == sorted(
            (row["total"] for row in rows), reverse=True
        )

    def test_a_bare_count(self, db):
        assert db.sql("SELECT count(*) AS n FROM v_monitor.projection_storage") == [
            {"n": 6}
        ]

    def test_explain_names_the_virtual_scan(self, db):
        text = db.sql("EXPLAIN SELECT * FROM v_monitor.epochs")
        assert "Scan v_monitor.epochs [current_epoch" in text

    def test_explain_analyze_renders_a_profile(self, db):
        text = db.sql(
            "EXPLAIN ANALYZE SELECT node_name, count(*) AS n "
            "FROM v_monitor.storage_containers GROUP BY node_name"
        )
        assert text.startswith("Query 0 (")  # a v_monitor read is not recorded
        assert "GroupByHash" in text and "Source" in text

    def test_a_serializable_read_locks_no_virtual_table(self, db):
        session = db.session(IsolationLevel.SERIALIZABLE)
        session.sql("SELECT count(*) AS n FROM t")
        rows = session.sql(
            "SELECT object_name, mode FROM v_monitor.locks WHERE txn_id = "
            f"{session.txn.txn_id}"
        )
        assert rows == [{"object_name": "t", "mode": LockMode.S.value}]
        session.rollback()

    def test_a_monitor_read_answers_during_a_safety_shutdown(self, db):
        db.fail_node(0)
        with pytest.raises(QuorumLossError):
            db.fail_node(1)  # down all the same
        rows = db.sql("SELECT node_name, is_up FROM v_monitor.node_states ORDER BY node_name")
        assert [row["is_up"] for row in rows] == [False, False, True]
        with pytest.raises(DataUnavailableError):
            db.sql("SELECT count(*) AS n FROM t")
        with pytest.raises(DataUnavailableError):
            db.sql(
                "SELECT s.node_name, t.v FROM v_monitor.node_states s "
                "JOIN t ON s.node_index = t.k"
            )


class TestDateParts:
    def test_date_functions_in_sql(self, tmp_path):
        db = Database(str(tmp_path / "d"), node_count=1)
        db.sql("CREATE TABLE ev (d DATE, v INTEGER)")
        db.sql(
            "INSERT INTO ev VALUES (DATE '2012-03-15', 1), "
            "(DATE '2012-04-02', 2), (DATE '2013-03-09', 3)"
        )
        rows = db.sql(
            "SELECT YEAR(d) AS y, MONTH(d) AS m, count(*) AS n "
            "FROM ev GROUP BY YEAR(d), MONTH(d) ORDER BY y, m"
        )
        assert rows == [
            {"y": 2012, "m": 3, "n": 1},
            {"y": 2012, "m": 4, "n": 1},
            {"y": 2013, "m": 3, "n": 1},
        ]

    def test_partition_by_month_year(self, tmp_path):
        # the paper's §3.5 example: PARTITION BY extract month+year
        db = Database(str(tmp_path / "p"), node_count=1)
        db.sql(
            "CREATE TABLE ev (d DATE, v INTEGER) "
            "PARTITION BY YEAR(d) * 100 + MONTH(d)"
        )
        rows = []
        for month, day in ((3, 1), (3, 20), (4, 5), (5, 9)):
            rows.append({"d": f"2012-{month:02d}-{day:02d}", "v": 1})
        db.sql("COPY ev (d, v) FROM STDIN",
               copy_rows=[f"{r['d']}|{r['v']}" for r in rows])
        db.run_tuple_movers()
        keys = set()
        family = db.cluster.catalog.super_projection_for("ev")
        for node in db.cluster.nodes:
            keys.update(node.manager.partition_keys(family.primary.name))
        assert keys == {201203, 201204, 201205}
        # fast bulk drop of one month
        reclaimed = db.cluster.nodes[0].manager.drop_partition(
            family.primary.name, 201203
        )
        assert reclaimed == 2
