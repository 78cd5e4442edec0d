"""End-to-end SQL tests: full statements through Database.sql."""

import pytest

from repro import Database
from repro.errors import SqlAnalysisError


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.sql(
        "CREATE TABLE sales (sale_id INTEGER, cid INTEGER, cust VARCHAR, "
        "sale_date DATE, price FLOAT, PRIMARY KEY (sale_id))"
    )
    db.sql(
        "CREATE TABLE customers (cid INTEGER, name VARCHAR, "
        "region VARCHAR, PRIMARY KEY (cid))"
    )
    for c in range(10):
        db.sql(
            f"INSERT INTO customers VALUES ({c}, 'name{c}', "
            f"'{'north' if c % 2 else 'south'}')"
        )
    rows = [
        {
            "sale_id": i,
            "cid": i % 10,
            "cust": f"name{i % 10}",
            "sale_date": i % 50,
            "price": float(i % 37),
        }
        for i in range(1000)
    ]
    db.sql("COPY sales FROM STDIN", copy_rows=rows)
    db.analyze_statistics()
    return db


class TestSelect:
    def test_count(self, db):
        assert db.sql("SELECT count(*) AS n FROM sales") == [{"n": 1000}]

    def test_where(self, db):
        rows = db.sql("SELECT sale_id FROM sales WHERE price > 35.0")
        assert all(row["sale_id"] % 37 == 36 for row in rows)

    def test_star(self, db):
        rows = db.sql("SELECT * FROM customers WHERE cid = 3")
        assert rows == [{"cid": 3, "name": "name3", "region": "north"}]

    def test_group_by_having_order(self, db):
        rows = db.sql(
            "SELECT cid, count(*) AS n, sum(price) AS total FROM sales "
            "GROUP BY cid HAVING count(*) >= 100 ORDER BY cid"
        )
        assert len(rows) == 10
        assert [row["cid"] for row in rows] == list(range(10))

    def test_expression_select(self, db):
        rows = db.sql(
            "SELECT sale_id, price * 2 AS double_price FROM sales "
            "WHERE sale_id = 10"
        )
        assert rows == [{"sale_id": 10, "double_price": 20.0}]

    def test_join(self, db):
        rows = db.sql(
            "SELECT region, count(*) AS n FROM sales "
            "JOIN customers ON sales.cid = customers.cid "
            "GROUP BY region ORDER BY region"
        )
        assert [row["region"] for row in rows] == ["north", "south"]
        assert sum(row["n"] for row in rows) == 1000

    def test_comma_join_with_where(self, db):
        rows = db.sql(
            "SELECT count(*) AS n FROM sales s, customers c "
            "WHERE s.cid = c.cid AND c.region = 'north'"
        )
        assert rows == [{"n": 500}]

    def test_left_join_preserves(self, db):
        db.sql("DELETE FROM customers WHERE cid = 4")
        rows = db.sql(
            "SELECT count(*) AS n FROM sales "
            "LEFT JOIN customers ON sales.cid = customers.cid "
            "WHERE customers.name IS NULL"
        )
        assert rows == [{"n": 100}]

    def test_order_limit_offset(self, db):
        rows = db.sql(
            "SELECT sale_id FROM sales ORDER BY sale_id DESC LIMIT 3 OFFSET 2"
        )
        assert [row["sale_id"] for row in rows] == [997, 996, 995]

    def test_order_by_what_is_not_selected(self, db):
        rows = db.sql(
            "SELECT cust FROM sales WHERE sale_id < 20 "
            "ORDER BY price * -1, sale_id DESC LIMIT 3"
        )
        assert rows == [{"cust": "name9"}, {"cust": "name8"}, {"cust": "name7"}]
        rows = db.sql(
            "SELECT cid, count(*) AS n FROM sales GROUP BY cid "
            "ORDER BY sum(price) DESC LIMIT 1"
        )
        sums = {c: sum(float(i % 37) for i in range(c, 1000, 10)) for c in range(10)}
        assert rows == [{"cid": max(sums, key=sums.get), "n": 100}]
        with pytest.raises(SqlAnalysisError):
            db.sql("SELECT DISTINCT cid FROM sales ORDER BY price")

    def test_qualified_star_over_shared_names(self, db):
        rows = db.sql(
            "SELECT c.*, s.price FROM customers c JOIN sales s ON c.cid = s.cid "
            "WHERE s.sale_id = 13"
        )
        assert rows == [
            {"c.cid": 3, "name": "name3", "region": "north", "price": 13.0}
        ]

    def test_distinct(self, db):
        rows = db.sql("SELECT DISTINCT cid FROM sales")
        assert sorted(row["cid"] for row in rows) == list(range(10))

    def test_count_distinct(self, db):
        assert db.sql("SELECT count(DISTINCT cid) AS n FROM sales") == [
            {"n": 10}
        ]

    def test_case_when(self, db):
        rows = db.sql(
            "SELECT sale_id, CASE WHEN price > 18 THEN 'high' ELSE 'low' END "
            "AS bucket FROM sales WHERE sale_id IN (1, 20) ORDER BY sale_id"
        )
        assert rows[0]["bucket"] == "low"
        assert rows[1]["bucket"] == "high"

    def test_in_list_takes_negative_constants(self, db):
        rows = db.sql("SELECT sale_id FROM sales WHERE sale_id - 5 IN (-4, -3) ORDER BY sale_id")
        assert [row["sale_id"] for row in rows] == [1, 2]
        with pytest.raises(SqlAnalysisError, match="constants"):
            db.sql("SELECT sale_id FROM sales WHERE sale_id IN (-sale_id)")

    def test_like(self, db):
        rows = db.sql("SELECT count(*) AS n FROM customers WHERE name LIKE 'name_'")
        assert rows == [{"n": 10}]

    def test_between(self, db):
        rows = db.sql(
            "SELECT count(*) AS n FROM sales WHERE sale_id BETWEEN 10 AND 19"
        )
        assert rows == [{"n": 10}]

    def test_window_function(self, db):
        rows = db.sql(
            "SELECT cid, price, ROW_NUMBER() OVER "
            "(PARTITION BY cid ORDER BY price DESC, sale_id) AS rn "
            "FROM sales WHERE sale_id < 30"
        )
        per_cid = {}
        for row in rows:
            per_cid.setdefault(row["cid"], []).append(row["rn"])
        assert all(sorted(v) == list(range(1, len(v) + 1)) for v in per_cid.values())

    def test_at_epoch(self, db):
        db.sql("DELETE FROM sales WHERE sale_id < 500")
        current = db.sql("SELECT count(*) AS n FROM sales")[0]["n"]
        assert current == 500
        historical_epoch = db.latest_epoch - 1
        rows = db.sql(f"AT EPOCH {historical_epoch} SELECT count(*) AS n FROM sales")
        assert rows == [{"n": 1000}]

    def test_group_by_expression(self, db):
        rows = db.sql(
            "SELECT sale_date % 7 AS weekday, count(*) AS n FROM sales "
            "GROUP BY sale_date % 7 ORDER BY weekday"
        )
        assert len(rows) == 7
        assert sum(row["n"] for row in rows) == 1000

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(SqlAnalysisError):
            db.sql("SELECT cid, price FROM sales GROUP BY cid")

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlAnalysisError):
            db.sql("SELECT cid FROM sales, customers")

    def test_explain(self, db):
        text = db.sql(
            "EXPLAIN SELECT region, count(*) FROM sales "
            "JOIN customers ON sales.cid = customers.cid GROUP BY region"
        )
        assert "GroupBy" in text and "Join" in text and "Scan" in text


class TestDml:
    def test_insert_and_update(self, db):
        db.sql("INSERT INTO sales VALUES (5000, 1, 'name1', 3, 9.5)")
        assert db.sql("SELECT count(*) AS n FROM sales")[0]["n"] == 1001
        changed = db.sql("UPDATE sales SET price = 0.0 WHERE sale_id = 5000")
        assert changed == 1
        rows = db.sql("SELECT price FROM sales WHERE sale_id = 5000")
        assert rows == [{"price": 0.0}]

    def test_insert_negative_literals(self, db):
        # regression: "-7" parses as unary minus over 7 and was refused
        # with "INSERT values must be constants".
        db.sql(
            "INSERT INTO sales VALUES (-7, 1, 'name1', 3, -1.5), "
            "(+8001, - 2, 'name2', 3, - -2.25)"
        )
        rows = db.sql(
            "SELECT sale_id, cid, price FROM sales "
            "WHERE sale_id = -7 OR sale_id = 8001 ORDER BY sale_id"
        )
        assert rows == [
            {"sale_id": -7, "cid": 1, "price": -1.5},
            {"sale_id": 8001, "cid": -2, "price": 2.25},
        ]

    @pytest.mark.parametrize(
        "value", ["1 + 2", "-(1 + 2)", "cid", "-cid", "-'x'", "-TRUE", "-NULL"]
    )
    def test_insert_still_rejects_non_constants(self, db, value):
        with pytest.raises(SqlAnalysisError):
            db.sql(f"INSERT INTO sales VALUES (9000, {value}, 'n', 3, 1.0)")
        assert db.sql("SELECT count(*) AS n FROM sales")[0]["n"] == 1000

    def test_delete(self, db):
        db.sql("DELETE FROM sales WHERE cid = 0")
        assert db.sql("SELECT count(*) AS n FROM sales")[0]["n"] == 900

    def test_session_transaction(self, db):
        session = db.session()
        session.sql("INSERT INTO sales VALUES (7000, 1, 'name1', 3, 9.5)")
        # visible inside the session, invisible outside
        inside = session.sql("SELECT count(*) AS n FROM sales WHERE sale_id = 7000")
        assert inside == [{"n": 1}]
        outside = db.sql("SELECT count(*) AS n FROM sales WHERE sale_id = 7000")
        assert outside == [{"n": 0}]
        session.rollback()


class TestCopy:
    def test_copy_rejects_bad_records(self, db):
        result = db.sql(
            "COPY customers (cid, name, region) FROM STDIN",
            copy_rows=[
                "100|alice|west",
                "not_an_int|bob|east",  # rejected
                "101|carol|west",
                "102|dave",  # wrong arity, rejected
            ],
        )
        assert result.loaded == 2
        assert len(result.rejected) == 2
        assert db.sql("SELECT count(*) AS n FROM customers WHERE cid >= 100") == [
            {"n": 2}
        ]


class TestDdl:
    def test_create_projection_via_sql(self, db):
        db.sql(
            "CREATE PROJECTION sales_by_cust (cust ENCODING RLE, price) AS "
            "SELECT cust, price FROM sales ORDER BY cust "
            "SEGMENTED BY HASH(cust) ALL NODES"
        )
        family = db.cluster.catalog.family("sales_by_cust")
        assert family.primary.column("cust").encoding == "RLE"
        # refreshed from existing data: narrow queries can use it
        db.analyze_statistics()
        sql = "SELECT cust, count(*) AS n FROM sales GROUP BY cust"
        assert "Scan sales_by_cust [cust]" in db.sql("EXPLAIN " + sql)
        rows = db.sql(sql)
        assert sorted((row["cust"], row["n"]) for row in rows) == [
            (f"name{c}", 100) for c in range(10)
        ]
        # a column it does not store sends the query back to the super
        explained = db.sql("EXPLAIN SELECT cust, sum(price) AS s FROM sales "
                           "WHERE sale_id < 10 GROUP BY cust")
        assert "Scan sales_super [cust, price] WHERE (sale_id < 10)" in explained

    def test_partitioned_table(self, db):
        db.sql(
            "CREATE TABLE events (ts INTEGER, v FLOAT) "
            "PARTITION BY FLOOR(ts / 100)"
        )
        rows = [{"ts": i, "v": 1.0} for i in range(300)]
        db.sql("COPY events FROM STDIN", copy_rows=rows)
        db.run_tuple_movers()
        family = db.cluster.catalog.super_projection_for("events")
        keys = set()
        for node in db.cluster.nodes:
            keys.update(node.manager.partition_keys(family.primary.name))
        assert keys == {0, 1, 2}

    def test_drop_table(self, db):
        db.sql("CREATE TABLE tiny (x INTEGER)")
        db.sql("DROP TABLE tiny")
        with pytest.raises(Exception):
            db.sql("SELECT * FROM tiny")


class TestWindowAggregates:
    def test_sum_over_partition(self, db):
        rows = db.sql(
            "SELECT cid, price, SUM(price) OVER (PARTITION BY cid) AS total "
            "FROM sales WHERE sale_id < 20"
        )
        by_cid = {}
        for row in rows:
            by_cid.setdefault(row["cid"], set()).add(row["total"])
        # every row of a partition carries the same total
        assert all(len(totals) == 1 for totals in by_cid.values())

    def test_running_sum(self, db):
        rows = db.sql(
            "SELECT sale_id, SUM(price) OVER (ORDER BY sale_id) AS running "
            "FROM sales WHERE sale_id < 5"
        )
        rows.sort(key=lambda r: r["sale_id"])
        runnings = [row["running"] for row in rows]
        assert runnings == sorted(runnings)
        assert runnings[-1] == sum(float(i % 37) for i in range(5))
