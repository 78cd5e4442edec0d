"""``v_monitor`` through the one engine, against a plain-Python oracle.

On a 3-node database after a scripted load, a mover cycle and a few
SELECTs, grouping, joins (between virtual tables and with a user
table), a window function, DISTINCT and LIMIT over the ``v_monitor``
tables each equal the same computation done here over the collector's
rings (``db.cluster.dc.rows``) or the storage managers.
"""

from collections import defaultdict

import pytest

from repro import Database

pytestmark = pytest.mark.dc

RACKS = {"node00": "r1", "node01": "r1", "node02": "r2"}


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("db")), node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR)")
    db.sql("COPY t FROM STDIN", copy_rows=[f"{i}|{i * 7}|s{i % 5}" for i in range(2000)])
    db.run_tuple_movers()
    db.sql("COPY t FROM STDIN", copy_rows=[f"{i}|{i}|s{i % 3}" for i in range(2000, 2300)])
    for _ in range(2):
        db.sql("SELECT count(*) AS n FROM t")
        db.sql("SELECT s, sum(b) AS x FROM t GROUP BY s")
        db.sql("SELECT a FROM t WHERE a < 10")
    db.sql("CREATE TABLE racks (node_name VARCHAR, rack VARCHAR)")
    db.sql(
        "INSERT INTO racks VALUES "
        + ", ".join(f"('{node}', '{rack}')" for node, rack in RACKS.items())
    )
    return db


def test_requests_grouped_by_statement(db):
    want: dict = defaultdict(lambda: [0, 0.0])
    for record in db.cluster.dc.rows("requests"):
        want[record["kind"]][0] += 1
        want[record["kind"]][1] += record["duration_ms"]
    rows = db.sql(
        "SELECT statement, count(*) AS n, sum(duration_ms) AS total "
        "FROM v_monitor.dc_requests_completed GROUP BY statement"
    )
    assert {row["statement"]: row["n"] for row in rows} == {
        kind: n for kind, (n, _) in want.items()
    }
    for row in rows:
        assert row["total"] == pytest.approx(want[row["statement"]][1])
    assert {"copy", "select", "insert", "createtable"} <= set(want)


def test_profiles_joined_with_requests(db):
    requests = db.cluster.dc.rows("requests")
    want = sorted(
        (profile["record_id"], op.operator_id, request["record_id"])
        for profile in db.cluster.dc.rows("profiles")
        for op in profile["operators"]
        for request in requests
        if request["sql"] == profile["sql"]
    )
    rows = db.sql(
        "SELECT p.query_id, p.operator_id, r.record_id FROM v_monitor.query_profiles p "
        "JOIN v_monitor.dc_requests_completed r ON p.sql = r.sql"
    )
    assert want and sorted(
        (row["query_id"], row["operator_id"], row["record_id"]) for row in rows
    ) == want


def test_tuple_mover_joined_with_node_states(db):
    want = sorted(
        (record["record_id"], record["kind"], db.cluster.nodes[record["node_index"]].name)
        for record in db.cluster.dc.rows("tuple_mover")
    )
    rows = db.sql(
        "SELECT m.record_id, m.kind, s.node_name FROM v_monitor.dc_tuple_mover m "
        "JOIN v_monitor.node_states s ON m.node_index = s.node_index"
    )
    assert want and sorted(
        (row["record_id"], row["kind"], row["node_name"]) for row in rows
    ) == want


def test_a_user_table_joined_with_storage_grouped_by_rack(db):
    want: dict = defaultdict(lambda: [0, 0, 0])
    for node in db.cluster.nodes:
        for name in node.manager.projection_names():
            state = node.manager.storage(name)
            totals = want[RACKS[node.name]]
            totals[0] += 1
            totals[1] += sum(c.row_count for c in state.containers.values())
            totals[2] += state.wos.row_count
    rows = db.sql(
        "SELECT r.rack, count(*) AS copies, sum(p.ros_rows) AS ros, "
        "sum(p.wos_rows) AS wos FROM racks r "
        "JOIN v_monitor.projection_storage p ON r.node_name = p.node_name "
        "GROUP BY r.rack"
    )
    assert {row["rack"]: [row["copies"], row["ros"], row["wos"]] for row in rows} == want


def containers(db):
    """(node, projection, container id, rows) of every ROS container."""
    return [
        (node.name, name, container_id, container.row_count)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
        for container_id, container in node.manager.storage(name).containers.items()
    ]


def test_a_window_distinct_and_limit_over_containers(db):
    listed = containers(db)
    assert listed
    numbered = []
    for node in sorted({c[0] for c in listed}):
        mine = sorted(c for c in listed if c[0] == node)
        numbered += [(c[0], c[1], c[2], i + 1) for i, c in enumerate(mine)]
    rows = db.sql(
        "SELECT node_name, projection_name, container_id, row_number() OVER "
        "(PARTITION BY node_name ORDER BY projection_name, container_id) AS r "
        "FROM v_monitor.storage_containers"
    )
    assert sorted(
        (row["node_name"], row["projection_name"], row["container_id"], row["r"])
        for row in rows
    ) == sorted(numbered)

    rows = db.sql("SELECT DISTINCT projection_name FROM v_monitor.storage_containers")
    assert sorted(row["projection_name"] for row in rows) == sorted({c[1] for c in listed})

    rows = db.sql(
        "SELECT node_name, projection_name, container_id, row_count "
        "FROM v_monitor.storage_containers "
        "ORDER BY row_count DESC, node_name, projection_name, container_id LIMIT 5 OFFSET 1"
    )
    ranked = sorted(listed, key=lambda c: (-c[3], c[0], c[1], c[2]))
    assert [tuple(row.values()) for row in rows] == ranked[1:6]
