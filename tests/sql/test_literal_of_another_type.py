"""A literal that does not order against its column answers, it does not raise.

``a = '7'`` on an INTEGER column is FALSE for every row, as the kernel
says over the WOS.  The prune bounds a scan derives from it used to
raise ``TypeError`` once the rows were in a container (the container's
min/max compared with ``'7'``), and ``a = 0 AND a = '7'`` raised while
the bounds were still being narrowed.  Such a literal gives no prune
bound: min/max checks, the block index and the sort-prefix window all
answer "may hold", and the kernel answers.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution.expressions import (
    And, ColumnRef, Comparison, Literal, column_range_from_predicate,
)

QUERIES = [
    "SELECT a FROM t WHERE a = '7'",
    "SELECT a FROM t WHERE a = 0 AND a = '7'",
    "SELECT a, b FROM t WHERE a = '7' AND b = 14",
]


@pytest.mark.parametrize("nodes", [1, 3])
def test_the_queries_answer_empty_in_the_wos_and_in_containers(tmp_path, nodes):
    db = Database(str(tmp_path / "db"), node_count=nodes, k_safety=min(nodes - 1, 1))
    db.create_table(
        TableDefinition("t", [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER)]),
        sort_order=["a", "b"],
    )
    db.load("t", [{"a": a, "b": 2 * a} for a in range(20)])
    for query in QUERIES:
        assert db.sql(query) == [], query
    db.run_tuple_movers()
    assert db.cluster.nodes[0].manager.container_count("t_super") > 0
    for query in QUERIES:
        assert db.sql(query) == [], query
    assert db.sql("SELECT a FROM t WHERE a = 7") == [{"a": 7}]


def test_literals_that_do_not_order_give_the_column_no_bound():
    a = ColumnRef("a")
    bounds = column_range_from_predicate(
        And(Comparison("=", a, Literal(0)), Comparison("=", a, Literal("7")),
            Comparison(">", a, Literal(-3)), Comparison("<", ColumnRef("b"), Literal(9)))
    )
    assert bounds == {"b": (None, 9)}
