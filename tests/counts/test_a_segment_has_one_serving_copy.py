"""Counts, not timings: a segment's serving copy is one decision.

``Cluster.serving_copy`` answers "which live copy serves ring segment
*b* of family *F*, not counting node *n*" (section 5.2), and everything
that reads a segment asks it: ``scan_sources``, the executor's pass,
failover, recovery and scrub repair.  So:

* the product turns a ring segment into a host (``node_for_range``) in
  two places only — placing rows (``Cluster.route_rows``) and choosing
  the copy to read (``Cluster.serving_copy``);
* ``DistributedExecutor._build_scan`` reads the attempt's pass, never
  the membership, and raises no ``DataUnavailableError`` of its own;
* the ``cluster.data_available`` gauge has one writer, the pass;
* on a 3-node database with two tables a one-table lookup makes one
  pass — each family resolved once, each of its segments once (it took
  four family resolutions when the availability check, the shutdown
  check and the scan each resolved on their own);
* a failover retry adds one pass, which the next attempt builds from.
"""

import ast
import inspect
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro import ColumnDef, Database, TableDefinition, hashing, types
from repro.cluster import Cluster
from repro.execution.executor import DistributedExecutor
from repro.faults import FaultPlan
from repro.monitor import METRICS
from repro.workloads import meters

SRC = Path(hashing.__file__).parent
LOOKUP = (
    "SELECT ts, value FROM meter_readings "
    "WHERE metric = 'metric_0003' AND meter = 17"
)
FAMILIES = {"meter_readings_super", "meter_sites_super"}
NODES = 3


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=NODES, k_safety=1)
    db.create_table(meters.meters_table(), sort_order=["metric", "meter", "ts"])
    db.create_table(
        TableDefinition(
            "meter_sites",
            [ColumnDef("site_meter", types.INTEGER), ColumnDef("zone", types.INTEGER)],
        ),
        sort_order=["site_meter"],
    )
    db.load("meter_readings", list(meters.generate(meters.MeterDataSpec(6, 40, 20, seed=7))))
    db.load("meter_sites", [{"site_meter": m, "zone": m % 4} for m in range(40)])
    assert len(db.sql(LOOKUP)) == 20
    return db


@pytest.fixture
def resolutions(monkeypatch):
    """Passes made, and the (family, segment) pairs resolved."""
    calls = Counter()
    serving_copy, resolve_sources = Cluster.serving_copy, Cluster.resolve_sources

    def count_copy(self, family, segment, excluding=None):
        calls[family.primary.name, segment] += 1
        return serving_copy(self, family, segment, excluding)

    def count_pass(self, first=()):
        calls["passes"] += 1
        return resolve_sources(self, first)

    monkeypatch.setattr(Cluster, "serving_copy", count_copy)
    monkeypatch.setattr(Cluster, "resolve_sources", count_pass)
    return calls


def each_segment_once_per_pass(passes):
    return Counter(
        {"passes": passes}
        | {(family, segment): passes for family in FAMILIES for segment in range(NODES)}
    )


def _function_of(tree):
    """node -> the ``Class.method`` / function enclosing it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def _callers(attribute):
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _function_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == attribute:
                found.add((str(path.relative_to(SRC)), owner[node].split(".<")[0]))
    return found


def test_a_ring_segment_becomes_a_host_in_two_places():
    assert _callers("node_for_range") == {
        ("cluster/cluster.py", "Cluster.route_rows"),
        ("cluster/cluster.py", "Cluster.serving_copy"),
    }


def test_build_scan_reads_the_pass_alone():
    tree = ast.parse(textwrap.dedent(inspect.getsource(DistributedExecutor._build_scan)))
    names = {getattr(node, "id", None) for node in ast.walk(tree)}
    attributes = {getattr(node, "attr", None) for node in ast.walk(tree)}
    assert "DataUnavailableError" not in names
    assert "membership" not in attributes
    assert "_sources" in attributes


def test_the_availability_gauge_has_one_writer():
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = _function_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "cluster.data_available":
                writers.add((str(path.relative_to(SRC)), owner[node]))
    assert writers == {("cluster/cluster.py", "Cluster.resolve_sources")}


def test_a_lookup_resolves_each_family_once_per_attempt(db, resolutions):
    assert len(db.sql(LOOKUP)) == 20
    assert resolutions == each_segment_once_per_pass(1)
    assert METRICS.gauge("cluster.data_available") == 1


def test_a_failover_retry_adds_one_pass(db, resolutions):
    retries = METRICS.counter("executor.query_retries")
    with FaultPlan(seed=3).arm("executor.scan", "crash", node=1):
        assert len(db.sql(LOOKUP)) == 20
    assert METRICS.counter("executor.query_retries") == retries + 1
    assert not db.cluster.membership.is_up(1)
    assert resolutions == each_segment_once_per_pass(2)
