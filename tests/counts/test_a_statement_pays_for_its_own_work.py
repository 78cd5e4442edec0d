"""Counts, not timings: a short statement pays for its own work.

One dashboard point lookup on a 3-node database,
``SELECT ts, value FROM meter_readings WHERE metric = ... AND meter = ...``,
15 tokens with the ``eof``.  Per statement:

* the lexer builds one ``Token`` per token;
* the parser makes at most three ``peek`` / ``accept`` calls per token
  (the nine-level descent made over 180);
* ``PlannerBase.plan`` copies the logical tree without ``copy.copy``;
* every expression object is rendered to SQL text at most once, though
  the three per-node Scans share one predicate and each profile labels
  it;
* the registry is bumped at most 7 times (each ``METRICS.inc`` or
  ``METRICS.fold`` is one lock round trip), and each counter perflab
  reads moves exactly as much as it did when kernels, scans and block
  pruning each bumped it as they went.
"""

import copy

import pytest

from repro import Database
from repro.execution import expressions as ex
from repro.monitor import METRICS
from repro.sql import lexer, parser
from repro.sql.analyzer import Analyzer
from repro.workloads import meters

LOOKUP = (
    "SELECT ts, value FROM meter_readings "
    "WHERE metric = 'metric_0003' AND meter = 17"
)
TOKENS = 15

#: What the lookup adds to each counter: the totals the per-block,
#: per-container and per-position-range bumps produced on the same data
#: before the counters were folded once per query (ten bumps then).
COUNTER_TOTALS = {
    "executor.kernel_blocks": 2,
    "executor.seek_blocks": 2,
    "executor.seek_window_rows": 120,
    "storage.containers_scanned": 2,
    "storage.containers_pruned": 0,
    "storage.blocks_pruned": 2,
    "queries.executed": 1,
    "dc.records": 2,
}


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("statement") / "db"), node_count=3, k_safety=1
    )
    db.create_table(meters.meters_table(), sort_order=["metric", "meter", "ts"])
    rows = list(meters.generate(meters.MeterDataSpec(6, 40, 120, seed=7)))
    # a container that spans storage blocks, and a small one
    db.load("meter_readings", rows[:24_000], direct_to_ros=True)
    db.load("meter_readings", rows[24_000:], direct_to_ros=True)
    db.analyze_statistics()
    assert len(db.sql(LOOKUP)) == 120
    return db


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def test_one_token_per_token_and_three_helper_calls_per_token(db, monkeypatch):
    tokens, helpers = [], []
    counting(monkeypatch, lexer, "_token", tokens)
    counting(monkeypatch, parser.Parser, "peek", helpers)
    counting(monkeypatch, parser.Parser, "accept", helpers)
    db.sql(LOOKUP)
    assert len(tokens) == TOKENS
    assert len(helpers) <= 3 * TOKENS


def test_planning_copies_nothing_generically(db, monkeypatch):
    logical = Analyzer(db.cluster.catalog).analyze_select(parser.parse(LOOKUP))
    copies = []
    counting(monkeypatch, copy, "copy", copies)
    counting(monkeypatch, copy, "deepcopy", copies)
    db.planner().plan(logical)
    assert copies == []


def test_each_expression_is_rendered_once(db, monkeypatch):
    rendered = []  # the objects themselves: no id is reused while held

    def classes(base):
        for cls in base.__subclasses__():
            yield cls
            yield from classes(cls)

    for cls in set(classes(ex.Expr)):
        if "_render" in cls.__dict__:
            def spy(self, original=cls.__dict__["_render"]):
                rendered.append(self)
                return original(self)

            monkeypatch.setattr(cls, "_render", spy)
    profile = db.sql("EXPLAIN ANALYZE " + LOOKUP)
    # the profile labels the shared predicate on each of the three Scans
    assert profile.count("filter=((metric = 'metric_0003') AND (meter = 17))") == 3
    assert rendered, "the profile renders the predicate"
    assert len({id(expr) for expr in rendered}) == len(rendered)


def test_the_registry_is_bumped_once_per_fold(db, monkeypatch):
    bumps = []
    counting(monkeypatch, METRICS, "inc", bumps)
    counting(monkeypatch, METRICS, "fold", bumps)
    before = METRICS.counters_snapshot()
    db.sql(LOOKUP)
    after = METRICS.counters_snapshot()
    assert len(bumps) <= 7, bumps
    moved = {name: after.get(name, 0) - before.get(name, 0) for name in COUNTER_TOTALS}
    assert moved == COUNTER_TOTALS
