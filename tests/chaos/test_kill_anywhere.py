"""Kill-anywhere crash-restart sweep over the durability fault points.

For every seed x (fault point, action) pair, a fixed workload runs
against a durable database with a fault armed at a seeded offset.  The
process "dies" (or silently corrupts a journal file) mid-workload, the
database is reopened from disk, and the recovered state is checked
against oracle snapshots taken after every op of a fault-free run —
each table's rows *and* the visible rows of every projection copy on
every node, so a commit cut between journal and apply is checked
against the copies replay rebuilds, not only the super projection:

* a plain **crash** (and a **torn** staging file, which never
  publishes) must recover to the state just before or just after the
  interrupted op — the journal record either published or it didn't;
* a **torn**/**bitflip** on a *published* segment can damage any
  record of the active segment, so recovery lands on *some* exact
  op-prefix of the history — never a corrupted hybrid.  If the damage
  reaches back past the genesis record (and no checkpoint exists yet),
  cold start must refuse loudly rather than serve a guess.

Seeds come from ``REPRO_CRASH_SEEDS`` (comma-separated), so the
check-script can add a per-commit seed on top of the fixed ones.
"""

import os
import zlib

import pytest

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import DurabilityError, InjectedFaultError
from repro.execution import ColumnRef
from repro.execution.executor import DistributedExecutor
from repro.execution.operators.join import JoinType
from repro.faults import REGISTRY, FaultPlan
from repro.optimizer import JoinNode, PhysJoin, ScanNode
from repro.optimizer import physical as P
from repro.projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
)
from storage_helpers import read_table

pytestmark = pytest.mark.chaos


def crash_seeds(default=(11, 23)):
    raw = os.environ.get("REPRO_CRASH_SEEDS", "")
    picked = [int(part) for part in raw.split(",") if part.strip()]
    return tuple(picked) or tuple(default)


#: The durability fault points and every action allowed at each.  The
#: sweep below exercises the full cross product; the coverage
#: meta-test at the bottom keeps this list honest against REGISTRY.
DURABILITY_POINTS = {
    "journal.append.stage": ("crash", "torn"),
    "journal.append.publish": ("crash", "torn", "bitflip"),
    "journal.checkpoint.stage": ("crash", "torn"),
    "journal.checkpoint.publish": ("crash", "torn", "bitflip"),
    "journal.commit.apply": ("crash",),
    "mover.wos.drain": ("crash",),
}

#: Upper bound (exclusive) for the seeded skip at each point: at most
#: the number of times the fault-free workload fires it (12, 12, 2, 2,
#: 8 and 22), so the fault always lands.  The journal appends reach the
#: UPDATE's record (the last but one): pinned seed 11 tears its staging
#: file and bit-flips ``t2``'s ``create_table`` record, pinned seed 23
#: bit-flips the UPDATE's.  ``journal.commit.apply`` stops short of the
#: UPDATE so the sweep can cut the localized DELETE between journal and
#: apply: pinned seed 11 does — the reopen must replay that DELETE by
#: value — and pinned seed 23 cuts the two-table commit.
SKIP_RANGE = {
    "journal.append.stage": 11,
    "journal.append.publish": 11,
    "journal.checkpoint.stage": 2,
    "journal.checkpoint.publish": 2,
    "journal.commit.apply": 7,
    "mover.wos.drain": 21,
}

SCENARIOS = [
    (point, action)
    for point, actions in sorted(DURABILITY_POINTS.items())
    for action in actions
]


def table(name="t"):
    return TableDefinition(
        name,
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


def rows(n, start=0):
    return [{"k": i, "v": f"v{i % 7}"} for i in range(start, start + n)]


def load_both(db):
    """One commit spanning two tables."""
    session = db.session()
    session.insert("t2", rows(4, start=10))
    session.insert("t", rows(4, start=40))
    session.commit()


#: Fixed workload: WOS loads, a mover cycle (floor + checkpoint), a
#: scattered delete, mid-stream DDL (``t2``, partitioned by an
#: expression the journal keeps as SQL), a two-table commit, a
#: direct-to-ROS load, a localized delete, an UPDATE of the partitioned
#: table (its victims and new rows both columns in one record), a second
#: mover cycle.
OPS = [
    ("load-wos-1", lambda db: db.load("t", rows(15))),
    ("movers-1", lambda db: db.run_tuple_movers()),
    ("load-wos-2", lambda db: db.load("t", rows(15, start=15))),
    ("delete", lambda db: db.sql("DELETE FROM t WHERE k % 5 = 1")),
    (
        "create-t2",
        lambda db: db.sql(
            "CREATE TABLE t2 (k INTEGER, v VARCHAR, PRIMARY KEY (k)) PARTITION BY k % 3"
        ),
    ),
    ("load-t2", lambda db: db.load("t2", rows(10))),
    ("load-both", load_both),
    (
        "load-direct",
        lambda db: db.load("t", rows(10, start=30), direct_to_ros=True),
    ),
    # localized: the victims sit in one block of the direct-load
    # containers; every other container of every copy is skipped on
    # its (min, max) by the live apply and again by its replay
    ("delete-range", lambda db: db.sql("DELETE FROM t WHERE k BETWEEN 32 AND 34")),
    ("update-t2", lambda db: db.sql("UPDATE t2 SET v = 'u' WHERE k % 3 = 1")),
    ("movers-2", lambda db: db.run_tuple_movers()),
]


def capture(db):
    """Every table's rows, what each projection copy on each node shows
    and the partition keys of its containers (the oracle has the SUT's
    topology, so placement agrees)."""
    epoch = db.latest_epoch
    state = {"tables": sorted(db.cluster.catalog.tables)}
    for name in state["tables"]:
        state[name] = sorted(
            tuple(sorted(row.items()))
            for row in read_table(db.cluster, name, epoch)
        )
    state["copies"] = {
        f"node{node.index}:{copy.name}": sorted(
            tuple(sorted(row.items()))
            for row in blocks_to_rows(node.manager.scan(copy.name, epoch))
        )
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.all_projections()
    }
    state["partitions"] = {
        f"node{node.index}:{copy.name}": node.manager.partition_keys(copy.name)
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.all_projections()
    }
    return state


#: Setup DDL: ``t`` with its super projection, then a narrow one (a
#: column subset with its own sort key and segmentation).
SETUP = [
    lambda db: db.create_table(table(), sort_order=["k"]),
    lambda db: db.add_projection(
        ProjectionDefinition(
            name="t_by_v",
            anchor_table="t",
            columns=[ProjectionColumn("v", types.VARCHAR)],
            sort_order=["v"],
            segmentation=HashSegmentation(("v",)),
        )
    ),
]


def build(path):
    db = Database(
        str(path), node_count=3, k_safety=1, journal_checkpoint_interval=4
    )
    for step in SETUP:
        step(db)
    return db


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """``(setup_snaps, snaps)`` of a fault-free run: the states before
    each setup step — reachable when corruption lands in the setup
    records of the active segment — and ``snaps[i]``, the state after
    the first ``i`` workload ops (index 0: right after setup)."""
    root = tmp_path_factory.mktemp("oracle")
    db = Database(str(root / "db"), node_count=3, k_safety=1, durable=False)
    setup_snaps = []
    for step in SETUP:
        setup_snaps.append(capture(db))
        step(db)
    snaps = [capture(db)]
    for _, op in OPS:
        op(db)
        snaps.append(capture(db))
    return setup_snaps, snaps


@pytest.fixture(scope="module")
def oracle_snaps(oracle):
    return oracle[1]


@pytest.mark.parametrize("seed", crash_seeds())
@pytest.mark.parametrize(
    "point,action", SCENARIOS, ids=[f"{p}-{a}" for p, a in SCENARIOS]
)
def test_kill_anywhere_recovers_a_consistent_state(
    point, action, seed, tmp_path, oracle
):
    setup_snaps, oracle_snaps = oracle
    # builtin hash() is process-randomized; derive the skip stably
    skip = zlib.crc32(f"{seed}:{point}:{action}".encode()) % SKIP_RANGE[point]
    sut = build(tmp_path / "sut")
    plan = FaultPlan(seed=seed).arm(point, action, skip=skip)

    fired_op = None
    with plan:
        for index, (_, op) in enumerate(OPS):
            try:
                op(sut)
            except InjectedFaultError:
                fired_op = index  # the op was cut short mid-flight
                break
            if plan.fired:
                # swallowed (mover ejects the node) or silent (bitflip):
                # the op ran to completion, then we notice and "die"
                fired_op = index
                break
    assert plan.fired, f"{point}/{action} skip={skip} never fired"
    assert fired_op is not None

    del sut
    damaged_published = action != "crash" and point.endswith(".publish")
    try:
        recovered = Database.open(str(tmp_path / "sut"))
    except DurabilityError:
        # the damage cut the segment before even the genesis record
        # and no checkpoint exists: the journal is unrecoverable and
        # cold start must refuse loudly rather than serve a guess
        assert damaged_published, f"{point}/{action} refused a clean journal"
        return
    state = capture(recovered)

    if not damaged_published:
        # nothing on published media was damaged: recovery lands
        # exactly at the op boundary the crash interrupted
        acceptable = oracle_snaps[fired_op : fired_op + 2]
    else:
        # published-segment damage can cut the journal at any earlier
        # record: any exact op-prefix of the history is sound
        acceptable = setup_snaps + oracle_snaps[: fired_op + 2]
    assert state in acceptable, (
        f"{point}/{action} seed={seed} skip={skip} fired_op={fired_op}: "
        f"recovered state is not an op-boundary snapshot: {state}"
    )
    assert recovered.replay_report.containers_quarantined == 0

    # the recovered database is live: it accepts and journals writes
    if "t" in state["tables"]:
        before = len(state["t"])
        recovered.load("t", [{"k": 999_999, "v": "post-recovery"}])
        assert len(capture(recovered)["t"]) == before + 1


def test_clean_shutdown_reopens_with_zero_quarantine(
    tmp_path, oracle_snaps
):
    sut = build(tmp_path / "sut")
    for _, op in OPS:
        op(sut)
    final = capture(sut)
    assert final == oracle_snaps[-1]

    del sut
    recovered = Database.open(str(tmp_path / "sut"))
    assert capture(recovered) == final
    assert recovered.replay_report.containers_quarantined == 0
    for node in recovered.cluster.nodes:
        assert node.manager.quarantined == []


class TestExchangeFailover:
    """``executor.exchange`` fires while a Send drains a resegmented
    join fragment; the query must fail over like a mid-scan death."""

    def _build(self, tmp_path):
        db = Database(
            str(tmp_path / "db"), node_count=3, k_safety=1, durable=False
        )
        db.create_table(
            TableDefinition(
                "fact",
                [
                    ColumnDef("f_id", types.INTEGER),
                    ColumnDef("dim_id", types.INTEGER),
                ],
                primary_key=("f_id",),
            )
        )
        db.create_table(
            TableDefinition(
                "fact2",
                [
                    ColumnDef("g_id", types.INTEGER),
                    ColumnDef("link", types.INTEGER),
                ],
                primary_key=("g_id",),
            )
        )
        db.load("fact", [{"f_id": i, "dim_id": i % 20} for i in range(300)])
        db.load("fact2", [{"g_id": i, "link": i % 150} for i in range(300)])
        db.analyze_statistics()
        return db

    def _run_resegmented(self, db):
        plan = JoinNode(
            ScanNode("fact", ["f_id", "dim_id"]),
            ScanNode("fact2", ["g_id", "link"]),
            JoinType.INNER,
            condition=ColumnRef("f_id") == ColumnRef("link"),
        )
        physical = db.planner().plan(plan)
        join = next(n for n in physical.walk() if isinstance(n, PhysJoin))
        join.strategy = P.RESEGMENT
        join.sip = False
        executor = DistributedExecutor(db.cluster, db.latest_epoch)
        return sorted(
            tuple(sorted(row.items())) for row in executor.run(physical).to_rows()
        )

    def test_exchange_crash_fails_over(self, tmp_path):
        db = self._build(tmp_path)
        expected = self._run_resegmented(db)
        victim = 1
        plan = FaultPlan(seed=7).arm("executor.exchange", "crash", node=victim)
        with plan:
            got = self._run_resegmented(db)
        assert [f.point for f in plan.fired] == ["executor.exchange"]
        assert got == expected
        assert not db.cluster.membership.is_up(victim)


def test_every_fault_point_is_exercised_by_some_test():
    """Meta-test: every registered FaultPoint must appear (as a
    literal) in at least one test, so new points can't land untested."""
    tests_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    blob = []
    for root, _, files in os.walk(tests_root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    blob.append(fh.read())
    corpus = "\n".join(blob)
    missing = [name for name in sorted(REGISTRY) if name not in corpus]
    assert not missing, f"fault points with no exercising test: {missing}"
