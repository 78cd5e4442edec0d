"""A buddy's containers are its primary's bytes.

A direct load builds each container image once per projection family
and publishes it on every copy's node: the buddy shares the primary's
columns, encodings and sort order, and a local segment ignores the
ring offset, so the copies' containers for one (ring range, partition,
local segment) are the same bytes.  On a 3-node K=1 cluster with two
local segments per node, every buddy container's ``.dat`` / ``.pidx``
files must equal its primary's — container for container, in the order
they were written — after

* a direct load;
* a direct load with one node down, then ``recover_node`` (the down
  node's copies of that load are rebuilt from the survivors' history);
* a reopen that replays a direct load from the journal tail;

and ``scrub`` must find nothing to repair each time.

A mover cycle builds each container once per family too: a buddy whose
drained WOS run, or whose mergeout inputs, are provably its primary's
publishes the image the primary built (``CycleMemo``).  So the same
holds after a WOS load and its moveout, mergeouts climbing the strata,
DELETEs both purged and kept at the AHM (the delete vectors compared
too), a replicated table (every node's copy against node 0's), a node
down through a cycle and then recovered, and a reopen replaying WOS
loads.  And the memo changes no byte: the same drawn history with
every lookup forced to miss leaves the same files, container ids and
``dc_tuple_mover`` rows (durations aside) on every node.
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS
from repro.projections import HashSegmentation, Replicated
from repro.tuple_mover import CycleMemo, MergePolicy
from storage_helpers import delete_matching

NODES = 3
DISTINCT = 18


def make_rows(first, count):
    return [
        {"metric": f"metric_{k % DISTINCT:04d}", "k": k, "v": float(k % 97) / 7}
        for k in range(first, first + count)
    ]


#: Small strata, merged in pairs: a few cycles climb several of them.
CLIMBING = MergePolicy(base_size=512, multiplier=2, min_inputs=2)


def build(path, merge_policy=None, segmentation=None) -> Database:
    db = Database(
        str(path), node_count=NODES, k_safety=1, segments_per_node=2,
        journal_checkpoint_interval=1000, merge_policy=merge_policy,
    )
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("metric", types.VARCHAR), ColumnDef("k", types.INTEGER),
             ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["metric", "k"],
        segmentation=segmentation or HashSegmentation(("k",)),
    )
    return purging(db)


def purging(db) -> Database:
    """``db`` with an AHM that follows the LGE: a mergeout purges rows
    deleted before the cycle's AHM."""
    db.cluster.epochs.policy.lag_epochs = 0
    return db


def containers(db, node_index, projection_name):
    """(partition key, local segment, {file: bytes}, delete markers) per
    container of a copy on a node, in container id order; ``meta.json``
    (which names the copy and its container id) left out."""
    storage = db.cluster.nodes[node_index].manager.storage(projection_name)
    found = []
    for container_id, container in sorted(storage.containers.items()):
        files = {}
        for name in sorted(container.meta.checksums):
            with open(f"{container.path}/{name}", "rb") as handle:
                files[name] = handle.read()
        meta = container.meta
        deletes = sorted(storage.deletes_for(container_id).items())
        found.append((meta.partition_key, meta.local_segment, files, deletes))
    return found


def check_buddies_equal_primaries(db, rows):
    (family,) = db.cluster.catalog.families_for_table("t")
    primary, buddy = family.all_copies
    stored = 0
    for ring_range in range(NODES):
        mine = containers(db, (ring_range + primary.segmentation.offset) % NODES, primary.name)
        theirs = containers(db, (ring_range + buddy.segmentation.offset) % NODES, buddy.name)
        assert mine == theirs, f"ring range {ring_range}: buddy bytes differ"
        stored += len(mine)
    assert stored > NODES  # two local segments: more containers than nodes
    check_clean(db, rows)


def check_clean(db, rows):
    assert db.cluster.scrub().clean
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == rows


@pytest.fixture
def db(tmp_path):
    return build(tmp_path / "db")


def test_a_direct_load_publishes_one_image_per_family(db):
    db.load("t", make_rows(0, 9000), direct_to_ros=True)
    check_buddies_equal_primaries(db, 9000)


def test_a_node_down_through_the_load_recovers_the_same_bytes(db):
    db.load("t", make_rows(0, 3000), direct_to_ros=True)
    db.run_tuple_movers()  # every copy's Last Good Epoch passes the load
    db.fail_node(1)
    db.load("t", make_rows(3000, 9000), direct_to_ros=True)
    db.recover_node(1)
    check_buddies_equal_primaries(db, 12000)


def test_a_replayed_direct_load_rebuilds_the_same_bytes(tmp_path):
    path = tmp_path / "db"
    db = build(path)
    db.load("t", make_rows(0, 3000), direct_to_ros=True)
    db.load("t", make_rows(3000, 9000), direct_to_ros=True)
    before = {
        (node, name): containers(db, node, name)
        for node in range(NODES)
        for name in db.cluster.nodes[node].manager.projection_names()
    }
    del db
    replayed = METRICS.counter("journal.replay.commits")
    reopened = Database.open(str(path))
    assert METRICS.counter("journal.replay.commits") > replayed
    check_buddies_equal_primaries(reopened, 12000)
    assert {
        (node, name): containers(reopened, node, name)
        for node in range(NODES)
        for name in reopened.cluster.nodes[node].manager.projection_names()
    } == before


# -- mover cycles ------------------------------------------------------


def test_a_moveout_publishes_the_primary_images(db):
    db.load("t", make_rows(0, 3000))
    db.run_tuple_movers()
    check_buddies_equal_primaries(db, 3000)


def test_mergeouts_past_a_stratum_publish_the_primary_images(tmp_path):
    db = build(tmp_path / "db", merge_policy=CLIMBING)
    for wave in range(6):
        db.load("t", make_rows(wave * 1500, 1500))
        db.run_tuple_movers()
    strata = {row["stratum"] for row in db.cluster.dc.rows("tuple_mover")}
    assert max(strata) >= 2  # merged outputs merged again, strata up
    check_buddies_equal_primaries(db, 9000)


def test_deletes_purged_and_kept_at_the_ahm(tmp_path):
    db = build(tmp_path / "db", merge_policy=CLIMBING)
    live, kept = set(), 0
    for wave in range(6):
        db.load("t", make_rows(wave * 1500, 1500))
        live.update(range(wave * 1500, wave * 1500 + 1500))
        db.sql(f"DELETE FROM t WHERE k % 7 = {wave}")
        live -= {k for k in live if k % 7 == wave}
        db.run_tuple_movers()
        check_buddies_equal_primaries(db, len(live))
        kept += sum(
            bool(deletes)
            for name in db.cluster.nodes[0].manager.projection_names()
            for _, _, _, deletes in containers(db, 0, name)
        )
    purged = sum(row["rows_purged"] for row in db.cluster.dc.rows("tuple_mover"))
    assert kept and purged


def test_a_replicated_table_publishes_node_zero_images(tmp_path):
    db = build(tmp_path / "db", merge_policy=CLIMBING, segmentation=Replicated())
    for wave in range(3):
        db.load("t", make_rows(wave * 1000, 1000))
        db.run_tuple_movers()
    (name,) = db.cluster.nodes[0].manager.projection_names()
    first = containers(db, 0, name)
    assert first and {
        row["node_index"]
        for row in db.cluster.dc.rows("tuple_mover")
        if row["kind"] == "mergeout"
    } == set(range(NODES))
    for node in range(1, NODES):
        assert containers(db, node, name) == first
    check_clean(db, 3000)


def test_a_node_down_through_a_cycle_recovers_the_same_bytes(tmp_path):
    db = build(tmp_path / "db", merge_policy=CLIMBING)
    db.load("t", make_rows(0, 3000))
    db.run_tuple_movers()
    db.fail_node(1)
    db.load("t", make_rows(3000, 3000))
    db.run_tuple_movers()
    db.recover_node(1)
    db.run_tuple_movers()
    check_buddies_equal_primaries(db, 6000)
    db.load("t", make_rows(6000, 3000))
    db.run_tuple_movers()
    check_buddies_equal_primaries(db, 9000)


def test_a_reopen_replaying_wos_loads_publishes_the_primary_images(tmp_path):
    path = tmp_path / "db"
    db = build(path, merge_policy=CLIMBING)
    db.load("t", make_rows(0, 3000))
    db.run_tuple_movers()
    db.load("t", make_rows(3000, 3000))  # the journal tail: in the WOS
    del db
    replayed = METRICS.counter("journal.replay.commits")
    db = purging(Database.open(str(path), merge_policy=CLIMBING))
    assert METRICS.counter("journal.replay.commits") > replayed
    db.run_tuple_movers()
    check_buddies_equal_primaries(db, 6000)
    db.load("t", make_rows(6000, 3000))
    db.run_tuple_movers()
    check_buddies_equal_primaries(db, 9000)


# -- the memo changes no byte --------------------------------------------

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


@st.composite
def histories(draw):
    """Loads (to the WOS or direct), DELETEs, mover cycles, a node down
    and recovered, reopens, and one node's copies marking rows deleted
    alone (a diverged history: its inputs are no longer the others')."""
    steps, down, first = [], None, 0
    for _ in range(draw(st.integers(3, 9))):
        kinds = ["load", "load", "delete", "cycle", "cycle"]
        kinds.append("recover" if down is not None else "fail")
        if down is None:
            kinds += ["reopen", "diverge"]
        kind = draw(st.sampled_from(kinds))
        if kind == "load":
            count = draw(st.integers(1, 1200))
            steps.append(("load", first, count, draw(st.booleans())))
            first += count
        elif kind == "delete":
            steps.append(("delete", draw(st.integers(2, 9)), draw(st.integers(0, 1))))
        elif kind == "diverge":
            steps.append(("diverge", draw(st.integers(0, NODES - 1)), draw(st.integers(2, 9))))
        elif kind == "fail":
            down = draw(st.integers(0, NODES - 1))
            steps.append(("fail", down))
        elif kind == "recover":
            steps.append(("recover", down))
            down = None
        else:
            steps.append((kind,))
    if down is not None:
        steps.append(("recover", down))
    return steps + [("cycle",), ("cycle",)]


def forced_miss(patch):
    """Every copy builds its own containers: no lookup of the cycle's
    memo ever finds an entry."""
    patch.setattr(CycleMemo, "moveout", lambda memo, projection, run: None)
    patch.setattr(CycleMemo, "merge_key", lambda memo, state, merge_ids, ahm: None)


def replay(path, steps):
    """Run ``steps``; every node's stored files (path -> bytes) and the
    ``tuple_mover`` Data Collector rows, durations left out."""
    db = build(path, merge_policy=CLIMBING)
    for step in steps:
        if step[0] == "load":
            _, first, count, direct = step
            db.load("t", make_rows(first, count), direct_to_ros=direct)
        elif step[0] == "delete":
            db.sql(f"DELETE FROM t WHERE k % {step[1]} = {step[2]}")
        elif step[0] == "diverge":
            _, node, modulus = step
            manager, epoch = db.cluster.nodes[node].manager, db.latest_epoch
            for name in manager.projection_names():
                delete_matching(
                    manager, name, lambda row: row["k"] % modulus == 1, epoch, epoch
                )
        elif step[0] == "cycle":
            db.run_tuple_movers()
        elif step[0] == "fail":
            db.fail_node(step[1])
        elif step[0] == "recover":
            db.recover_node(step[1])
        else:
            del db
            db = purging(Database.open(str(path), merge_policy=CLIMBING))
    files = {}
    for node in db.cluster.nodes:
        root = node.manager.root
        for directory, _, names in os.walk(root):
            for name in names:
                with open(os.path.join(directory, name), "rb") as handle:
                    files[os.path.relpath(os.path.join(directory, name), path)] = (
                        handle.read()
                    )
    rows = [
        {key: value for key, value in row.items() if key != "duration_ms"}
        for row in db.cluster.dc.rows("tuple_mover")
    ]
    return files, rows


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_the_memo_changes_no_byte(tmp_path_factory, seed_index):
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(histories())
    def run(steps):
        shared = replay(tmp_path_factory.mktemp("shared") / "db", steps)
        with pytest.MonkeyPatch.context() as patch:
            forced_miss(patch)
            alone = replay(tmp_path_factory.mktemp("alone") / "db", steps)
        assert shared[0].keys() == alone[0].keys()
        assert shared == alone

    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()
