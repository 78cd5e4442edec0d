"""Cold-start tests: ``Database.open`` replays checkpoint + journal
tail against the scavenged on-disk ROS state."""

import pytest

from repro import types
from repro.cluster import create_backup, restore_backup
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import DurabilityError, InjectedFaultError, SqlAnalysisError
from repro.execution import ColumnRef
from repro.faults import FaultPlan
from repro.projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    Replicated,
)
from repro.storage.segment_log import SEGMENT_BYTES
from storage_helpers import read_table


def table(name="t"):
    return TableDefinition(
        name,
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


def rows(n, start=0):
    return [{"k": i, "v": f"v{i % 7}"} for i in range(start, start + n)]


def build(path, **kwargs):
    kwargs.setdefault("node_count", 3)
    kwargs.setdefault("k_safety", 1)
    db = Database(str(path), **kwargs)
    db.create_table(table(), sort_order=["k"])
    return db


def capture_rows(raw_rows):
    """Rows in the shape :func:`capture` reports them."""
    return sorted(tuple(sorted(row.items())) for row in raw_rows)


def capture(db):
    """Full visible state: every table's rows plus the catalog."""
    epoch = db.latest_epoch
    state = {"tables": sorted(db.cluster.catalog.tables)}
    for name in state["tables"]:
        state[name] = sorted(
            tuple(sorted(row.items()))
            for row in read_table(db.cluster, name, epoch)
        )
    return state


class TestColdStart:
    def test_ddl_wos_and_deletes_recovered(self, tmp_path):
        db = build(tmp_path / "db", journal_checkpoint_interval=4)
        db.load("t", rows(20))
        db.run_tuple_movers()
        db.load("t", rows(10, start=20))  # WOS-only at crash time
        db.sql("DELETE FROM t WHERE k < 7")
        db.create_table(table("t2"), sort_order=["k"])
        db.load("t2", rows(5))
        before = capture(db)

        del db
        reopened = Database.open(str(tmp_path / "db"))
        report = reopened.replay_report
        assert capture(reopened) == before
        assert report.commits_replayed > 0
        assert report.containers_quarantined == 0
        assert report.rows_redeleted == 7
        # the reopened database accepts new writes and journals them
        reopened.load("t", [{"k": 1000, "v": "post"}])
        after = capture(reopened)
        del reopened
        assert capture(Database.open(str(tmp_path / "db"))) == after

    def test_reopen_is_idempotent(self, tmp_path):
        db = build(tmp_path / "db")
        db.load("t", rows(30))
        before = capture(db)
        del db
        for _ in range(3):  # restart, restart, restart
            db = Database.open(str(tmp_path / "db"))
            assert capture(db) == before
            del db

    def test_checkpoint_bounds_cold_start(self, tmp_path):
        db = build(tmp_path / "db", journal_checkpoint_interval=2)
        for start in range(0, 40, 10):
            db.load("t", rows(10, start=start))
            db.run_tuple_movers()  # floor + checkpoint every cycle
        before = capture(db)
        del db
        reopened = Database.open(
            str(tmp_path / "db"), journal_checkpoint_interval=2
        )
        report = reopened.replay_report
        assert capture(reopened) == before
        assert report.checkpoint_used
        assert report.floor > 0
        # everything at or below the floor came from disk, not replay
        assert report.rows_reinserted < 40

    def test_drop_table_replayed(self, tmp_path):
        db = build(tmp_path / "db")
        db.create_table(table("doomed"), sort_order=["k"])
        db.load("doomed", rows(10))
        db.load("t", rows(10))
        db.drop_table("doomed")
        before = capture(db)
        del db
        reopened = Database.open(str(tmp_path / "db"))
        assert "doomed" not in reopened.cluster.catalog.tables
        assert capture(reopened) == before

    def test_second_database_at_same_path_refused(self, tmp_path):
        build(tmp_path / "db")
        with pytest.raises(DurabilityError):
            Database(str(tmp_path / "db"))

    def test_nondurable_database_cannot_reopen(self, tmp_path):
        db = Database(str(tmp_path / "db"), durable=False)
        assert db.cluster.journal is None
        with pytest.raises(DurabilityError):
            Database.open(str(tmp_path / "db"))


def build_star(path):
    """``t`` plus a replicated dimension whose name sorts *after* the
    fact table that carries a prejoin projection onto it."""
    db = build(path)
    db.create_table(
        TableDefinition(
            "z_customers",
            [ColumnDef("cid", types.INTEGER), ColumnDef("name", types.VARCHAR)],
            primary_key=("cid",),
        ),
        segmentation=Replicated(),
    )
    db.create_table(
        TableDefinition(
            "a_orders",
            [ColumnDef("oid", types.INTEGER), ColumnDef("cid", types.INTEGER)],
            primary_key=("oid",),
        )
    )
    db.add_projection(
        ProjectionDefinition(
            # named to sort after a_orders_super: read_table serves a
            # table from its first projection that holds every column
            name="a_orders_with_customer",
            anchor_table="a_orders",
            columns=[
                ProjectionColumn("oid", types.INTEGER),
                ProjectionColumn("cid", types.INTEGER),
                ProjectionColumn("cust_name", types.VARCHAR),
            ],
            sort_order=["cust_name", "oid"],
            segmentation=HashSegmentation(("oid",)),
            prejoin=PrejoinSpec("z_customers", "cid", "cid", {"name": "cust_name"}),
        )
    )
    return db


def commit_footprint(db):
    """What a rejected commit must leave exactly as it was."""
    return (
        db.current_epoch,
        set(db.cluster.membership.up),
        db.cluster.journal.record_count(),
    )


def stored_rows(db):
    """Every row, visible or not, of every projection copy on every node."""
    return [
        row
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.all_projections()
        for row in node.manager.history(copy.name).rows()
    ]


def copy_histories(db):
    """The ``history()`` records of every node x projection copy."""
    return {
        (node.index, copy.name): sorted(
            node.manager.history(copy.name).records(), key=repr
        )
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.all_projections()
    }


class TestCommitRecord:
    """A commit is its record: checked before it is journalled, then
    applied by the code that replays it.  Each of these left an
    acknowledged (or refused) commit that no later open survived."""

    def test_dimension_and_fact_in_one_transaction_reopen(self, tmp_path):
        db = build_star(tmp_path / "db")
        session = db.session()
        session.insert("z_customers", [{"cid": 1, "name": "ann"}])
        session.insert("a_orders", [{"oid": 10, "cid": 1}])
        session.commit()
        before = capture(db)
        assert before["a_orders"] == capture_rows([{"oid": 10, "cid": 1}])
        del db, session
        # the journal keeps no statement order: replay must not need it
        assert capture(Database.open(str(tmp_path / "db"))) == before

    def test_mistyped_insert_is_rejected_before_the_journal(self, tmp_path):
        db = build_star(tmp_path / "db")
        db.sql("INSERT INTO t VALUES (1, 'one')")
        footprint = commit_footprint(db)
        with pytest.raises(SqlAnalysisError):
            db.sql("INSERT INTO t VALUES ('oops', 'two')")
        assert commit_footprint(db) == footprint
        db.sql("INSERT INTO t VALUES (3, 'three')")
        good = capture_rows([{"k": 1, "v": "one"}, {"k": 3, "v": "three"}])
        assert capture(db)["t"] == good
        del db
        assert capture(Database.open(str(tmp_path / "db")))["t"] == good

    def test_prejoin_orphan_is_rejected_whole(self, tmp_path):
        db = build_star(tmp_path / "db")
        db.load("z_customers", [{"cid": 1, "name": "ann"}])
        stored = stored_rows(db)
        footprint = commit_footprint(db)
        session = db.session()
        session.insert("t", rows(3))
        session.insert("a_orders", [{"oid": 7, "cid": 99}])  # no such customer
        with pytest.raises(SqlAnalysisError, match="no z_customers row"):
            session.commit()
        assert commit_footprint(db) == footprint
        # the commit spans two tables: neither took a row on any node
        assert stored_rows(db) == stored
        db.load("a_orders", [{"oid": 8, "cid": 1}])
        before = capture(db)
        assert before["t"] == [] and len(before["a_orders"]) == 1
        del db, session
        assert capture(Database.open(str(tmp_path / "db"))) == before


    def test_row_selected_by_two_deletes_is_one_victim(self, tmp_path):
        """Two DELETEs of one transaction that overlap used to mark the
        shared rows twice — a sanitizer violation raised mid-apply,
        after the record was durable."""
        db = build(tmp_path / "db")
        db.load("t", rows(10), direct_to_ros=True)
        session = db.session()
        session.delete("t", ColumnRef("k") < 5)
        session.delete("t", ColumnRef("k") < 3)
        session.commit()
        before = capture(db)
        assert before["t"] == capture_rows(rows(5, start=5))
        del db, session
        reopened = Database.open(str(tmp_path / "db"))
        assert capture(reopened) == before
        assert reopened.replay_report.rows_redeleted == 5

    def test_prejoin_projection_named_first_does_not_serve_the_table(
        self, tmp_path
    ):
        """Regression: a full-width prejoin projection whose name sorts
        before ``<table>_super`` was taken for the super projection, so
        ``read_table`` rows carried the dimension's columns and an UPDATE
        (its re-inserted rows) failed validation."""
        db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
        db.create_table(
            TableDefinition(
                "dim",
                [ColumnDef("d", types.INTEGER), ColumnDef("label", types.VARCHAR)],
                primary_key=("d",),
            ),
            segmentation=Replicated(),
        )
        db.create_table(
            TableDefinition(
                "t",
                [
                    ColumnDef("k", types.INTEGER),
                    ColumnDef("d", types.INTEGER),
                    ColumnDef("x", types.INTEGER),
                ],
                primary_key=("k",),
            ),
            sort_order=["k"],
        )
        db.add_projection(
            ProjectionDefinition(
                name="a_t_pj",
                anchor_table="t",
                columns=[
                    ProjectionColumn("k", types.INTEGER),
                    ProjectionColumn("d", types.INTEGER),
                    ProjectionColumn("x", types.INTEGER),
                    ProjectionColumn("d_label", types.VARCHAR),
                ],
                sort_order=["d_label", "k"],
                segmentation=HashSegmentation(("k",)),
                prejoin=PrejoinSpec("dim", "d", "d", {"label": "d_label"}),
            )
        )
        families = [f.primary.name for f in db.cluster.catalog.families_for_table("t")]
        assert families == ["a_t_pj", "t_super"]
        assert db.cluster.catalog.super_projection_for("t").primary.name == "t_super"
        db.load("dim", [{"d": 0, "label": "even"}, {"d": 1, "label": "odd"}])
        db.load("t", [{"k": i, "d": i % 2, "x": 10 * i} for i in range(8)])
        db.run_tuple_movers()
        db.sql("UPDATE t SET x = x + 1 WHERE d = 1")
        read = read_table(db.cluster, "t", db.latest_epoch)
        assert all(set(row) == {"k", "d", "x"} for row in read)
        assert sorted(row["x"] for row in read) == [0, 11, 20, 31, 40, 51, 60, 71]
        before = copy_histories(db)
        del db
        assert copy_histories(Database.open(str(tmp_path / "db"))) == before


class TestCrashPoints:
    """Targeted crash-at-fault-point scenarios (the generic sweep lives
    in ``tests/chaos/test_kill_anywhere.py``)."""

    def test_crash_after_commit_durable_before_apply(self, tmp_path):
        db = build(tmp_path / "db")
        db.load("t", rows(10))
        expected = capture(db)
        plan = FaultPlan(seed=1).arm("journal.commit.apply", "crash")
        with plan:
            with pytest.raises(InjectedFaultError):
                db.load("t", rows(10, start=10))
        assert plan.fired
        del db
        # the commit record hit disk before the crash: replay applies it
        reopened = Database.open(str(tmp_path / "db"))
        state = capture(reopened)
        assert state["t"] != expected["t"]
        assert len(state["t"]) == 20

    def test_crash_before_publish_loses_only_that_record(self, tmp_path):
        db = build(tmp_path / "db")
        db.load("t", rows(10))
        expected = capture(db)
        plan = FaultPlan(seed=2).arm("journal.append.stage", "crash")
        with plan:
            with pytest.raises(InjectedFaultError):
                db.load("t", rows(10, start=10))
        assert plan.fired
        del db
        # the record never published: cold start sees the pre-crash state
        assert capture(Database.open(str(tmp_path / "db"))) == expected

    def test_torn_tail_recovers_valid_prefix(self, tmp_path):
        db = build(tmp_path / "db")
        db.load("t", rows(10))
        expected = capture(db)
        # tear the published segment mid-final-record, then crash
        plan = FaultPlan(seed=3).arm("journal.append.publish", "torn")
        with plan:
            with pytest.raises(InjectedFaultError):
                db.load("t", rows(10, start=10))
        assert plan.fired
        del db
        reopened = Database.open(str(tmp_path / "db"))
        assert reopened.replay_report.truncated_records >= 1
        assert capture(reopened) == expected

    @pytest.mark.parametrize("seed", [4, 14, 24])
    def test_bitflip_on_last_append_truncated_by_crc(self, seed, tmp_path):
        db = build(tmp_path / "db")
        db.load("t", rows(10))
        # flip a bit in the published segment on the LAST append before
        # the restart — any earlier and the next append's full-segment
        # rewrite would heal it.  The flipped byte can land in ANY
        # record of the segment, so the recovered state is some exact
        # prefix of the fault-free history — never a corrupted hybrid.
        plan = FaultPlan(seed=seed).arm("journal.append.publish", "bitflip")
        with plan:
            db.load("t", rows(10, start=10))
        assert plan.fired and plan.fired[0].action == "bitflip"
        del db
        reopened = Database.open(str(tmp_path / "db"))
        state = capture(reopened)
        prefixes = [
            {"tables": []},  # flip hit the DDL records
            {"tables": ["t"], "t": []},
            {"tables": ["t"], "t": capture_rows(rows(10))},
            {"tables": ["t"], "t": capture_rows(rows(20))},
        ]
        assert state in prefixes, state

    def test_stale_checkpoint_is_idempotent(self, tmp_path):
        for point in ("journal.checkpoint.stage", "journal.checkpoint.publish"):
            root = tmp_path / point.replace(".", "_")
            db = build(root, journal_checkpoint_interval=2)
            db.load("t", rows(20))
            plan = FaultPlan(seed=5).arm(point, "crash")
            with plan:
                with pytest.raises(InjectedFaultError):
                    db.run_tuple_movers()  # floor + checkpoint attempt
            assert plan.fired
            before = capture(db)
            del db
            reopened = Database.open(str(root), journal_checkpoint_interval=2)
            assert capture(reopened) == before, point
            # a crash after publish leaves the checkpoint; before, not
            used = reopened.replay_report.checkpoint_used
            assert used == (point == "journal.checkpoint.publish"), point

    def test_corrupt_newest_checkpoint_loses_nothing(self, tmp_path):
        """Regression: falling back to the older retained checkpoint
        meets the segments the newest one pruned as a hole in the LSNs;
        treating that hole as damage cut every later commit from disk."""
        root = tmp_path / "db"
        db = build(root, journal_checkpoint_interval=4)
        loaded = 0
        for _ in range(3):  # 70 records a cycle: segments rotate and are pruned
            for _ in range(70):
                db.load("t", rows(1, start=loaded))
                loaded += 1
            db.run_tuple_movers()
        db.load("t", rows(3, start=loaded))
        before = capture(db)
        del db
        journal_dir = root / "journal"
        checkpoints = sorted(journal_dir.glob("ckpt_*.json"))
        assert len(checkpoints) == 2
        assert sorted(journal_dir.glob("seg_*.log"))[0].name != "seg_000001.log"
        damaged = bytearray(checkpoints[-1].read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        checkpoints[-1].write_bytes(bytes(damaged))

        reopened = Database.open(str(root), journal_checkpoint_interval=4)
        assert reopened.replay_report.truncated_records == 0
        assert capture(reopened) == before

    def test_corrupt_checkpoint_taken_to_free_a_segment_loses_nothing(
        self, tmp_path
    ):
        """The same fallback when the lost checkpoint is one no record
        count called for: each load is over a segment's size budget,
        seals it, and the next mover cycle checkpoints to prune it."""
        root = tmp_path / "db"
        db = build(root)  # default interval: 32 appends are never reached
        bulk = SEGMENT_BYTES // 10
        loaded = 0
        for _ in range(3):
            db.load("t", rows(bulk, start=loaded), direct_to_ros=True)
            db.load("t", rows(2, start=loaded + bulk))
            loaded += bulk + 2
            db.run_tuple_movers()
        db.load("t", rows(3, start=loaded))
        assert db.cluster.journal.record_count() < 32
        before = capture(db)
        del db
        journal_dir = root / "journal"
        checkpoints = sorted(journal_dir.glob("ckpt_*.json"))
        # the first cycle publishes its checkpoint twice: the segment it
        # frees holds the CREATE TABLE, which the older one must cover
        assert [c.name for c in checkpoints] == ["ckpt_000003.json", "ckpt_000004.json"]
        assert sorted(journal_dir.glob("seg_*.log"))[0].name != "seg_000001.log"
        damaged = bytearray(checkpoints[-1].read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        checkpoints[-1].write_bytes(bytes(damaged))

        reopened = Database.open(str(root))
        assert reopened.replay_report.truncated_records == 0
        assert capture(reopened) == before

    def test_a_fallback_past_a_pruned_create_table_keeps_the_table(self, tmp_path):
        root = tmp_path / "db"
        db = build(root)
        bulk = SEGMENT_BYTES // 10  # a load over a segment's budget seals it
        db.load("t", rows(bulk), direct_to_ros=True)
        db.run_tuple_movers()  # the older checkpoint
        db.create_table(table("t2"), sort_order=["k"])
        db.load("t", rows(bulk, start=bulk), direct_to_ros=True)
        db.load("t", rows(1, start=2 * bulk))
        db.run_tuple_movers()  # the newest: prunes the create_table's segment
        del db
        newest = sorted((root / "journal").glob("ckpt_*.json"))[-1]
        damaged = bytearray(newest.read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        newest.write_bytes(bytes(damaged))

        reopened = Database.open(str(root))
        assert sorted(reopened.cluster.catalog.tables) == ["t", "t2"]

    def test_a_fallback_past_a_checkpoint_with_an_unmoved_floor_keeps_moved_out_rows(
        self, tmp_path
    ):
        """ROADMAP 1(a), second half: a cycle logs its floor without
        checkpointing, only DDL follows and seals that segment, and the
        next cycle checkpoints with the floor unmoved.  That checkpoint
        must not take the only ``floor`` record past the older one with
        it: falling back, the open would truncate the moved-out rows."""
        root = tmp_path / "db"
        db = build(root)  # default interval: 32 appends are never reached
        bulk = SEGMENT_BYTES // 10
        db.load("t", rows(bulk), direct_to_ros=True)
        db.run_tuple_movers()  # the older checkpoint
        db.load("t", rows(5, start=bulk))
        db.run_tuple_movers()  # the floor moves past the 5 rows
        # one add_family record over a segment's budget, then a small
        # table: only DDL seals the segment holding that floor record
        wide = [ColumnDef(f"c{i:03d}", types.INTEGER) for i in range(160)]
        db.create_table(TableDefinition("wide", wide), sort_order=["c000"])
        db.create_table(table("t3"), sort_order=["k"])
        db.run_tuple_movers()  # the newest, at the same floor
        before = capture(db)
        del db
        newest = sorted((root / "journal").glob("ckpt_*.json"))[-1]
        damaged = bytearray(newest.read_bytes())
        damaged[len(damaged) // 2] ^= 0x01
        newest.write_bytes(bytes(damaged))

        reopened = Database.open(str(root))
        assert len(capture(reopened)["t"]) == bulk + 5
        assert capture(reopened) == before


class TestBackupRestartRestore:
    def test_backup_survives_full_process_restart(self, tmp_path):
        db = build(tmp_path / "db", journal_checkpoint_interval=4)
        db.load("t", rows(40))
        db.run_tuple_movers()
        golden = capture(db)
        image = create_backup(db.cluster, str(tmp_path / "bk"))

        # damage: later commits we will throw away via restore, then a
        # full process restart before and after the restore
        db.sql("DELETE FROM t WHERE k < 5")
        del db
        db = Database.open(str(tmp_path / "db"))
        assert len(capture(db)["t"]) == 35

        # wipe the table's containers, restore the image over them
        family = db.cluster.catalog.super_projection_for("t")
        for node in db.cluster.nodes:
            for copy in family.all_copies:
                state = node.manager.storage(copy.name)
                node.manager.remove_containers(
                    copy.name, list(state.containers)
                )
        restored = restore_backup(db.cluster, image)
        assert restored == len(image.entries)
        assert capture(db)["t"] == golden["t"]

        # the restore record is journaled: another full restart keeps
        # the restored rows (scavenge readopts, floor covers the image)
        del db
        reopened = Database.open(str(tmp_path / "db"))
        assert capture(reopened)["t"] == golden["t"]
        assert reopened.replay_report.containers_quarantined == 0
