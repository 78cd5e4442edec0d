"""Counts, not timings: a load hashes a row once, sorts its key columns
once and encodes a block once — once per projection family, not per
copy.

A 3-node K=1 table segmented by an 18-valued key: one direct-to-ROS
load, a WOS load, a moveout and a mergeout.  Before the write path
passed columns, the same statements hashed every row 3.6 times (once
per copy to route it, once per copy again to find its local segment),
built a ``sort_key_for`` tuple twice per container row and once more
per merged row, trial-encoded every AUTO block with up to seven
value-at-a-time encoders and then encoded the winner again, built
PLAIN's bytes twice, and fed ``ColumnWriter.append`` one value at a
time.  Three ``METRICS`` counters (``storage.ring_hashes``,
``storage.blocks_encoded``, ``storage.trial_encodes``) carry the same
facts to ``v_monitor.metrics``.  AUTO's trials of PLAIN, RLE, DELTAVAL
and BLOCK_DICT are arithmetic: a winner among them is built exactly
once, a loser never (it used to be the trial's own bytes, so a block
the sample covered was never encoded after its trials).  And a direct
K=1 load sorts and encodes the primary copy's groups only: the buddy's
containers are the same bytes, published from the same image.

And a committed row is pivoted once: from ``Session.insert`` through
the commit, the WOS, a scan of it, moveout and ``publish_dir`` the
history is one ``HistoryRun`` — no second pivot, no row dict.  The WOS
used to hold dicts: the commit's run was turned back into rows to be
buffered, pivoted again by the first scan and a third time at moveout.
A COPY is not pivoted at all: its lines are parsed into columns, which
are validated, journalled and applied as they are — no ``parse_text``
or ``validate`` per value, no row dict — and its commit record costs
about its text in journal bytes.  It used to parse each line into a
dict, type-check it value by value and journal it as a row dict.
"""

import builtins
from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, hashing, types
from repro.monitor import METRICS
from repro.projections import HashSegmentation, ProjectionDefinition
from repro.storage import HistoryRun, fsio
from repro.storage import block as block_module
from repro.storage import manager as manager_module
from repro.storage.column_file import ColumnWriter
from repro.storage.encodings import ENCODINGS, SAMPLE_SIZE, Encoding
from repro.storage.encodings import plain as plain_module
from repro.storage.encodings.auto import CANDIDATE_NAMES
from repro.tuple_mover import MergePolicy

DISTINCT = 18
#: six (node, local segment) groups at most: whatever the ring does with
#: 18 keys, the big load fills some block past SAMPLE_SIZE and the small
#: one none
BIG_LOAD, SMALL_LOAD = 6 * SAMPLE_SIZE + 600, 900
DIRECT_ROWS = BIG_LOAD + SMALL_LOAD
WOS_ROWS = 1500
COUNTERS = ("storage.ring_hashes", "storage.blocks_encoded", "storage.trial_encodes")


def make_rows(first, count):
    return [
        {"metric": f"metric_{k % DISTINCT:04d}", "k": k, "v": float(k % 97)}
        for k in range(first, first + count)
    ]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("counts") / "db"),
        node_count=3, k_safety=1, segments_per_node=2,
        merge_policy=MergePolicy(min_inputs=2),
    )
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("metric", types.VARCHAR), ColumnDef("k", types.INTEGER),
             ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["metric", "k"],
        segmentation=HashSegmentation(("metric",)),
    )
    return db


class Spy:
    """What the write path called while it was installed."""

    def __init__(self, monkeypatch):
        self.hashes = 0
        self.sort_keys = 0
        self.appends = 0
        #: groups sorted by their sort keys
        self.sorts = 0
        #: one entry per encoded block: AUTO or not, its row count, a
        #: Counter of ("trial" | "sized" | "encode" | "plain", encoding
        #: name) — "sized": a trial that gave a size, not bytes — and
        #: the encoding it was written with
        self.blocks = []
        self._depth = 0
        real_hash = hashing.fnv1a_64

        def counting_hash(data):
            self.hashes += 1
            return real_hash(data)

        monkeypatch.setattr(hashing, "fnv1a_64", counting_hash)
        monkeypatch.setattr(
            ProjectionDefinition, "sort_key_for", self._counting("sort_keys")
        )
        monkeypatch.setattr(ColumnWriter, "append", self._counting("appends"))
        real_block = block_module.encode_block

        def counting_block(values, dtype, encoding, start_position, file_offset):
            entry = [encoding is None, len(values), Counter(), None]
            self.blocks.append(entry)
            payload, info = real_block(
                values, dtype, encoding, start_position, file_offset
            )
            entry[3] = info.encoding
            return payload, info

        def counting_sorted(iterable, key=None, reverse=False):
            # a group's indexes, ordered by the run's sort keys
            if getattr(key, "__name__", None) == "__getitem__":
                self.sorts += 1
            return builtins.sorted(iterable, key=key, reverse=reverse)

        monkeypatch.setattr(manager_module, "sorted", counting_sorted, raising=False)

        monkeypatch.setattr(block_module, "encode_block", counting_block)
        # column_file imported the name: it is the caller that matters
        from repro.storage import column_file

        monkeypatch.setattr(column_file, "encode_block", counting_block)
        for encoding in {Encoding, *map(type, ENCODINGS.values())}:
            for method in ("trial", "encode"):
                if method in vars(encoding):
                    monkeypatch.setattr(
                        encoding, method, self._top_level(method, vars(encoding)[method])
                    )
        real_values = plain_module.write_values

        def counting_plain(out, values, kinds=None):
            self.blocks[-1][2]["plain", "PLAIN"] += 1
            return real_values(out, values, kinds)

        monkeypatch.setattr(plain_module, "write_values", counting_plain)

    def _counting(self, attribute):
        def raise_count(*args, **kwargs):
            setattr(self, attribute, getattr(self, attribute) + 1)
            raise AssertionError(f"{attribute}: the write path went row by row")

        return raise_count

    def _top_level(self, method, real):
        """Count calls the block writer or the chooser made, not the
        ones an encoder made of itself or of PLAIN underneath."""

        def counted(encoding, *args, **kwargs):
            top = self._depth == 0 and self.blocks
            if top:
                self.blocks[-1][2][method, encoding.name] += 1
            self._depth += 1
            try:
                result = real(encoding, *args, **kwargs)
            finally:
                self._depth -= 1
            if top and isinstance(result, int):
                self.blocks[-1][2]["sized", encoding.name] += 1
            return result

        return counted


def counters():
    return {name: METRICS.counter(name) for name in COUNTERS}


def check_blocks(spy, moved):
    """Every AUTO block: at most one trial per candidate; a winner its
    trial sized by arithmetic built exactly once and such a loser never;
    a zlib-staged winner's trial output kept when it saw the whole
    block, built once more when it did not; PLAIN's bytes built at most
    once for the sample and once for the block."""
    auto = [block for block in spy.blocks if block[0]]
    assert auto and len(spy.blocks) == moved["storage.blocks_encoded"]
    trials = 0
    for _, rows, calls, chosen in auto:
        tried = {name: n for (kind, name), n in calls.items() if kind == "trial"}
        assert set(tried) <= set(CANDIDATE_NAMES) and set(tried.values()) == {1}, calls
        trials += len(tried)
        sized = {name for kind, name in calls if kind == "sized"}
        built = {name: n for (kind, name), n in calls.items() if kind == "encode"}
        whole_block_sampled = rows <= SAMPLE_SIZE
        if chosen in sized or not whole_block_sampled:
            assert built == {chosen: 1}, (rows, chosen, calls)
        else:
            assert built == {}, (rows, chosen, calls)
        assert calls["plain", "PLAIN"] <= (1 if whole_block_sampled else 2), calls
    assert trials == moved["storage.trial_encodes"]
    return auto


def stored_blocks(db, projection_name):
    """Blocks of every column (``_epoch`` too) of every container of a
    projection copy, on every node."""
    return sum(
        len(container.column_reader(name).blocks)
        for node in db.cluster.nodes
        if projection_name in node.manager.projection_names()
        for container in node.manager.storage(projection_name).containers.values()
        for name in [*container.meta.columns, "_epoch"]
    )


def test_direct_load_hashes_sorts_and_encodes_once(db, monkeypatch):
    spy = Spy(monkeypatch)
    before = counters()
    containers = METRICS.counter("storage.containers_written")
    db.load("t", make_rows(0, BIG_LOAD), direct_to_ros=True)
    db.load("t", make_rows(BIG_LOAD, SMALL_LOAD), direct_to_ros=True)
    moved = {name: METRICS.counter(name) - before[name] for name in COUNTERS}
    # one hash per distinct key of a batch: primary and buddy share the
    # ring position, and so does local-segment assignment
    assert spy.hashes == moved["storage.ring_hashes"] == 2 * DISTINCT
    assert spy.sort_keys == 0 and spy.appends == 0
    auto = check_blocks(spy, moved)
    assert any(rows > SAMPLE_SIZE for _, rows, _, _ in auto)
    assert any(rows <= SAMPLE_SIZE for _, rows, _, _ in auto)
    # once per family: the primary's groups are sorted and its blocks
    # encoded, the buddy publishes the same images
    (family,) = db.cluster.catalog.families_for_table("t")
    primary, buddy = family.all_copies
    written = METRICS.counter("storage.containers_written") - containers
    assert spy.sorts * 2 == written
    assert moved["storage.blocks_encoded"] == stored_blocks(db, primary.name)
    assert stored_blocks(db, buddy.name) == stored_blocks(db, primary.name)
    stored = sum(
        container.row_count
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
        for container in node.manager.storage(name).containers.values()
    )
    assert stored == 2 * DIRECT_ROWS
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == DIRECT_ROWS


def test_moveout_and_mergeout_build_no_row_keys(db, monkeypatch):
    db.load("t", make_rows(DIRECT_ROWS, WOS_ROWS))
    assert any(
        node.manager.wos_row_count(name)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
    )
    spy = Spy(monkeypatch)
    before = counters()
    mergeouts = METRICS.counter("tuple_mover.mergeouts")
    db.cluster.run_tuple_movers()
    moved = {name: METRICS.counter(name) - before[name] for name in COUNTERS}
    assert METRICS.counter("tuple_mover.mergeouts") > mergeouts
    # a moveout finds local segments from at most one hash per distinct
    # key per family (a buddy's drained run takes its primary's groups);
    # a mergeout hashes nothing
    assert spy.hashes == moved["storage.ring_hashes"] <= DISTINCT
    assert spy.sort_keys == 0 and spy.appends == 0
    check_blocks(spy, moved)
    monkeypatch.undo()
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == DIRECT_ROWS + WOS_ROWS


def test_the_counters_are_a_v_monitor_query(db):
    rows = db.sql(
        "SELECT name, value FROM v_monitor.metrics WHERE kind = 'counter'"
    )
    values = {row["name"]: row["value"] for row in rows}
    assert all(values.get(name, 0) > 0 for name in COUNTERS), values
    # trials per block, from the system itself
    assert values["storage.trial_encodes"] <= len(CANDIDATE_NAMES) * (
        values["storage.blocks_encoded"]
    )


def test_a_committed_row_is_pivoted_once_and_never_turned_back(db, monkeypatch):
    calls = Counter()
    pivot = HistoryRun.from_rows.__func__

    def counted_pivot(cls, *args, **kwargs):
        calls["from_rows"] += 1
        return pivot(cls, *args, **kwargs)

    monkeypatch.setattr(HistoryRun, "from_rows", classmethod(counted_pivot))
    for name in ("rows", "records"):
        original = getattr(HistoryRun, name)
        monkeypatch.setattr(
            HistoryRun,
            name,
            lambda run, name=name, original=original: calls.update([name])
            or original(run),
        )
    publish = fsio.publish_dir
    monkeypatch.setattr(
        fsio, "publish_dir", lambda *args: calls.update(["publish_dir"]) or publish(*args)
    )
    before = db.sql("SELECT count(*) AS n FROM t")[0]["n"]
    first = DIRECT_ROWS + WOS_ROWS

    db.load("t", make_rows(first, WOS_ROWS))  # one commit, one table
    assert any(
        node.manager.wos_row_count(name)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
    )
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == before + WOS_ROWS
    db.cluster.run_tuple_movers()

    assert calls.pop("publish_dir") > 0
    assert calls == {"from_rows": 1}
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == before + WOS_ROWS


def copy_lines(first, count):
    return [f"{row['metric']}|{row['k']}|{row['v']!r}" for row in make_rows(first, count)]


def wos_rows(db):
    return sum(
        node.manager.wos_row_count(name)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
    )


def test_a_copy_is_columns_from_its_first_byte_to_publish(db, monkeypatch):
    assert not hasattr(TableDefinition, "validate_row")
    calls = Counter()
    pivot = HistoryRun.from_rows.__func__
    monkeypatch.setattr(
        HistoryRun,
        "from_rows",
        classmethod(lambda cls, *args: calls.update(["from_rows"]) or pivot(cls, *args)),
    )
    for owner, name in (
        (HistoryRun, "rows"), (HistoryRun, "records"),
        (types.DataType, "parse_text"), (types.DataType, "validate"),
    ):
        original = getattr(owner, name)
        monkeypatch.setattr(
            owner,
            name,
            lambda *args, name=name, original=original: calls.update([name])
            or original(*args),
        )
    publish = fsio.publish_dir
    monkeypatch.setattr(
        fsio, "publish_dir", lambda *args: calls.update(["publish_dir"]) or publish(*args)
    )
    first = db.sql("SELECT count(*) AS n FROM t")[0]["n"]
    for count, direct in ((12_000, True), (3_000, False)):
        lines = copy_lines(first, count)
        text_bytes = sum(len(line.encode()) + 1 for line in lines)
        journalled = METRICS.counter("journal.bytes_written")
        buffered = wos_rows(db)
        result = db.sql("COPY t FROM STDIN", copy_rows=lines)
        assert (result.loaded, result.rejected) == (count, [])
        assert METRICS.counter("journal.bytes_written") - journalled <= 1.5 * text_bytes
        # K=1: two copies of every row
        assert wos_rows(db) - buffered == (0 if direct else 2 * count)
        first += count
    db.cluster.run_tuple_movers()
    assert calls.pop("publish_dir") > 0
    assert calls == {}
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == first
