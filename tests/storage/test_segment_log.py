"""The segment log primitive: a crash/damage property, and the bytes.

``SegmentLog`` sits under both the journal and the Data Collector, so
its recovery rule is tested once, here, against arbitrary damage; the
golden-bytes test pins the on-disk format both clients produce through
it, so the format cannot drift unnoticed.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.clock import SimulatedClock
from repro.dc import DataCollector
from repro.durability import Journal
from repro.storage.segment_log import SEGMENT_BYTES, SegmentLog, _frame

SEGMENT_RECORDS = 3


def make_log(directory, prefix="seg_", segment_records=SEGMENT_RECORDS):
    return SegmentLog(
        directory,
        prefix,
        segment_records=segment_records,
        stage_point="journal.append.stage",
        publish_point="journal.append.publish",
    )


def bodies(start, count, big=()):
    """Records numbered from ``start``; one whose number is in ``big``
    is by itself larger than the size budget of a segment."""
    return [
        {"kind": "k", "n": n, **({"pad": "x" * SEGMENT_BYTES} if n in big else {})}
        for n in range(start, start + count)
    ]


def dense_from_zero():
    """The client-side schema check the journal uses: a record whose
    sequence number is not the next one is damage.  Only this can see
    whole records missing — the log itself allows holes, because its
    clients prune."""
    expected = [0]

    def check(body):
        if body.get("n") != expected[0]:
            return False
        expected[0] += 1
        return True

    return check


def published(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".log"))


def damage(directory, kind, pick):
    """Apply one damage to the published files; ``pick`` selects where."""
    files = published(directory)
    victim = os.path.join(directory, files[pick % len(files)])
    size = os.path.getsize(victim)
    if kind == "truncate":
        os.truncate(victim, (pick // 7) % (size + 1))
    elif kind == "flip":
        bit = (pick // 7) % (size * 8)
        with open(victim, "r+b") as handle:
            handle.seek(bit // 8)
            byte = handle.read(1)[0]
            handle.seek(bit // 8)
            handle.write(bytes([byte ^ (1 << (bit % 8))]))
    elif kind == "delete":
        os.remove(victim)
    elif kind == "tmp":
        with open(victim + ".tmp", "wb") as handle:
            handle.write(b"half a stag")


@settings(max_examples=150, deadline=None)
@given(
    # sizes that land before, on and across a rotation (and the empty batch)
    batches=st.lists(st.integers(0, 2 * SEGMENT_RECORDS + 1), min_size=1, max_size=5),
    kind=st.sampled_from(["none", "truncate", "flip", "delete", "tmp"]),
    pick=st.integers(0, 2**20),
    checked=st.booleans(),
    extra=st.integers(1, SEGMENT_RECORDS + 1),
    # which records are bulk ones, sealing their segment by size
    big=st.sets(st.integers(0, 5 * (2 * SEGMENT_RECORDS + 1) + SEGMENT_RECORDS)),
)
def test_open_recovers_a_prefix_and_the_log_extends_from_it(
    batches, kind, pick, checked, extra, big
):
    with tempfile.TemporaryDirectory() as directory:
        log = make_log(directory)
        appended = 0
        for size in batches:
            log.append(bodies(appended, size, big))
            appended += size
        if published(directory):
            damage(directory, kind, pick)
        # a segment lost, or cut exactly between two records, looks like
        # a pruned or short one: only the client's check can see it
        checked = checked or kind in ("delete", "truncate")

        reopened = make_log(directory)
        records, truncated = reopened.open(
            valid=dense_from_zero() if checked else None
        )
        recovered = [body["n"] for _, body in records]
        assert recovered == list(range(len(recovered)))  # a prefix...
        assert len(recovered) <= appended  # ...of what was appended
        if kind in ("none", "tmp"):
            assert (len(recovered), truncated) == (appended, 0)
        assert not [n for n in os.listdir(directory) if n.endswith(".tmp")]

        reopened.append(bodies(len(recovered), extra, big))
        again, truncated = make_log(directory).open(valid=dense_from_zero())
        assert [body["n"] for _, body in again] == list(
            range(len(recovered) + extra)
        )
        assert truncated == 0


def file_states(directory):
    states = {}
    for name in published(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            stat = os.stat(path)
            states[name] = (handle.read(), stat.st_mtime_ns, stat.st_ino)
    return states


@settings(max_examples=100, deadline=None)
@given(
    # padding of each body of each batch: small records, ones that fill
    # the budget between them, and ones that overflow it alone
    batches=st.lists(
        st.lists(
            st.sampled_from([0, 0, 0, 300, SEGMENT_BYTES // 3, SEGMENT_BYTES + 1]),
            max_size=5,
        ),
        min_size=1,
        max_size=8,
    ),
    segment_records=st.sampled_from([SEGMENT_RECORDS, 1000]),
    reopen_at=st.integers(0, 8),
)
def test_an_append_costs_its_frames_and_less_than_the_budget(
    batches, segment_records, reopen_at
):
    """Whatever was appended before: a call writes less than
    ``SEGMENT_BYTES`` beside the frames it adds, and a segment that has
    a successor is never published again."""
    with tempfile.TemporaryDirectory() as directory:
        log = make_log(directory, segment_records=segment_records)
        sealed, appended = {}, 0
        for step, pads in enumerate(batches):
            if step == reopen_at:  # the recovered tail keeps the count
                log = make_log(directory, segment_records=segment_records)
                log.open()
            batch = [{"kind": "k", "pad": "x" * pad} for pad in pads]
            frames = sum(len(_frame(body).encode("utf-8")) for body in batch)
            appended += frames
            cost = log.append(batch)
            assert cost.framed == frames <= cost.written
            assert cost.written < SEGMENT_BYTES + frames
            states = file_states(directory)
            for name in sorted(states)[:-1]:
                assert sealed.setdefault(name, states[name]) == states[name], name
        assert sum(len(data) for data, _, _ in states.values()) == appended


def test_open_leaves_another_log_in_the_directory_alone(tmp_path):
    directory = str(tmp_path)
    ours, theirs = make_log(directory, "a_"), make_log(directory, "b_")
    ours.append(bodies(0, 2))
    theirs.append(bodies(0, 4))
    for name in ("a_000001.log.tmp", "b_000002.log.tmp"):
        (tmp_path / name).write_bytes(b"staged")
    records, _ = make_log(directory, "a_").open()
    assert len(records) == 2
    assert sorted(os.listdir(directory)) == [
        "a_000001.log", "b_000001.log", "b_000002.log", "b_000002.log.tmp",
    ]


def read_all(directory):
    found = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            found[name] = handle.read()
    return found


def test_golden_bytes_journal(tmp_path):
    directory = str(tmp_path / "journal")
    journal = Journal.create(
        directory, {"node_count": 3, "k_safety": 1}, segment_records=3
    )
    journal.log_ddl("create_table", {"table": {"name": "t"}})
    journal.log_commit(
        epoch=2,
        snapshot_epoch=1,
        inserts={"t": {"k": [1], "v": ["a"]}},
        deletes=[("t", {"k": [0], "v": [None]})],
        direct_to_ros=False,
    )
    journal.log_floor(1)
    # segment 1 holds a commit past the floor, so the checkpoint keeps it
    journal.write_checkpoint(
        floor=1, current_epoch=3, ahm=0, catalog={"tables": [], "families": []}
    )
    journal.log_floor(2)
    assert read_all(directory) == {
        "ckpt_000001.json": (
            b'8fead623 {"kind":"checkpoint","lsn":3,"payload":{"ahm":0,'
            b'"catalog":{"families":[],"tables":[]},"current_epoch":3,'
            b'"floor":1,"genesis":{"format":1,"k_safety":1,"node_count":3},'
            b'"lsn":3}}\n'
        ),
        "seg_000001.log": (
            b'3093c652 {"kind":"genesis","lsn":0,"payload":{"format":1,'
            b'"k_safety":1,"node_count":3}}\n'
            b'3552d0ca {"kind":"create_table","lsn":1,"payload":{"table":'
            b'{"name":"t"}}}\n'
            b'4dfcf388 {"kind":"commit","lsn":2,"payload":{"deletes":'
            b'[{"columns":{"k":[0],"v":[null]},"table":"t"}],"direct_to_ros":'
            b'false,"epoch":2,"inserts":{"t":{"k":[1],"v":["a"]}},'
            b'"snapshot_epoch":1}}\n'
        ),
        "seg_000002.log": (
            b'41d6d6f4 {"kind":"floor","lsn":3,"payload":{"epoch":1}}\n'
            b'72885fda {"kind":"floor","lsn":4,"payload":{"epoch":2}}\n'
        ),
    }


def test_golden_bytes_data_collector(tmp_path):
    directory = str(tmp_path / "dc")
    dc = DataCollector(
        directory,
        clock=SimulatedClock(),
        persist=True,
        flush_interval=100,
        segment_records=3,
    )
    for i in range(4):
        dc.record("requests", "select", sql=f"q{i}")
    dc.record("errors", "E", source="t", detail="")
    dc.flush()  # one batch seals requests segment 1 and opens segment 2
    dc.record("requests", "insert", sql="q4", rows=2)
    dc.flush()
    assert read_all(directory) == {
        "errors_000001.log": (
            b'1b3aa45b {"id":1,"kind":"E","payload":{"detail":"",'
            b'"source":"t"},"tick":0}\n'
        ),
        "requests_000001.log": (
            b'bef4f533 {"id":1,"kind":"select","payload":{"sql":"q0"},"tick":0}\n'
            b'344000e4 {"id":2,"kind":"select","payload":{"sql":"q1"},"tick":0}\n'
            b'0dbb75db {"id":3,"kind":"select","payload":{"sql":"q2"},"tick":0}\n'
        ),
        "requests_000002.log": (
            b'fa58ed0b {"id":4,"kind":"select","payload":{"sql":"q3"},"tick":0}\n'
            b'd2fa0362 {"id":5,"kind":"insert","payload":{"rows":2,"sql":"q4"},'
            b'"tick":0}\n'
        ),
    }
