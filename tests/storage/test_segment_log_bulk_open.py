"""Property: the bulk segment check opens a log exactly as the line walk does.

``SegmentLog.open`` checks an intact segment whole — one CRC map, one
JSON scan map — and walks a segment a line at a time only when that
check fails.  Over random logs (bodies with escapes, non-ASCII text and
large pads, rotated by count and by size) and random damage to their
published files — torn tails, bit flips, and frames whose CRC holds
around a body that is not JSON, not an object, has no ``kind`` (also
one the client's check would take), is
rejected by the client, is one of two halves that are not JSON alone
but whose comma-join is two valid records, or is valid but framed in a way the bulk check does not read
(an upper-case CRC, a body after a space) — the open must return what
the line walk returns (records and truncated count) and leave the same
bytes on disk, and the log must extend from the same tail.  That holds
for the journal's check (dense LSNs, through ``Journal.open``), for
the Data Collector's (a record has an ``id``) and for the unparsed open
the Data Collector uses.

Then the lazy Data Collector: after random crash-mid-flush histories
(``dc.flush.stage`` / ``dc.flush.publish`` crashed, torn or bit-flipped
at a drawn flush), the rows a reopened collector parses on first read
equal an eager load of the same segments — also when records arrive
before the first read and evict recovered ones — and its id sequence
continues where the eager one would.

``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.
"""

import os
import shutil
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.cluster.clock import SimulatedClock
from repro.dc import DataCollector
from repro.dc.collector import COMPONENTS
from repro.durability import Journal
from repro.errors import InjectedFaultError, ReproError
from repro.faults import FaultPlan
from repro.monitor.retention import RetentionPolicy
from repro.storage import segment_log
from repro.storage.segment_log import SegmentLog

SEGMENT_RECORDS = 4
EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]

#: Bodies whose frame may hold a CRC and still be no record.
CRAFTED = [
    b'{"kind":"k","n":',  # not JSON
    b"[1,2]",  # not an object
    b'"kind"',
    b"7",
    b"",
    b'{"n":1}',  # no kind
    b'{"kind":"k","n":1} ',  # trailing space: json.loads takes it
    b'{"kind":"k"}{"kind":"k"}',  # two values
    b'\xef\xbb\xbf{"kind":"k"}',  # a byte-order mark
    b'{"kind":"k","x":"\xff"}',  # not UTF-8
    b'{"kind":"k","lsn":-1}',  # the client rejects it
    b'{"kind":"k","x":NaN}',  # json.loads takes it
]


def make_log(directory, prefix="seg_"):
    return SegmentLog(
        directory,
        prefix,
        segment_records=SEGMENT_RECORDS,
        stage_point="journal.append.stage",
        publish_point="journal.append.publish",
    )


def read_all(directory):
    found = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            found[name] = handle.read()
    return found


def frame(body: bytes, upper: bool = False) -> bytes:
    head = b"%08x" % zlib.crc32(body)
    return (head.upper() if upper else head) + b" " + body + b"\n"


texts = st.text(
    st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF), max_size=12
)
record_bodies = st.fixed_dictionaries(
    {"text": texts, "pad": st.sampled_from([0, 0, 40, 3000, 9000])}
)

damages = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(0, 2**24)),
    st.tuples(st.just("craft"), st.integers(0, 2**20), st.integers(0, 2**20),
              st.sampled_from(range(len(CRAFTED))), st.booleans()),
    st.tuples(st.just("pair"), st.integers(0, 2**20), st.integers(0, 2**20)),
    st.tuples(st.just("upper"), st.integers(0, 2**20), st.integers(0, 2**20)),
    st.tuples(st.just("space"), st.integers(0, 2**20), st.integers(0, 2**20)),
    st.tuples(st.just("unkind"), st.integers(0, 2**20), st.integers(0, 2**20)),
)


def damage(directory, prefix, how):
    files = sorted(n for n in os.listdir(directory)
                   if n.startswith(prefix) and n.endswith(".log"))
    if not files:
        return
    path = os.path.join(directory, files[how[1] % len(files)])
    with open(path, "rb") as handle:
        raw = handle.read()
    kind = how[0]
    if kind == "truncate":
        raw = raw[: how[2] % (len(raw) + 1)]
    elif kind == "flip":
        if raw:
            bit = how[2] % (8 * len(raw))
            raw = bytearray(raw)
            raw[bit // 8] ^= 1 << bit % 8
            raw = bytes(raw)
    else:
        lines = raw.splitlines(keepends=True)
        if not lines:
            return
        at = how[2] % len(lines)
        body = lines[at][9:-1]
        if kind == "craft":
            lines[at] = frame(CRAFTED[how[3]], upper=how[4])
        elif kind == "pair" and len(lines) > 1:
            # two records made two bodies that are not JSON alone but
            # whose comma-join is both records again
            at = min(at, len(lines) - 2)
            first = lines[at][9:-2] + b',"zz":[1'  # the body without its "}"
            second = b"2]}," + lines[at + 1][9:-1]
            lines[at : at + 2] = [frame(first), frame(second)]
        elif kind == "upper":
            lines[at] = frame(body, upper=True)
        elif kind == "space":
            lines[at] = frame(b" " + body)
        elif kind == "unkind":  # a record the client takes, without its kind
            lines[at] = frame(body.replace(b'"kind":"k",', b""))
        raw = b"".join(lines)
    with open(path, "wb") as handle:
        handle.write(raw)


def appended_log(directory, prefix, batches, keyed):
    log = make_log(directory, prefix)
    number = 0
    for batch in batches:
        bodies = []
        for drawn in batch:
            body = {"kind": "k", "text": drawn["text"], "pad": "x" * drawn["pad"]}
            body[keyed] = number
            number += 1
            bodies.append(body)
        log.append(bodies)


def dense_lsns():
    expected = [0]

    def check(body):
        if body.get("lsn") != expected[0]:
            return False
        expected[0] += 1
        return True

    return check


def has_id(body):
    return "id" in body


def opened(directory, prefix, client):
    """What an open returns, and the state a later append starts from."""
    log = make_log(directory, prefix)
    if client == "unparsed":
        records, truncated = log.open(parse=False)
    else:
        records, truncated = log.open(valid=dense_lsns() if client == "journal" else has_id)
    state = (log.active_index, list(log._frames), log._bytes, dict(log._counts))
    log.append([{"kind": "k", "after": True}])
    return records, truncated, state


def both_ways(directory, run):
    """``run(directory)`` on the log and, walked, on a copy of it: the
    results and the bytes left on disk."""
    copy = directory + "-walked"
    shutil.copytree(directory, copy)
    bulk = run(directory)
    with pytest.MonkeyPatch.context() as patch:  # the bulk check off
        patch.setattr(segment_log, "_check_segment", lambda raw, parse: None)
        walk = run(copy)
    return (bulk, read_all(directory)), (walk, read_all(copy))


def outcome(call):
    """What ``call`` returns, or the type of what it raises: a journal
    whose genesis is gone refuses to open, and a hand-made record the
    journal's check takes may not carry what a record needs."""
    try:
        return call()
    except (ReproError, KeyError) as error:
        return type(error).__name__


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    batches=st.lists(st.lists(record_bodies, max_size=2 * SEGMENT_RECORDS + 1),
                     min_size=1, max_size=5),
    hurt=st.lists(damages, max_size=3),
    client=st.sampled_from(["journal", "dc", "unparsed"]),
)
def test_the_bulk_open_is_the_line_walk(batches, hurt, client):
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "log")
        os.makedirs(directory)
        appended_log(directory, "seg_", batches, "lsn" if client == "journal" else "id")
        for how in hurt:
            damage(directory, "seg_", how)
        bulk, walk = both_ways(directory, lambda d: opened(d, "seg_", client))
        assert bulk == walk


def journal_state(directory):
    journal = Journal.open(directory, segment_records=SEGMENT_RECORDS)
    replay = journal.last_replay
    records = [(r.lsn, r.kind, r.payload) for r in replay.records]
    journal._append("note", {"after": True})
    return records, replay.truncated_records, journal.record_count()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(0, 2 * SEGMENT_RECORDS + 1), min_size=1, max_size=5),
    hurt=st.lists(damages, max_size=3),
    text=texts,
)
def test_a_journal_opens_as_the_line_walk_opens_it(sizes, hurt, text):
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "journal")
        journal = Journal.create(directory, {"node_count": 1},
                                 segment_records=SEGMENT_RECORDS)
        for size in sizes:
            for n in range(size):
                journal._append("note", {"n": n, "text": text})
        for how in hurt:
            damage(directory, "seg_", how)
        bulk, walk = both_ways(directory, lambda d: outcome(lambda: journal_state(d)))
        assert bulk == walk


def eager_rows(directory, max_records):
    """The rows an eager open would serve: every component's valid
    prefix parsed at once, the record bound applied, and the next id."""
    rows, next_ids = {}, {}
    for name in COMPONENTS:
        log = SegmentLog(directory, f"{name}_", segment_records=1,
                         stage_point="-", publish_point="-")
        recovered, _ = log.open(valid=has_id)
        records = [
            {"record_id": b["id"], "tick": b.get("tick", 0), "kind": b["kind"],
             **b.get("payload", {})}
            for _, b in recovered
        ]
        next_ids[name] = max((r["record_id"] for r in records), default=0) + 1
        rows[name] = records[len(records) - max_records:] if len(records) > max_records else records
    return rows, next_ids


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["requests", "errors", "node_events"]),
                  texts, st.booleans()),
        min_size=1, max_size=40,
    ),
    point=st.sampled_from(["dc.flush.stage", "dc.flush.publish"]),
    action=st.sampled_from(["crash", "torn", "bitflip"]),
    skip=st.integers(0, 6),
    fault_seed=st.integers(0, 2**16),
    after=st.integers(0, 14),
)
def test_lazy_history_reads_as_an_eager_load(steps, point, action, skip, fault_seed, after):
    if point == "dc.flush.stage" and action == "bitflip":
        action = "torn"  # a stage is never published to flip
    with tempfile.TemporaryDirectory() as root:
        directory = os.path.join(root, "dc")
        os.makedirs(directory)
        retention = RetentionPolicy(max_records=12)

        def collector():
            return DataCollector(directory, clock=SimulatedClock(), persist=True,
                                 flush_interval=3, segment_records=SEGMENT_RECORDS,
                                 retention=retention)

        dc = collector()
        plan = FaultPlan(seed=fault_seed).arm(point, action, skip=skip)
        try:
            with plan:
                for component, text, flush in steps:
                    dc.record(component, "k", text=text)
                    if flush:
                        dc.flush()
        except InjectedFaultError:
            pass
        copy = root + "/eager"
        shutil.copytree(directory, copy)
        expected, next_ids = eager_rows(copy, retention.max_records)

        lazy = collector()
        assert lazy.counts() == {**{n: len(rows) for n, rows in expected.items()},
                                 "profiles": 0}
        for name in COMPONENTS:  # records before the first read evict frames
            for n in range(after):
                record = lazy.record(name, "after", n=n)
                assert record.record_id == next_ids[name] + n, name
                expected[name].append(record.row())
            kept = expected[name][-retention.max_records:]
            assert lazy.rows(name) == kept, name


@pytest.mark.parametrize("extra_seed", EXTRA_SEEDS)
def test_seeded_runs(extra_seed):
    seed(extra_seed)(test_the_bulk_open_is_the_line_walk)()
    seed(extra_seed)(test_a_journal_opens_as_the_line_walk_opens_it)()
    seed(extra_seed)(test_lazy_history_reads_as_an_eager_load)()


def test_a_hand_made_frame_ends_the_lazy_history_as_it_ends_an_eager_one(tmp_path):
    """A frame whose CRC holds around a body that is no record is found
    on first read: the rows before it stay, the component's segments
    are rewritten without it, and the next open is clean."""
    directory = str(tmp_path / "dc")

    def collector():
        return DataCollector(directory, clock=SimulatedClock(), persist=True,
                             flush_interval=1, segment_records=SEGMENT_RECORDS)

    dc = collector()
    for n in range(6):
        dc.record("requests", "select", n=n)
    path = os.path.join(directory, "requests_000001.log")
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    lines[2] = frame(b'{"id":3,"payload":{}}')  # no kind
    with open(path, "wb") as handle:
        handle.write(b"".join(lines))
    lazy = collector()
    assert lazy.counts()["requests"] == 6  # nothing is parsed at the open
    assert [r["n"] for r in lazy.rows("requests")] == [0, 1]
    lazy.record("requests", "select", n=9)
    again = collector()
    assert [r["n"] for r in again.rows("requests")] == [0, 1, 9]
    assert again.record("requests", "select").record_id == 8
