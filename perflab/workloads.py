"""The four traffic mixes.

Each workload is one schema, its set-up size, and a *schedule*: the
flat list of operations one closed-loop client sends, in order.  All
four speak the same operation vocabulary (so every end-to-end metric
is measured on every workload) but in very different proportions — the
majority traffic is what the workload is named for, the rest is the
minority a real deployment of that kind still sees (a report server
takes the odd late order; a loader is spot-checked with reads).

Counts are fixed, not durations, so a run's operation counts repeat
exactly; ``--seconds`` scales them linearly from the sizes below, which
give about ``REF_SECONDS`` of timed phase on the box the baseline was
taken on.  Names are fixed: later issues cite them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .data import CStoreSchema, MeterSchema

#: ``--seconds`` at which the schedules below are used unscaled.
REF_SECONDS = 15

#: An operation of a schedule: (name, argument).  ``copy`` takes the
#: number of lines; everything else ignores the argument.
Op = tuple

#: Minority writes of the read-mostly workloads: this many bursts, each
#: one small COPY batch, a few single-row commits and a mover cycle.
SIDE_BURSTS = 9
SIDE_COPY_LINES = 330
SIDE_INSERTS = 4


def _scaled(count: int, k: float) -> int:
    return max(1, round(count * k))


def _with_side_writes(reads: list[Op]) -> list[Op]:
    """A read-mostly schedule with its late arrivals, in bursts spread
    evenly over the reads: the write-side metrics then see as many
    moments of the machine as the read-side ones, not one."""
    chunk = -(-len(reads) // SIDE_BURSTS)
    ops: list[Op] = []
    for start in range(0, len(reads), chunk):
        ops += reads[start : start + chunk]
        ops.append(("copy", SIDE_COPY_LINES))
        ops += [("insert", 0)] * SIDE_INSERTS
        ops.append(("mover", 0))
    return ops


def olap_report(k: float) -> list[Op]:
    reads: list[Op] = []
    for _ in range(_scaled(36, k)):
        reads += [("scan_pass", 0)] * 3 + [("join_pass", 0)]
        reads += [("lookup", 0), ("lookup", 0), ("rollup", 0)]
    return _with_side_writes(reads)


def dashboard(k: float) -> list[Op]:
    reads: list[Op] = []
    for unit in range(_scaled(400, k)):
        reads += [("lookup", 0)] * 3 + [("ranges", 0), ("rollup", 0)]
        if unit % 20 == 0:
            reads += [("scan_pass", 0), ("join_pass", 0)]
    return _with_side_writes(reads)


#: bulk_load COPY sizes: above and below the direct-to-ROS threshold.
BULK_BIG = 12_000
BULK_SMALL = 3_000


def bulk_load(k: float) -> list[Op]:
    ops: list[Op] = []
    for _ in range(_scaled(3, k)):
        ops += [("copy", BULK_BIG), ("copy", BULK_SMALL), ("copy", BULK_SMALL)]
        ops.append(("mover", 0))
    # spot checks once the waves are in (reads only verify), over one
    # state of the database so their medians mean one thing
    for _ in range(_scaled(12, k)):
        ops += [("lookup", 0)] * 3 + [("rollup", 0)]
        ops += [("scan_pass", 0), ("join_pass", 0)] + [("insert", 0)] * 3
    return ops


TRICKLE_COPY_LINES = 100


def trickle_mixed(k: float) -> list[Op]:
    units = _scaled(100, k)
    movers = {(units * step) // 20 for step in (3, 6, 9, 12, 15)}
    # Every DELETE comes after the last mover cycle, so its commit stays
    # in the journal tail and is replayed by each cold open.  A delete
    # vector already under the durable floor is lost by the *second*
    # open at this commit (truncate_after_epoch rebuilds containers and
    # keeps their delete vectors in memory only) — see README, "Known
    # defects the workloads steer around".
    deletes = {(16 * units) // 20, (17 * units) // 20, (18 * units) // 20}
    ops: list[Op] = []
    for unit in range(units):
        ops.append(("copy", TRICKLE_COPY_LINES))
        ops += [("insert", 0)] * 4 + [("lookup", 0)] * 4 + [("rollup", 0)]
        if unit % 5 == 0:
            ops += [("scan_pass", 0), ("join_pass", 0)]
        if unit in movers:
            ops.append(("mover", 0))
        if unit in deletes:
            ops.append(("delete", 0))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schedule: Callable[[float], list]
    #: (seed, quick, feed needs) -> schema object
    schema: Callable
    #: statements go through one governed ``SqlService`` session
    #: instead of ``Database.sql``
    service: bool = False


def _feed_needs(ops: list[Op]) -> tuple[int, int]:
    """(COPY lines, single-row INSERTs) a schedule consumes."""
    lines = sum(arg for name, arg in ops if name == "copy")
    inserts = sum(1 for name, _ in ops if name == "insert")
    return lines, inserts


def _cstore(scale: float):
    def make(seed: int, quick: bool, ops: list[Op]) -> CStoreSchema:
        lines, inserts = _feed_needs(ops)
        return CStoreSchema(seed, 0.04 if quick else scale, lines, inserts)

    return make


def _meters(preload_rows: int):
    def make(seed: int, quick: bool, ops: list[Op]) -> MeterSchema:
        lines, _ = _feed_needs(ops)
        if quick:
            return MeterSchema(seed, 6, 20, min(preload_rows, 2400), lines)
        return MeterSchema(seed, 18, 126, preload_rows, lines)

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "olap_report",
            "Table 3 traffic: scan and join passes over the C-Store harness "
            "tables; execution kernels, row fallback and storage decode do "
            "the work, the write path almost none",
            olap_report,
            _cstore(0.5),
        ),
        Workload(
            "dashboard",
            "short sort-prefix lookups, ranges and rollups on meter telemetry: "
            "per-statement fixed cost (sql, optimizer, profile, dc record) and "
            "the seek/pruning path carry the time, scan kernels little",
            dashboard,
            _meters(38_556),
        ),
        Workload(
            "bulk_load",
            "Table 4b traffic: COPY waves to ROS and WOS with mover cycles "
            "between, into a table that already holds one wave; parse, routing, "
            "encode, container write, journal, "
            "moveout and mergeout, then restart; reads only verify",
            bulk_load,
            _meters(BULK_BIG + 2 * BULK_SMALL),
        ),
        Workload(
            "trickle_mixed",
            "hundreds of tiny commits beside reads over WOS, small containers "
            "and delete vectors through one governed session; a read gain "
            "bought with write cost (or the reverse) shows here",
            trickle_mixed,
            _meters(30_000),
            service=True,
        ),
    )
}


def schedule_for(workload: Workload, seconds: float, quick: bool) -> list[Op]:
    """The workload's operations for a run of ``--seconds``; ``quick``
    shrinks it to a smoke-test size for ``perflab/tests``."""
    return workload.schedule(0.04 if quick else seconds / REF_SECONDS)
