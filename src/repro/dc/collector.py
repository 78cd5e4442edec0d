"""The Data Collector: durable, retention-bounded operational history.

Vertica's Data Collector records every operationally interesting event
— statement completions, resource acquisitions, lock waits, node
up/down transitions, tuple-mover cycles, errors — into per-component
ring buffers that are periodically persisted, then serves them back as
ordinary SQL tables.  This module is that subsystem for the
reproduction, and the only store of operational history in it: every
``v_monitor`` history table (``dc_*``, ``query_profiles``) is a
column map over one of these rings.

Every event flows through one :meth:`DataCollector.record` call into a
per-component ring bounded by a :class:`RetentionPolicy` (record count
plus optional simulated-clock tick age).  When persistence is enabled
the collector mirrors each ring to disk through one
:class:`repro.storage.segment_log.SegmentLog` per component, all
sharing ``<database>/dc/`` (``requests_000001.log`` ...), the primitive
the write-ahead journal sits on: CRC-framed records, atomic
stage/publish per flush (fault points ``dc.flush.stage`` /
``dc.flush.publish`` for the kill-mid-flush chaos checks), rotation at
``segment_records`` records or ``segment_log.SEGMENT_BYTES`` — a flush
rewrites less than that beside its own records, never the component's
history — and recovery to a valid record prefix, never a torn middle.
Operational history so survives ``Database.open()`` cold starts; sealed
segments past the retention cap are pruned.  Recovered history is
kept as the CRC-checked frames it was read as and parsed on the ring's
first read (:meth:`DataCollector.rows`): recording, flushing, counting
and count eviction never need a recovered record's fields, so an open
and the statements after it do not pay for history nobody asked for.
The one
exception is the ``profiles`` ring (per-operator query profiles): it is
memory-only — no segment log, never batched for a flush — so profiling
a SELECT writes nothing.

Flushes are batched (every ``flush_interval`` records by default, plus
explicit :meth:`flush` calls at cluster maintenance points) so the
per-statement cost stays a dict append under one mutex —
``benchmarks/bench_dc_overhead.py`` keeps the collector under a 10%
statement-throughput tax.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from operator import itemgetter

from ..lint.concur.runtime import RACES, TrackedLock
from ..monitor.registry import METRICS
from ..monitor.retention import DEFAULT_RETENTION, RetentionPolicy
from ..storage.segment_log import SEGMENT_SUFFIX, SegmentLog, parse_bodies

#: Persisted component names (= ring buffers = on-disk segment families
#: = the ``v_monitor`` history tables built on top).
COMPONENTS = (
    "requests",
    "resource_acquisitions",
    "lock_waits",
    "node_events",
    "tuple_mover",
    "errors",
)
#: Records kept by the seventh, memory-only component ``profiles``: one
#: per profiled SELECT carrying its frozen operator tree (``record_id``
#: is the query id), so the bound is tighter than the shared retention.
PROFILE_CAPACITY = 256

#: Records buffered across all components before an automatic flush.
DEFAULT_FLUSH_INTERVAL = 16
#: Records per on-disk segment before the component rotates files.
DEFAULT_SEGMENT_RECORDS = 128
#: The id at the head of a frame the collector wrote (its keys are
#: sorted, and ``id`` sorts first).
_FRAME_ID = re.compile(rb'\{"id":(\d+)[,}]')
#: The fields of every record a flush writes: each is required.
_FIELDS = {"id", "tick", "kind", "payload"}


@dataclass(frozen=True)
class DCRecord:
    """One Data Collector event."""

    #: Per-component monotonically increasing id (dense from 1 within
    #: one database incarnation; recovery continues the sequence).
    record_id: int
    #: Simulated-clock tick the event was recorded at.
    tick: int
    #: Component-specific event kind (e.g. ``granted``, ``moveout``).
    kind: str
    #: Event fields; JSON-serializable values only in a persisted
    #: component.
    payload: dict

    def row(self) -> dict:
        """The record flattened for the ``dc_*`` table producers."""
        return {"record_id": self.record_id, "tick": self.tick,
                "kind": self.kind, **self.payload}


@dataclass
class _Ring:
    """One component's in-memory ring plus its persistence bookkeeping.

    All fields are owned by the enclosing collector and guarded by its
    mutex; the dataclass only groups them per component.
    """

    #: The component's on-disk history (``<component>_NNNNNN.log``);
    #: ``None`` for the memory-only ring, which is never flushed.
    log: SegmentLog | None
    #: Record-count bound (oldest evicted first).
    max_records: int
    records: list[DCRecord] = field(default_factory=list)
    #: Bodies recovered from disk and not read yet, oldest first, all
    #: older than ``records``: CRC-checked bytes, parsed on first read.
    frames: list[bytes] = field(default_factory=list)
    next_id: int = 1
    #: Records appended since the component's last flush.
    pending: list[DCRecord] = field(default_factory=list)


class DataCollector:
    """Retention-bounded operational event rings with durable segments.

    One instance per :class:`repro.cluster.Cluster`; the cluster, the
    lock manager, the resource governor, the tuple movers and the SQL
    front end all feed it (duck-typed ``collector`` attributes, so the
    lower layers never import this package).  ``persist=False`` keeps
    everything in memory (throwaway/test clusters); ``fresh=True``
    wipes any previous incarnation's segments; ``persist=True,
    fresh=False`` recovers history from disk — the ``Database.open()``
    cold-start path.
    """

    def __init__(
        self,
        directory: str,
        *,
        clock=None,
        persist: bool = False,
        fresh: bool = False,
        retention: RetentionPolicy | None = None,
        flush_interval: int = DEFAULT_FLUSH_INTERVAL,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        enabled: bool | None = None,
    ):
        self.directory = directory
        self.clock = clock
        self.persist = persist
        self.retention = retention or DEFAULT_RETENTION
        self.flush_interval = max(flush_interval, 1)
        self.segment_records = max(segment_records, 1)
        if enabled is None:
            enabled = os.environ.get("REPRO_DC_DISABLE", "") not in ("1", "true")
        #: Kill switch: a disabled collector's record() is a no-op
        #: (``REPRO_DC_DISABLE=1``, or the overhead bench's off leg).
        self.enabled = enabled
        self._lock = TrackedLock("DataCollector._lock")
        # concurrency: guarded-by(self._lock) — per-component rings and
        # the cross-component pending-record counter.
        self._rings: dict[str, _Ring] = {
            name: _Ring(
                SegmentLog(
                    directory,
                    f"{name}_",
                    segment_records=self.segment_records,
                    stage_point="dc.flush.stage",
                    publish_point="dc.flush.publish",
                ),
                self.retention.max_records,
            )
            for name in COMPONENTS
        }
        self._rings["profiles"] = _Ring(
            None, min(PROFILE_CAPACITY, self.retention.max_records)
        )
        self._dirty = 0  # concurrency: guarded-by(self._lock)
        if fresh:
            self._wipe()
        elif persist:
            self._recover()

    # -- recording ------------------------------------------------------

    def record(
        self, component: str, kind: str, *, defer_flush: bool = False,
        **payload,
    ) -> DCRecord | None:
        """Append one event to ``component``'s ring.

        Stamps the current simulated-clock tick, evicts past retention,
        and (when persisting) batches the record for the next flush.
        Returns ``None`` when the collector is disabled.

        ``defer_flush=True`` is for callers recording from inside their
        own critical section (the lock manager and resource governor
        hold their condition variables across the call): the record
        still enters the ring and the pending batch, but the
        threshold-triggered segment flush — synchronous file I/O plus
        the ``dc.flush.*`` fault points — is skipped, so no disk write
        or injected fault can happen under the caller's lock.  The
        batch is persisted by the next non-deferred record that crosses
        the threshold or by an explicit :meth:`flush`.
        """
        if not self.enabled:
            return None
        with self._lock:
            ring = self._rings[component]
            tick = self.clock.now if self.clock is not None else 0
            record = DCRecord(ring.next_id, tick, kind, payload)
            ring.next_id += 1
            ring.records.append(record)
            evicted = self._evict_ring(ring, tick)
            METRICS.fold({"dc.records": 1, "dc.records_evicted": evicted})
            RACES.note_write("DataCollector._rings", "DataCollector.record")
            if self.persist and ring.log is not None:
                ring.pending.append(record)
                self._dirty += 1
                if not defer_flush and self._dirty >= self.flush_interval:
                    self._flush_locked()
            return record

    def on_tick(self) -> None:
        """Clock-advance hook: age out expired records everywhere.

        Called by :meth:`repro.cluster.supervisor.ClusterSupervisor.tick`
        after it advances the simulated clock, so age-based eviction is
        tick-driven and deterministic.
        """
        if not self.enabled or self.clock is None:
            return
        if self.retention.max_age_ticks is None:
            return
        with self._lock:
            now = self.clock.now
            evicted = sum(self._evict_ring(ring, now) for ring in self._rings.values())
            if evicted:
                METRICS.inc("dc.records_evicted", evicted)

    def _evict_ring(self, ring: _Ring, now: int) -> int:
        """Apply both retention bounds to one ring (caller holds lock);
        returns how many records went, for the caller to count."""
        evicted = self._evict_over(ring)
        if ring.frames and self.retention.max_age_ticks is not None:
            self._read_frames(ring)  # an age bound needs the ticks
        while ring.records and self.retention.expired(
            ring.records[0].tick, now
        ):
            del ring.records[0]
            evicted += 1
        return evicted

    @staticmethod
    def _evict_over(ring: _Ring) -> int:
        """Evict the oldest records past the ring's record bound, unread
        frames first (they are older); returns how many went."""
        over = len(ring.frames) + len(ring.records) - ring.max_records
        if over <= 0:
            return 0
        unread = min(over, len(ring.frames))
        del ring.frames[:unread]
        del ring.records[: over - unread]
        return over

    # -- reads ----------------------------------------------------------

    def rows(self, component: str) -> list[dict]:
        """Snapshot of one component's retained records as table rows,
        oldest first.  Each row is a fresh dict — readers can never
        observe a record mid-mutation (records are frozen) or tear the
        list (copied under the mutex)."""
        with self._lock:
            ring = self._rings[component]
            if ring.frames:
                self._read_frames(ring)
            return [record.row() for record in ring.records]

    def counts(self) -> dict[str, int]:
        """Retained record count per component (tests, console)."""
        with self._lock:
            return {
                name: len(ring.frames) + len(ring.records)
                for name, ring in sorted(self._rings.items())
            }

    def reset(self) -> None:
        """Drop all in-memory records (ids keep increasing; the disk
        segments are untouched)."""
        with self._lock:
            for ring in self._rings.values():
                ring.records.clear()
                ring.frames.clear()
                ring.pending.clear()
            self._dirty = 0

    # -- persistence ----------------------------------------------------

    def flush(self) -> None:
        """Write every pending record to its component's segments."""
        if not (self.enabled and self.persist):
            return
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._dirty = 0
        for name in COMPONENTS:
            ring = self._rings[name]
            if not ring.pending:
                continue
            batch, ring.pending = ring.pending, []
            os.makedirs(self.directory, exist_ok=True)
            cost = ring.log.append(
                {
                    "id": record.record_id,
                    "tick": record.tick,
                    "kind": record.kind,
                    "payload": record.payload,
                }
                for record in batch
            )
            METRICS.inc("dc.bytes_written", cost.written)
            METRICS.inc("dc.bytes_framed", cost.framed)
            self._prune_segments(ring)
            METRICS.inc("dc.flushes")

    def _prune_segments(self, ring: _Ring) -> None:
        """Drop the oldest sealed segments the retention cap no longer
        needs: those without which the sealed ones still hold
        ``max_records`` (segments sealed by size differ in record count;
        the active segment never goes)."""
        sealed = ring.log.sealed()
        total = sum(count for _, count in sealed)
        for index, count in sealed:
            total -= count
            if total < ring.max_records:
                return
            ring.log.drop(index)
            METRICS.inc("dc.segments_pruned")

    # -- cold-start recovery --------------------------------------------

    def _recover(self) -> None:
        """Take every component's valid frame prefix from disk.

        The frames stay unparsed (:meth:`_read_frames` parses them on
        the ring's first read); the retention cap applies to them now,
        and each ring's id sequence continues past the id at the head
        of its newest frame.  The simulated clock starts at 0, so no
        age bound can expire a recovered record at the open itself.
        """
        recovered_total = 0
        truncated_total = 0
        evicted = 0
        for name in COMPONENTS:
            ring = self._rings[name]
            recovered, truncated = ring.log.open(parse=False)
            recovered_total += len(recovered)
            truncated_total += truncated
            ring.frames = list(map(itemgetter(1), recovered))
            if not ring.frames:
                continue
            newest = _FRAME_ID.match(ring.frames[-1])
            if newest is None:  # not a frame this collector wrote
                self._read_frames(ring)
                if ring.records:
                    ring.next_id = max(r.record_id for r in ring.records) + 1
            else:
                ring.next_id = int(newest.group(1)) + 1
            evicted += self._evict_over(ring)
        METRICS.inc("dc.recovered_records", recovered_total)
        METRICS.inc("dc.truncated_records", truncated_total)
        if evicted:
            METRICS.inc("dc.records_evicted", evicted)

    def _read_frames(self, ring: _Ring) -> None:
        """Parse the ring's recovered frames into the records before its
        own (caller holds the lock): one bulk parse
        (:func:`repro.storage.segment_log.parse_bodies`).

        A frame whose CRC holds but whose body is no record, or lacks a
        field the flush writes — only a hand-made one can — ends the
        history, as an eager open would
        have cut it: it and every frame after it are dropped and
        counted in ``dc.truncated_records``, and the component's
        segments are rewritten from what the ring keeps, so the next
        open finds no damage."""
        frames, ring.frames = ring.frames, []
        bodies = parse_bodies(frames)
        if bodies is None:  # the JSON prefix, frame by frame
            bodies = []
            for frame in frames:
                body = parse_bodies([frame])
                if body is None:
                    break
                bodies += body
        records = []
        for body in bodies:
            if not (isinstance(body, dict) and _FIELDS <= body.keys()):
                break
            records.append(
                DCRecord(body["id"], body["tick"], body["kind"], body["payload"])
            )
        ring.records[:0] = records
        if len(records) < len(frames):
            METRICS.inc("dc.truncated_records", len(frames) - len(records))
            ring.log.clear()
            ring.pending = list(ring.records)
            self._flush_locked()

    def _wipe(self) -> None:
        """Remove any previous incarnation's segments (fresh database)."""
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if name.endswith((SEGMENT_SUFFIX, ".tmp")):
                os.remove(os.path.join(self.directory, name))
