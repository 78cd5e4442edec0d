"""The CRC-checked write-ahead journal.

Format.  The journal lives in ``<database>/journal/`` as one segment
log, ``seg_000001.log`` ..., plus checkpoint files ``ckpt_000001.json``
holding a single record in the same frame.  Framing, rotation, the
stage/publish atomicity of every append and the cut to the longest
valid record prefix at open are :mod:`repro.storage.segment_log`'s; a
record body here is ``{"kind": ..., "lsn": ..., "payload": ...}``.

Stored format.  The genesis records :data:`FORMAT`, and an open of a
journal whose genesis names another number (none at all counts as 0) is
refused before any file under it changes.  Format 1 has no optional
field: a record or checkpoint missing one its writer writes is damage,
cut or skipped like a failed CRC (DESIGN.md, "Stored format").

Bounded replay.  Segments rotate after ``segment_records`` records or
``segment_log.SEGMENT_BYTES`` of them, so a bulk-load record seals its
segment behind itself.  A checkpoint snapshots the catalog, the durable
floor epoch and the epoch counters; at cold start replay begins from
the newest valid checkpoint.  A sealed segment is pruned once the floor
has passed its every commit and no other record in it (DDL, ``floor``,
``restore``) is past the *older* retained checkpoint, so a fallback to
that one still finds each of them; a checkpoint is published twice when
that frees a segment now.  One is due
every ``checkpoint_interval`` appends, or sooner when the floor has
passed a sealed segment — when taking it frees a file — so what stays
on disk is the replay window, not the history before it.

Record kinds: ``genesis`` (cluster topology, first record ever),
``create_table`` / ``add_family`` / ``drop_table`` (catalog DDL),
``commit`` (one committed epoch: inserts and delete victims per table
as columns), ``floor`` (the durable floor advanced —
every up node has drained its WOS past this epoch), ``restore`` (a
backup image was adopted at some epoch).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import DurabilityError
from ..lint.concur.runtime import TrackedLock
from ..monitor import METRICS
from ..storage.segment_log import (
    SEGMENT_SUFFIX,
    FileFamily,
    SegmentLog,
    read_framed_file,
    write_framed_file,
)
from .codec import decode_catalog, decode_family, decode_table

SEGMENT_PREFIX = "seg_"
CHECKPOINT_PREFIX = "ckpt_"
CHECKPOINT_SUFFIX = ".json"

#: Records per segment before the journal rotates to a new file.
DEFAULT_SEGMENT_RECORDS = 64
#: Records appended between automatic checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 32
#: Old checkpoints retained (newest may be torn; keep a fallback).
CHECKPOINTS_RETAINED = 2
#: The stored format this build writes into every genesis and backup
#: manifest, and the only one it opens.
FORMAT = 1

#: The payload fields the writer of each record kind writes: in format 1
#: every one is required.  A record's catalog objects are decoded to
#: tell, and the genesis's ``format`` is checked before anything else.
_FIELDS = {
    "drop_table": ("name",),
    "commit": ("epoch", "snapshot_epoch", "direct_to_ros", "inserts", "deletes"),
    "floor": ("epoch",),
    "restore": ("epoch", "current_epoch", "entries"),
    "checkpoint": ("lsn", "floor", "current_epoch", "ahm", "catalog", "genesis"),
}
#: Record kind -> (payload field holding a catalog object, its decoder).
_DECODED = {
    "create_table": ("table", decode_table),
    "add_family": ("family", decode_family),
    "checkpoint": ("catalog", decode_catalog),
}


def _is_lsn(value) -> bool:
    """Whether a record's ``lsn`` is one: a non-negative int."""
    return type(value) is int and value >= 0


def _decode(body: dict) -> bool:
    """Whether a record has a valid LSN and every field its kind's writer
    writes, its catalog object decoded in place to tell: the one decode
    of the journal's catalog objects."""
    try:
        kind, payload = body["kind"], body["payload"]
        if not _is_lsn(body["lsn"]) or not all(map(payload.__contains__, _FIELDS.get(kind, ()))):
            return False
        if kind in _DECODED:
            name, decoder = _DECODED[kind]
            payload[name] = decoder(payload[name])
        if kind == "commit":
            return all("table" in d and "columns" in d for d in payload["deletes"])
        return kind != "checkpoint" or _is_lsn(payload["lsn"])
    except (KeyError, TypeError, AttributeError):
        return False


def check_format(what: str, record: dict) -> None:
    """Refuse ``what`` when ``record`` (a genesis or a backup manifest)
    names another stored format; one with no ``format`` is format 0."""
    found = record.get("format", 0)
    if found != FORMAT:
        raise DurabilityError(
            f"{what} is stored in format {found}; this build reads format "
            f"{FORMAT} only (re-load it: SELECT out with a build that reads "
            "it, COPY into a fresh database)"
        )


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record; a DDL record's table or family is
    decoded too (a :class:`~repro.core.schema.TableDefinition` or
    :class:`~repro.projections.projection.ProjectionFamily`)."""

    lsn: int
    kind: str
    payload: dict


@dataclass
class JournalReplay:
    """What :meth:`Journal.open` recovered from disk."""

    #: Newest valid checkpoint body, its ``catalog`` decoded (a
    #: :class:`~repro.core.catalog.Catalog`), or ``None``.
    checkpoint: dict | None
    #: All records surviving validation, in LSN order (decoded).
    records: list[JournalRecord]
    #: Durable floor: max of checkpoint floor and floor/restore records.
    floor: int
    #: Records dropped by torn-tail / corruption truncation.
    truncated_records: int
    #: Checkpoint files skipped because they failed validation.
    checkpoints_skipped: int

    @property
    def checkpoint_lsn(self) -> int:
        """LSN covered by the checkpoint (-1 when replaying from genesis)."""
        if self.checkpoint is None:
            return -1
        return self.checkpoint["lsn"]


@dataclass
class _SegmentSummary:
    """Per-segment bookkeeping for pruning and ``v_monitor.journal``."""

    first_lsn: int = -1
    last_lsn: int = -1
    records: int = 0
    max_commit_epoch: int = 0
    #: LSN of its newest record that is not a commit (DDL, ``floor``,
    #: ``restore``): only the journal and later checkpoints hold one.
    last_state_lsn: int = -1

    def note(self, record: JournalRecord) -> None:
        if self.first_lsn < 0:
            self.first_lsn = record.lsn
        self.last_lsn = record.lsn
        self.records += 1
        if record.kind in ("commit", "restore"):
            self.max_commit_epoch = max(
                self.max_commit_epoch, record.payload["epoch"]
            )
        if record.kind != "commit":
            self.last_state_lsn = record.lsn


class Journal:
    """Append-only write-ahead journal: LSNs, record kinds, the durable
    floor and checkpoints over one :class:`SegmentLog`.

    All appends funnel through :meth:`_append`, serialized by an
    internal lock (the commit path additionally holds the database's
    commit lock; DDL and tuple-mover maintenance may race it).
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ):
        self.directory = directory
        self.segment_records = segment_records
        self.checkpoint_interval = checkpoint_interval
        self.genesis: dict = {}
        #: Durable floor epoch: commits at or below it are fully in ROS
        #: on every node and need not be replayed.
        self.floor = 0
        self.checkpoint_lsn = -1
        #: LSN of the retained checkpoint before the newest (-1: none);
        #: known from the first checkpoint published after an open on.
        self._older_checkpoint_lsn = -1
        #: Indexes of checkpoint files an open found unreadable: removed
        #: by the next checkpoint, not by index with the old ones.
        self._unreadable_checkpoints: list[int] = []
        self.last_replay: JournalReplay | None = None
        self._lock = TrackedLock("Journal._lock")
        # concurrency: guarded-by(self._lock) — LSN counter, the segment
        # log, per-segment summaries and checkpoint index.
        self._next_lsn = 0
        self._in_doubt = False
        self._log = SegmentLog(
            directory,
            SEGMENT_PREFIX,
            segment_records=segment_records,
            stage_point="journal.append.stage",
            publish_point="journal.append.publish",
        )
        self._segments: dict[int, _SegmentSummary] = {}
        self._checkpoints = FileFamily(directory, CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX)
        self._next_checkpoint_index = 1
        self._appends_since_checkpoint = 0

    # -- construction --------------------------------------------------

    @classmethod
    def exists(cls, directory: str) -> bool:
        """Whether ``directory`` already holds a journal."""
        return bool(FileFamily(directory, SEGMENT_PREFIX, SEGMENT_SUFFIX).indexes())

    @classmethod
    def create(
        cls,
        directory: str,
        genesis: dict,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "Journal":
        """Start a fresh journal; its first record is the genesis, which
        records :data:`FORMAT`."""
        if cls.exists(directory):
            raise DurabilityError(
                f"journal already exists at {directory!r}; "
                "use Database.open() to restart from it"
            )
        os.makedirs(directory, exist_ok=True)
        journal = cls(
            directory,
            segment_records=segment_records,
            checkpoint_interval=checkpoint_interval,
        )
        journal.genesis = {**genesis, "format": FORMAT}
        journal._append("genesis", dict(journal.genesis))
        return journal

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "Journal":
        """Reopen a journal from disk, validating every record.

        A journal of another stored format, or one with no genesis left,
        is refused first, before any file under ``directory`` changes.
        A damaged suffix — a record failing its CRC or missing a field,
        or the first LSN missing past the checkpoint — is cut off on disk
        so that the next append extends a clean tail.  The recovered state is left
        in ``last_replay`` for the cold-start path.
        """
        if not cls.exists(directory):
            raise DurabilityError(f"no journal found at {directory!r}")
        journal = cls(
            directory,
            segment_records=segment_records,
            checkpoint_interval=checkpoint_interval,
        )
        journal.last_replay = journal._load()
        METRICS.inc("journal.cold_starts")
        METRICS.inc("journal.replay.records", len(journal.last_replay.records))
        METRICS.inc(
            "journal.replay.truncated", journal.last_replay.truncated_records
        )
        return journal

    # -- append path ---------------------------------------------------

    def log_ddl(self, kind: str, payload: dict) -> int:
        """Journal a catalog DDL statement (write-ahead of nothing —
        DDL is applied in memory by the caller; the journal makes it
        survive restart)."""
        return self._append(kind, payload)

    def log_commit(
        self,
        *,
        epoch: int,
        snapshot_epoch: int,
        inserts: dict,
        deletes: list,
        direct_to_ros: bool,
    ) -> int:
        """Journal one commit record *before* it is applied.  The
        payload stored here is what :meth:`Cluster.apply_commit` takes,
        at commit time and again at cold start: per table its checked
        inserts as columns, ``{column: [values]}`` (so a column name is
        written once per table, not once per row), and, per table a
        transaction deleted from as a (table, columns) pair, the row
        multiset its predicates selected at the snapshot, as columns too
        — a predicate is never journalled.
        """
        return self._append(
            "commit",
            {
                "epoch": epoch,
                "snapshot_epoch": snapshot_epoch,
                "direct_to_ros": direct_to_ros,
                "inserts": inserts,
                "deletes": [{"table": table, "columns": columns} for table, columns in deletes],
            },
        )

    def log_floor(self, epoch: int) -> int | None:
        """Record that every node's WOS is drained through ``epoch``."""
        if epoch <= self.floor:
            return None
        lsn = self._append("floor", {"epoch": epoch})
        self.floor = epoch
        return lsn

    def log_restore(self, *, epoch: int, current_epoch: int, entries: int) -> int:
        """Record that a backup image at ``epoch`` was adopted."""
        lsn = self._append(
            "restore",
            {"epoch": epoch, "current_epoch": current_epoch, "entries": entries},
        )
        self.floor = max(self.floor, epoch)
        return lsn

    def _append(self, kind: str, payload: dict) -> int:
        with self._lock:
            if self._in_doubt:
                raise DurabilityError(
                    "an earlier journal append failed part-way, so whether its "
                    "record is on disk is unknown; reopen the journal"
                )
            lsn = self._next_lsn
            # stays set if append() raises (an injected crash at the publish
            # point leaves the record on disk but never acknowledged): going
            # on would hand this LSN out twice, and replay cuts at a repeat
            self._in_doubt = True
            cost = self._log.append([{"kind": kind, "lsn": lsn, "payload": payload}])
            self._in_doubt = False
            self._note(self._log.active_index, JournalRecord(lsn, kind, payload))
            self._next_lsn = lsn + 1
            self._appends_since_checkpoint += 1
            METRICS.inc("journal.appends")
            METRICS.inc("journal.bytes_written", cost.written)
            METRICS.inc("journal.bytes_framed", cost.framed)
            return lsn

    def _note(self, index: int, record: JournalRecord) -> None:
        self._segments.setdefault(index, _SegmentSummary()).note(record)

    # -- checkpointing -------------------------------------------------

    def should_checkpoint(self) -> bool:
        """Whether a checkpoint pays: ``checkpoint_interval`` records
        accumulated, or the floor has passed every commit of some sealed
        segment, which the checkpoint would then prune."""
        with self._lock:
            if self._appends_since_checkpoint >= self.checkpoint_interval:
                return True
            return any(
                self._segments[index].max_commit_epoch <= self.floor
                for index, _ in self._log.sealed()
            )

    def write_checkpoint(
        self, *, floor: int, current_epoch: int, ahm: int, catalog: dict
    ) -> None:
        """Publish a checkpoint and prune the segments it frees.

        A sealed segment the floor has passed stays while it holds a DDL,
        ``floor`` or ``restore`` record newer than the older retained
        checkpoint: a fallback to that one needs it.  When one does, the
        same checkpoint is published a second time, which then covers it
        as the older one too, and the segment goes now, not a cycle later.

        Callers must guarantee ``floor`` is genuinely durable: every
        node is up and has drained its WOS through ``floor`` (the
        cluster only checkpoints right after an all-nodes moveout).
        """
        with self._lock:
            covered_lsn = self._next_lsn - 1
            self.floor = max(floor, self.floor)
            body = {
                "lsn": covered_lsn,
                "floor": self.floor,
                "current_epoch": current_epoch,
                "ahm": ahm,
                "catalog": catalog,
                "genesis": self.genesis,
            }
            self._publish_checkpoint(body)
            if self._prune_segments():
                # a segment the floor has passed is held for a fallback
                # to the older checkpoint: publish again, so that covers it
                self._publish_checkpoint(body)
                self._prune_segments()
            self._appends_since_checkpoint = 0
            self._prune_checkpoints()

    def _publish_checkpoint(self, body: dict) -> None:
        write_framed_file(
            self._checkpoints.path(self._next_checkpoint_index),
            {"kind": "checkpoint", "lsn": body["lsn"], "payload": body},
            stage_point="journal.checkpoint.stage",
            publish_point="journal.checkpoint.publish",
        )
        self._next_checkpoint_index += 1
        self._older_checkpoint_lsn = self.checkpoint_lsn
        self.checkpoint_lsn = body["lsn"]
        METRICS.inc("journal.checkpoints")

    def _prune_segments(self) -> bool:
        """Drop every sealed segment the floor has passed whose other
        records a fallback to the older checkpoint finds elsewhere;
        returns whether the floor has passed one kept for such a record."""
        held = False
        for index, _ in self._log.sealed():
            summary = self._segments[index]
            if summary.max_commit_epoch > self.floor:
                continue
            if summary.last_state_lsn > self._older_checkpoint_lsn:
                held = True
                continue
            self._log.drop(index)
            del self._segments[index]
            METRICS.inc("journal.segments_pruned")
        return held

    def _prune_checkpoints(self) -> None:
        # an unreadable one goes first, so the fallback it was skipped for
        # stays retained behind the new one
        for index in self._unreadable_checkpoints:
            os.remove(self._checkpoints.path(index))
        self._unreadable_checkpoints = []
        for index in self._checkpoints.indexes()[:-CHECKPOINTS_RETAINED]:
            os.remove(self._checkpoints.path(index))

    # -- replay --------------------------------------------------------

    def _load(self) -> JournalReplay:
        checkpoint, self._unreadable_checkpoints = self._load_checkpoint()
        skipped = len(self._unreadable_checkpoints)
        # the genesis is found, and its format checked, before any file changes
        genesis = checkpoint["genesis"] if checkpoint else None
        first = self._log.files.indexes()[:1]
        if genesis is None and first:  # the first record of the first segment
            body = read_framed_file(self._log.files.path(first[0]))
            if body is not None and body["kind"] == "genesis" and _decode(body):
                genesis = body["payload"]
        if genesis is None:
            raise DurabilityError(
                f"journal at {self.directory!r} lost its genesis record"
            )
        check_format(f"the journal at {self.directory!r}", genesis)
        self._checkpoints.discard_staged()
        self.checkpoint_lsn = checkpoint["lsn"] if checkpoint else -1
        # Pruning follows the newest checkpoint.  Having fallen back to
        # an older one, the pruned range reaches to an LSN only the
        # unreadable checkpoint knew, so no hole can be called damage.
        records, truncated = self._load_segments(
            holes_through=float("inf") if skipped else self.checkpoint_lsn
        )
        self.genesis = dict(genesis)
        floor = checkpoint["floor"] if checkpoint else 0
        for record in records:
            if record.kind in ("floor", "restore"):
                floor = max(floor, record.payload["epoch"])
        self.floor = floor
        self._next_lsn = max([self.checkpoint_lsn] + [r.lsn for r in records]) + 1
        # Deliberately NOT reset to 0: surviving un-checkpointed tail
        # records still count toward the next checkpoint trigger.
        self._appends_since_checkpoint = sum(
            1 for record in records if record.lsn > self.checkpoint_lsn
        )
        return JournalReplay(
            checkpoint=checkpoint,
            records=records,
            floor=floor,
            truncated_records=truncated,
            checkpoints_skipped=skipped,
        )

    def _load_checkpoint(self) -> tuple[dict | None, list[int]]:
        """The newest well-formed checkpoint and the indexes of the newer
        ones skipped as unreadable.  Reads only."""
        indexes = self._checkpoints.indexes()[::-1]
        self._next_checkpoint_index = (indexes[0] + 1) if indexes else 1
        for position, index in enumerate(indexes):
            body = read_framed_file(self._checkpoints.path(index))
            if body is not None and body["kind"] == "checkpoint" and _decode(body):
                return body["payload"], indexes[:position]
        return None, indexes

    def _load_segments(self, holes_through: float) -> tuple[list[JournalRecord], int]:
        # LSNs are dense, so the first one missing (a lost segment) is
        # damage at that point, like a failed CRC: replaying on across
        # the hole would apply later epochs as if nothing were missing.
        # Through ``holes_through`` pruning leaves legitimate holes, and
        # replay skips the records at or below the checkpoint anyway.
        expected = None

        def dense(body: dict) -> bool:
            # a record missing a field its writer writes is damage too
            nonlocal expected
            if not _decode(body):
                return False
            lsn = body["lsn"]
            if lsn != expected and lsn > holes_through + 1:
                return False
            expected = lsn + 1
            return True

        recovered, truncated = self._log.open(valid=dense)
        records = []
        for index, body in recovered:
            record = JournalRecord(body["lsn"], body["kind"], body["payload"])
            records.append(record)
            self._note(index, record)
        return records, truncated

    # -- introspection -------------------------------------------------

    def monitor_rows(self) -> list[dict]:
        """Per-segment rows for ``v_monitor.journal``."""
        with self._lock:
            rows = []
            for index in sorted(self._segments):
                summary = self._segments[index]
                path = self._log.files.path(index)
                rows.append(
                    {
                        "segment": os.path.basename(path),
                        "records": summary.records,
                        "bytes": os.path.getsize(path) if os.path.exists(path) else 0,
                        "first_lsn": summary.first_lsn,
                        "last_lsn": summary.last_lsn,
                        "is_active": index == self._log.active_index,
                        "checkpoint_lsn": self.checkpoint_lsn,
                        "floor_epoch": self.floor,
                    }
                )
            return rows

    def record_count(self) -> int:
        """Total records written so far (LSNs are dense from 0)."""
        return self._next_lsn
