"""The append-only segment log under the journal and the Data Collector.

How a framed, rotated, torn-tail-tolerant history reaches disk is
decided here and nowhere else (DESIGN.md, "Segment log").  A log is a
family of files ``<prefix>NNNNNN.log``; several logs may share a
directory.  Every record is one line::

    <crc32 hex, 8 chars> <canonical JSON body>\\n

the body a JSON object with sorted keys and a ``"kind"``.  An append
rewrites each segment it touches to a ``.tmp`` sibling and publishes it
with one ``os.replace`` — the :mod:`repro.storage.fsio` stage/publish
protocol ROS containers use — so a crash can never leave a half-written
record *behind* the publish point.  The segment being extended is sealed
by record count or by size (:data:`SEGMENT_BYTES`), whichever comes
first, so a record costs its own bytes plus less than that constant
however large the records before it were, and a sealed segment is never
written again.  Torn tails and bit flips that do
reach a published segment fail the per-record CRC at
:meth:`SegmentLog.open`, which cuts the log to its longest valid record
prefix, exactly like recovery truncates a projection past its Last Good
Epoch.  What a record means, when sealed segments may go and which lock
serializes access are the client's business.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .. import faults
from . import fsio

SEGMENT_SUFFIX = ".log"
#: Frame bytes at which the active segment is full, whatever its record
#: count: what one append can be made to rewrite on top of its own
#: frames.  8 KiB is ~55 single-row commits or two collector flushes,
#: about what the record-count caps alone gave small records, and the
#: smallest of the 4/8/16/32 KiB sweep (CHANGES.md, PR 19) that does not
#: turn every collector flush into a file of its own.
SEGMENT_BYTES = 8 * 1024


def _frame(body: dict) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{fsio.crc32(text.encode('utf-8')):08x} {text}\n"


def _parse_line(raw: bytes) -> dict | None:
    """Decode one framed line; ``None`` if torn or corrupted."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n"):
        return None  # torn mid-record
    if len(text) < 10 or text[8] != " ":
        return None
    crc_hex, body_text = text[:8], text[9:-1]
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if fsio.crc32(body_text.encode("utf-8")) != expected:
        return None
    try:
        body = json.loads(body_text)
    except ValueError:
        return None
    if not isinstance(body, dict) or "kind" not in body:
        return None
    return body


def _publish(final: str, data: bytes, stage_point: str, publish_point: str) -> None:
    """Replace ``final`` by ``data`` atomically; the fault points fire
    after the stage write and after the publishing rename."""
    tmp = fsio.stage_file(final)
    fsio.write_bytes(tmp, data)
    faults.inject(stage_point, files=[tmp])
    fsio.publish_file(tmp, final)
    faults.inject(publish_point, files=[final])


def write_framed_file(
    final: str, body: dict, *, stage_point: str, publish_point: str
) -> None:
    """Publish a file holding the single framed record ``body``."""
    _publish(final, _frame(body).encode("utf-8"), stage_point, publish_point)


def read_framed_file(path: str) -> dict | None:
    """The record of a :func:`write_framed_file` file; ``None`` if damaged."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return _parse_line(raw.split(b"\n", 1)[0] + b"\n")


class FileFamily(NamedTuple):
    """The numbered files ``<directory>/<prefix>NNNNNN<suffix>``."""

    directory: str
    prefix: str
    suffix: str

    def path(self, index: int) -> str:
        return os.path.join(self.directory, f"{self.prefix}{index:06d}{self.suffix}")

    def indexes(self) -> list[int]:
        """Sorted NNNNNN of the family's files present on disk."""
        if not os.path.isdir(self.directory):
            return []
        found = []
        for name in os.listdir(self.directory):
            if name.startswith(self.prefix) and name.endswith(self.suffix):
                stem = name[len(self.prefix) : -len(self.suffix)]
                if stem.isdigit():
                    found.append(int(stem))
        return sorted(found)

    def discard_staged(self) -> None:
        """Remove the ``.tmp`` stages a crash left beside the family."""
        staged = self._replace(suffix=self.suffix + fsio.TMP_SUFFIX)
        for index in staged.indexes():
            os.remove(staged.path(index))


class Appended(NamedTuple):
    """What one :meth:`SegmentLog.append` cost."""

    #: Bytes handed to the device: every touched segment, whole.
    written: int
    #: Bytes of the frames the call added.
    framed: int


@dataclass
class SegmentLog:
    """One family of CRC-framed segment files, each sealed at
    ``segment_records`` records or :data:`SEGMENT_BYTES`.

    Not thread-safe: every field is owned by the enclosing
    ``Journal``/``DataCollector`` and guarded by that object's lock, the
    way the collector's ``_Ring`` is.
    """

    directory: str
    prefix: str
    segment_records: int
    stage_point: str
    publish_point: str
    #: Index of the segment new frames are appended to.
    active_index: int = field(default=1, init=False)
    #: Frames of the active segment (an append rewrites the file).
    _frames: list[bytes] = field(default_factory=list, init=False)
    #: Their total length.
    _bytes: int = field(default=0, init=False)
    #: segment index -> record count, segments holding records only.
    _counts: dict[int, int] = field(default_factory=dict, init=False)

    @property
    def files(self) -> FileFamily:
        return FileFamily(self.directory, self.prefix, SEGMENT_SUFFIX)

    def append(self, bodies: Iterable[dict]) -> Appended:
        """Make ``bodies`` durable in order; returns what that cost.

        Every segment the batch touches is rewritten whole — also one
        the batch fills and seals on its way to the next, whose last
        records would otherwise never reach disk.  The active segment is
        full at ``segment_records`` records or :data:`SEGMENT_BYTES` of
        frames, so a call writes less than ``SEGMENT_BYTES`` on top of
        its own frames whatever came before it, and a record larger than
        that seals its segment behind itself.  Rotation is lazy: a full
        segment stays the active one until the next record arrives, so
        the newest file of the family is never a sealed one a client may
        drop.  After a raise the frames are held here but perhaps not on
        disk; a client that numbers its records must reopen rather than
        number on.
        """
        touched: dict[int, list[bytes]] = {}
        framed = 0
        for body in bodies:
            if (
                len(self._frames) >= self.segment_records
                or self._bytes >= SEGMENT_BYTES
            ):
                self.active_index += 1
                self._frames, self._bytes = [], 0
            frame = _frame(body).encode("utf-8")
            self._frames.append(frame)
            self._bytes += len(frame)
            framed += len(frame)
            touched[self.active_index] = self._frames
        written = 0
        for index, frames in touched.items():
            self._counts[index] = len(frames)
            data = b"".join(frames)
            _publish(
                self.files.path(index), data, self.stage_point, self.publish_point
            )
            written += len(data)
        return Appended(written, framed)

    def open(
        self, valid: Callable[[dict], bool] | None = None
    ) -> tuple[list[tuple[int, dict]], int]:
        """Recover the log from disk and leave its tail ready to extend.

        Returns the longest valid prefix as ``(segment index, body)``
        pairs and the number of records past it.  A record is valid
        when its frame checks out and ``valid`` (the client's schema
        check, called in log order) accepts the body.  The first invalid
        record is damage *at that point*: its segment is truncated to
        the bytes before it and every later segment deleted.  Stages a
        crashed append left behind are removed.
        """
        files = self.files
        files.discard_staged()
        indexes = files.indexes()
        records: list[tuple[int, dict]] = []
        truncated = 0
        self.active_index, self._frames, self._bytes = 1, [], 0
        self._counts = {}
        for position, index in enumerate(indexes):
            with open(files.path(index), "rb") as handle:
                raw = handle.read()
            frames: list[bytes] = []
            offset = 0
            while offset < len(raw):
                newline = raw.find(b"\n", offset)
                line = raw[offset : newline + 1] if newline >= 0 else raw[offset:]
                body = _parse_line(line)
                if body is None or (valid is not None and not valid(body)):
                    break
                frames.append(line)
                records.append((index, body))
                offset += len(line)
            if frames:
                # the last segment holding records is the one to extend
                # (``offset`` is where its valid frames end: their bytes)
                self.active_index, self._frames, self._bytes = index, frames, offset
                self._counts[index] = len(frames)
            if offset < len(raw):
                # an unterminated tail counts as the one record it tore
                truncated += raw.count(b"\n", offset) or 1
                # even cut to 0 bytes the file stays: it may be all that
                # says a log was here (``Journal.exists`` goes by it), and
                # the next rotation onto its index overwrites it
                os.truncate(files.path(index), offset)
                for later in indexes[position + 1 :]:
                    with open(files.path(later), "rb") as handle:
                        truncated += handle.read().count(b"\n")
                    os.remove(files.path(later))
                break
        return records, truncated

    def sealed(self) -> list[tuple[int, int]]:
        """``(index, record count)`` of every segment before the active
        one, oldest first — the candidates for the client's pruning."""
        return [
            (index, count)
            for index, count in sorted(self._counts.items())
            if index != self.active_index
        ]

    def drop(self, index: int) -> None:
        """Delete a sealed segment."""
        path = self.files.path(index)
        if os.path.exists(path):
            os.remove(path)
        del self._counts[index]
