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
Epoch.  An intact segment is checked whole, at C speed (one CRC map,
one JSON scan map); only a segment that fails that check is walked a
line at a time to find where its damage starts.  What a record means,
when sealed segments may go and which lock serializes access are the
client's business.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
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


#: Every frame of a segment as the bulk check reads it: its CRC as eight
#: lowercase hex digits and its body.  A segment these do not tile
#: exactly is walked a line at a time.
_FRAMES = re.compile(rb"([0-9a-f]{8}) ([^\n]*)\n")
#: The C scanner under ``json.loads``: ``(value, end)`` of the JSON
#: value at an index of a string.
_SCAN = json.decoder.JSONDecoder().scan_once


def _checked_text(raw: bytes) -> str | None:
    """The body of one framed line whose framing and CRC hold; ``None``
    if torn or corrupted."""
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
    return body_text


def _is_record(body) -> bool:
    return isinstance(body, dict) and "kind" in body


def _parse_line(raw: bytes) -> dict | None:
    """Decode one framed line; ``None`` if torn or corrupted."""
    body_text = _checked_text(raw)
    if body_text is None:
        return None
    try:
        body = json.loads(body_text)
    except ValueError:
        return None
    return body if _is_record(body) else None


def parse_bodies(bodies: list[bytes]) -> list | None:
    """The JSON value of every body, or ``None`` if one is not exactly
    one JSON value — what ``json.loads`` answers for each, reached by
    one map of the C scanner, not a Python call per body."""
    try:
        texts = list(map(bytes.decode, bodies))
        # the scanner signals "no value here" with StopIteration, which
        # ends the map early: a short list is a failed body
        scanned = list(map(_SCAN, texts, repeat(0)))
    except (UnicodeDecodeError, ValueError):
        return None
    if len(scanned) != len(texts) or list(map(itemgetter(1), scanned)) != list(
        map(len, texts)
    ):
        return None
    return list(map(itemgetter(0), scanned))


def _check_segment(raw: bytes, parse: bool) -> tuple[list[int], list] | None:
    """The body sizes of an intact segment's frames and the bodies —
    parsed, or as bytes when ``parse`` is false — checked whole: the
    frames tile the file, it is UTF-8, every CRC holds (one
    ``zlib.crc32`` map) and, when parsed, every body is one JSON value.
    ``None`` when anything fails; the caller then walks the segment a
    line at a time."""
    found = _FRAMES.findall(raw)
    if not found:
        return None
    heads, bodies = zip(*found)
    sizes = list(map(len, bodies))
    if 10 * len(sizes) + sum(sizes) != len(raw):
        return None
    crcs = b"%08x" * len(bodies) % tuple(map(zlib.crc32, bodies))
    if b"".join(heads) != crcs:
        return None
    if parse:  # each body decoded as UTF-8, then scanned
        bodies = parse_bodies(bodies)
        if bodies is None:
            return None
    else:
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return sizes, list(bodies)


def _valid_prefix(
    raw: bytes, valid: Callable[[dict], bool] | None, parse: bool
) -> tuple[list, int]:
    """The bodies of one segment's records before its first invalid
    one, and the bytes their frames take.  An intact segment is checked
    whole (:func:`_check_segment`) and ``valid`` then asked of each
    record in order; any other is walked line by line, asking the same
    questions of each record in the same order."""
    checked = _check_segment(raw, parse) if raw else ([], [])
    if checked is not None:
        sizes, bodies = checked
        count = len(bodies)
        if parse:
            for count, body in enumerate(bodies):
                if not _is_record(body) or (valid is not None and not valid(body)):
                    break
            else:
                count = len(bodies)
        return bodies[:count], 10 * count + sum(sizes[:count])
    bodies = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        line = raw[offset : newline + 1] if newline >= 0 else raw[offset:]
        if parse:
            body = _parse_line(line)
            if body is None or (valid is not None and not valid(body)):
                break
        else:
            body = _checked_text(line)
            if body is None:
                break
            body = body.encode("utf-8")
        bodies.append(body)
        offset += len(line)
    return bodies, offset


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
    """The first record of a framed file (the one of a
    :func:`write_framed_file` file); ``None`` if damaged."""
    with open(path, "rb") as handle:
        raw = handle.readline()
    return _parse_line(raw.rstrip(b"\n") + b"\n")


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
        self, valid: Callable[[dict], bool] | None = None, *, parse: bool = True
    ) -> tuple[list[tuple[int, dict]], int]:
        """Recover the log from disk and leave its tail ready to extend.

        Returns the longest valid prefix as ``(segment index, body)``
        pairs and the number of records past it.  A record is valid
        when its frame checks out and ``valid`` (the client's schema
        check, called in log order) accepts the body.  The first invalid
        record is damage *at that point*: its segment is truncated to
        the bytes before it and every later segment deleted.  Stages a
        crashed append left behind are removed.

        With ``parse`` false a body comes back as the bytes its CRC
        covers, unparsed, and a frame is valid when its framing and CRC
        hold: the client parses what it reads, when it reads it
        (:func:`parse_bodies`), and ``valid`` must be None.
        """
        if not parse and valid is not None:
            raise ValueError("an unparsed open has no body to validate")
        files = self.files
        files.discard_staged()
        indexes = files.indexes()
        records: list[tuple[int, dict]] = []
        truncated = 0
        self.active_index, self._counts = 1, {}
        tail = b""  # the valid frames of the last segment holding records
        for position, index in enumerate(indexes):
            with open(files.path(index), "rb") as handle:
                raw = handle.read()
            bodies, offset = _valid_prefix(raw, valid, parse)
            records += zip(repeat(index), bodies)
            if bodies:
                # the last segment holding records is the one to extend
                self.active_index, tail = index, raw[:offset]
                self._counts[index] = len(bodies)
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
        # a frame is a line: no body holds a newline
        self._frames = [frame + b"\n" for frame in tail.split(b"\n")[:-1]]
        self._bytes = len(tail)
        return records, truncated

    def sealed(self) -> list[tuple[int, int]]:
        """``(index, record count)`` of every segment before the active
        one, oldest first — the candidates for the client's pruning."""
        return [
            (index, count)
            for index, count in sorted(self._counts.items())
            if index != self.active_index
        ]

    def clear(self) -> None:
        """Delete every segment: the log starts again empty."""
        for index in self.files.indexes():
            os.remove(self.files.path(index))
        self.active_index, self._frames, self._bytes = 1, [], 0
        self._counts = {}

    def drop(self, index: int) -> None:
        """Delete a sealed segment."""
        path = self.files.path(index)
        if os.path.exists(path):
            os.remove(path)
        del self._counts[index]
