"""Read Optimized Store containers.

    Data in the ROS is physically stored in multiple ROS containers on
    a standard file system.  Each ROS container logically contains some
    number of complete tuples sorted by the projection's sort order,
    stored as a pair of files per column.  (section 3.7)

A container is a directory holding ``<column>.dat`` + ``<column>.pidx``
per column, one implicit ``_epoch`` column (the paper's 64-bit epoch
timestamp, section 5), and a ``meta.json``.  Containers are immutable
after creation: deletes go to delete vectors, reorganization goes
through the tuple mover, and backup can hard-link the files safely.

Containers commit atomically: every file is staged in a sibling
``.tmp`` directory, a CRC32 per file is recorded in ``meta.json``
(written last, self-checksummed via ``meta_crc``), and a single
``os.replace`` rename publishes the directory.  A crash at any point
leaves either an ignorable ``.tmp`` orphan or a complete container;
readers verify each file's CRC on first access, so corruption raises
:class:`~repro.errors.CorruptContainerError` instead of ever serving
wrong rows.  ``merged_from`` records mergeout inputs so a crash
between publish and retire is resolved idempotently by the scavenger.

The rarely-used hybrid row-column mode ("grouping multiple columns
together into the same file", section 3.7) stores ``column_groups``
row-major as plain values — the compression penalty the paper
describes — and reads each grouped column back through a
:class:`ColumnReader` like any other.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import gt, itemgetter

from .. import faults
from ..errors import CorruptContainerError, StorageError
from ..lint import sanitizer
from ..monitor import METRICS
from ..projections import ProjectionDefinition
from ..types import INTEGER, ordering_keys, sort_permutation
from . import fsio
from .column_file import ColumnReader, ColumnWriter
from .serde import read_values, write_values

#: Name of the implicit per-row commit-epoch column.
EPOCH_COLUMN = "_epoch"


class HistoryRun:
    """A run of history records, column-wise: row ``i`` holds
    ``columns[name][i]``, was inserted at ``epochs[i]`` and deleted at
    ``delete_epochs[i]`` (None = live; no list at all = all live).

    The columnar form of the ``(row, insert_epoch, delete_epoch)``
    triple and the one form a stored history takes from a commit's
    pivot to a published container and between nodes; ``len()`` is its
    row count.  The lists are shared, never changed: a run aliases its
    commit record's values and every copy of a family is handed the
    same one, so whoever keeps rows (the WOS) copies them.
    """

    __slots__ = ("columns", "epochs", "delete_epochs", "positions", "derived")

    def __init__(
        self,
        columns: dict[str, list],
        epochs: list[int],
        delete_epochs: list[int | None] | None = None,
        positions: list[int] | None = None,
    ):
        self.columns = columns
        self.epochs = epochs
        self.delete_epochs = delete_epochs
        #: Ring position of each row under the segmentation of the
        #: projection the run is headed for, when the caller already
        #: hashed it (a commit does, once for every copy of a family).
        self.positions = positions
        #: What the copies of a family work out alike from the run, by
        #: the key of what it depends on (:meth:`derive`); None while
        #: the run is one node's alone.
        self.derived: dict | None = None

    def shared(self) -> "HistoryRun":
        """This run, handed to every copy of a projection family (a
        commit's, a recovery's): from now on :meth:`derive` keeps what
        it makes.  Returns the run."""
        if self.derived is None:
            self.derived = {}
        return self

    def derive(self, key, make):
        """``make()``, called once per ``key`` for a :meth:`shared` run —
        its split by ring range, its sorted groups, a container's
        encoded files: what the first copy works out, the next copy
        takes, a buddy's drained run too (``CycleMemo``) — and every
        time for a run one node writes alone.  Nothing outlives the run."""
        if self.derived is None:
            return make()
        try:
            return self.derived[key]
        except KeyError:
            value = self.derived[key] = make()
            return value

    def __len__(self) -> int:
        return len(self.epochs)

    @classmethod
    def from_rows(
        cls,
        names: list[str],
        rows: list[dict],
        epochs: list[int],
        delete_epochs: list[int | None] | None = None,
    ) -> "HistoryRun":
        """Pivot row dicts (each holding at least ``names``) once."""
        if len(rows) != len(epochs):
            raise StorageError("rows and epochs length mismatch")
        columns = {name: list(map(itemgetter(name), rows)) for name in names}
        return cls(columns, epochs, delete_epochs)

    @classmethod
    def stamped(cls, columns: dict[str, list], epoch: int) -> "HistoryRun":
        """``columns`` (equal-length lists: a COPY's batch, one table's
        inserts in a commit record) as a run all inserted at ``epoch``."""
        return cls(columns, [epoch] * len(next(iter(columns.values()), ())))

    @classmethod
    def concat(cls, runs: list["HistoryRun"]) -> "HistoryRun":
        """The rows of ``runs`` (same columns) end to end."""
        deletes = None
        if any(run.delete_epochs for run in runs):
            deletes = list(
                chain.from_iterable(
                    run.delete_epochs or [None] * len(run) for run in runs
                )
            )
        return cls(
            {
                name: list(chain.from_iterable(run.columns[name] for run in runs))
                for name in runs[0].columns
            },
            list(chain.from_iterable(run.epochs for run in runs)),
            deletes,
        )

    def project(self, names: list[str]) -> "HistoryRun":
        """The same rows narrowed to the columns ``names``."""
        columns = {name: self.columns[name] for name in names}
        return HistoryRun(columns, self.epochs, self.delete_epochs, self.positions)

    def take(self, indexes: list[int]) -> "HistoryRun":
        """The rows at ``indexes``, in that order."""

        def pick(values):
            return values and list(map(values.__getitem__, indexes))

        return HistoryRun(
            {name: pick(values) for name, values in self.columns.items()},
            pick(self.epochs),
            pick(self.delete_epochs),
            pick(self.positions),
        )

    def truncated(self, epoch: int) -> "HistoryRun":
        """The rows inserted at or before ``epoch``, delete markers
        stamped after it cleared."""
        kept = self.take([i for i, e in enumerate(self.epochs) if e <= epoch])
        if kept.delete_epochs:
            kept.delete_epochs = [
                None if deleted is None or deleted > epoch else deleted
                for deleted in kept.delete_epochs
            ]
        return kept

    def rows(self):
        """Iterate the run as fresh row dicts, built one at a time — for
        tests and oracles: nothing in the product reads a run by row."""
        values = zip(*self.columns.values())
        return map(dict, map(zip, repeat(list(self.columns)), values))

    def records(self):
        """Iterate ``(row, insert_epoch, delete_epoch)``."""
        return zip(self.rows(), self.epochs, self.delete_epochs or repeat(None))

    def sort_keys(self, sort_order: list[str]) -> list:
        """One ordering key per row under ``sort_order``
        (:func:`repro.types.ordering_keys`) — they order rows as
        ``ProjectionDefinition.sorted_rows`` does."""
        if not sort_order:
            return [()] * len(self)
        return ordering_keys(list(map(self.columns.__getitem__, sort_order)))

    def sort_permutation(self, sort_order: list[str]) -> list[int]:
        """The stable permutation ordering the run by ``sort_order``
        (:func:`repro.types.sort_permutation`)."""
        if not sort_order:
            return list(range(len(self)))
        return sort_permutation(list(map(self.columns.__getitem__, sort_order)))


def _json_safe(value):
    """Make a partition key JSON-serializable (tuples -> tagged lists)."""
    if isinstance(value, tuple):
        return {"__tuple__": [_json_safe(v) for v in value]}
    return value


def _json_restore(value):
    """Inverse of :func:`_json_safe`."""
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_json_restore(v) for v in value["__tuple__"])
    return value


@dataclass
class ContainerMeta:
    """Descriptive metadata persisted in a container's ``meta.json``."""

    container_id: int
    projection: str
    row_count: int
    partition_key: object
    local_segment: int
    #: Smallest / largest commit epoch of any row in the container.
    min_epoch: int
    max_epoch: int
    columns: list[str]
    column_groups: list[list[str]]
    #: file name -> CRC32 of its committed contents (meta.json excluded;
    #: the metadata record checksums itself via ``meta_crc``).
    checksums: dict[str, int] = field(default_factory=dict)
    #: Container ids this one replaced in a mergeout; the scavenger
    #: retires any of them still on disk (crash-between-publish-and-
    #: retire resolution, section 4.3).
    merged_from: list[int] = field(default_factory=list)

    def payload(self) -> dict:
        """JSON-serializable form, without the self-checksum."""
        return {
            "container_id": self.container_id,
            "projection": self.projection,
            "row_count": self.row_count,
            "partition_key": _json_safe(self.partition_key),
            "local_segment": self.local_segment,
            "min_epoch": self.min_epoch,
            "max_epoch": self.max_epoch,
            "columns": self.columns,
            "column_groups": self.column_groups,
            "checksums": self.checksums,
            "merged_from": self.merged_from,
        }

    def to_json(self) -> dict:
        """The full ``meta.json`` record, ``meta_crc`` included."""
        payload = self.payload()
        payload["meta_crc"] = _meta_crc(payload)
        return payload


def _meta_crc(payload: dict) -> int:
    """Self-checksum over the canonical serialization of the metadata."""
    return fsio.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))


class ContainerImage:
    """A container's files before any node holds them: the sorted run's
    encoded columns (``.dat`` + ``.pidx`` each, row-major group files,
    the ``_epoch`` column), what ``meta.json`` says of its rows and its
    delete markers.  One image is published as any number of containers
    (:meth:`ROSContainer.publish`) — on a direct load, the byte-identical
    container of every copy of a projection family."""

    __slots__ = (
        "files", "row_count", "min_epoch", "max_epoch", "columns",
        "column_groups", "delete_epochs", "token",
    )

    def __init__(
        self,
        files: list[list[tuple[str, bytes]]],
        run: HistoryRun,
        columns: list[str],
        column_groups: list[list[str]],
    ):
        #: (file name, bytes) pairs, one list per column or group, in
        #: the order they are written.
        self.files = files
        self.row_count = len(run)
        self.min_epoch = min(run.epochs) if run.epochs else 0
        self.max_epoch = max(run.epochs) if run.epochs else 0
        self.columns = columns
        self.column_groups = column_groups
        self.delete_epochs = run.delete_epochs
        #: These bytes' provenance, carried by every container published from them.
        self.token = object()

    @classmethod
    def build(
        cls,
        projection: ProjectionDefinition,
        run: HistoryRun,
        column_groups: list[list[str]] | None = None,
    ) -> "ContainerImage":
        """Encode an *already sorted* run under ``projection``'s columns.

        Raises :class:`StorageError` if the rows are not sorted by the
        projection's sort order — containers must be totally sorted.
        """
        keys = run.sort_keys(projection.sort_order)
        if any(map(gt, keys, keys[1:])):
            raise StorageError("ROS container rows must be sorted by sort order")
        column_groups = column_groups or []
        grouped = {name for group in column_groups for name in group}
        files = [
            _column_files(
                column.name,
                ColumnWriter(column.dtype, column.encoding),
                run.columns[column.name],
            )
            for column in projection.columns
            if column.name not in grouped
        ]
        for index, group in enumerate(column_groups):
            out = bytearray()
            # row-major: the group's values of row 0, then of row 1, ...
            columns = map(run.columns.__getitem__, group)
            write_values(out, list(chain.from_iterable(zip(*columns))))
            files.append([(f"_group{index}.dat", bytes(out))])
        files.append(
            _column_files(EPOCH_COLUMN, ColumnWriter(INTEGER, "RLE"), run.epochs)
        )
        names = [column.name for column in projection.columns]
        return cls(files, run, names, column_groups)


def _column_files(name: str, writer: ColumnWriter, values: list) -> list:
    writer.extend(values)
    data, index = writer.finish()
    return [(f"{name}.dat", data), (f"{name}.pidx", index)]


class ROSContainer:
    """One immutable sorted run of complete tuples on disk."""

    def __init__(self, path: str, meta: ContainerMeta, size_bytes=None, image_token=None):
        self.path = path
        self.meta = meta
        self._readers: dict[str, ColumnReader] = {}
        # what the immutable files say, worked out once (on first ask)
        self._groups = {
            name: index
            for index, group in enumerate(meta.column_groups)
            for name in group
        }
        self._bounds: dict[str, tuple] = {}
        self._size_bytes: int | None = size_bytes
        #: Its image's token (None when loaded or adopted): same token, same bytes.
        self.image_token = image_token

    # -- construction -------------------------------------------------

    @classmethod
    def write(
        cls,
        path: str,
        container_id: int,
        projection: ProjectionDefinition,
        run: HistoryRun,
        partition_key=None,
        local_segment: int = 0,
        column_groups: list[list[str]] | None = None,
        merged_from: list[int] | None = None,
    ) -> "ROSContainer":
        """Create a container at ``path`` from an *already sorted* run
        (its delete markers are the caller's to persist): build its
        image (:meth:`ContainerImage.build`) and publish it."""
        image = ContainerImage.build(projection, run, column_groups)
        return cls.publish(
            path, container_id, projection.name, image,
            partition_key=partition_key, local_segment=local_segment,
            merged_from=merged_from,
        )

    @classmethod
    def publish(
        cls,
        path: str,
        container_id: int,
        projection_name: str,
        image: ContainerImage,
        partition_key=None,
        local_segment: int = 0,
        merged_from: list[int] | None = None,
    ) -> "ROSContainer":
        """Write ``image`` as container ``container_id`` at ``path``.

        The commit is atomic: files are staged under ``path + ".tmp"``
        and published with one rename; a crash at any registered fault
        point leaves no partially visible container.
        """
        staged = fsio.staging_dir(path)
        checksums: dict[str, int] = {}
        for files in image.files:
            paths = [os.path.join(staged, name) for name, _ in files]
            for file_path, (name, data) in zip(paths, files):
                checksums[name] = fsio.write_bytes(file_path, data)
            faults.inject("ros.write.column", files=paths)
        meta = ContainerMeta(
            container_id=container_id,
            projection=projection_name,
            row_count=image.row_count,
            partition_key=partition_key,
            local_segment=local_segment,
            min_epoch=image.min_epoch,
            max_epoch=image.max_epoch,
            columns=list(image.columns),
            column_groups=image.column_groups,
            checksums=checksums,
            merged_from=sorted(merged_from or []),
        )
        staged_files = [os.path.join(staged, name) for name in checksums]
        faults.inject("ros.write.meta", files=staged_files)
        fsio.write_json(os.path.join(staged, "meta.json"), meta.to_json())
        # validate the staged bytes (sanitizer) before the commit point,
        # so what gets published is exactly what passed the checks.
        sanitizer.check_container(cls(staged, meta))
        faults.inject("ros.publish", files=staged_files)
        fsio.publish_dir(staged, path)
        faults.inject(
            "ros.published",
            files=[os.path.join(path, name) for name in checksums],
        )
        METRICS.inc("storage.containers_written")
        METRICS.inc("storage.container_rows_written", image.row_count)
        # the bytes written are known: sizing the container walks no directory
        size = sum(len(data) for _, data in chain(*image.files))
        return cls(path, meta, size, image.token)

    @classmethod
    def load(cls, path: str) -> "ROSContainer":
        """Open an existing container directory.

        Raises :class:`CorruptContainerError` when the metadata is
        missing/damaged or any file's CRC32 disagrees with the committed
        checksum — the condition the storage manager quarantines on.
        """
        meta_path = os.path.join(path, "meta.json")
        try:
            with open(meta_path) as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            raise CorruptContainerError(
                f"container {path} has no meta.json (incomplete commit?)"
            ) from None
        except (ValueError, UnicodeDecodeError, OSError) as exc:
            raise CorruptContainerError(
                f"container {path} has unreadable meta.json: {exc}"
            ) from None
        meta = cls._meta_from_json(path, raw)
        container = cls(path, meta)
        bad = container.verify()
        if bad:
            raise CorruptContainerError(
                f"container {path} failed checksum verification: "
                + ", ".join(bad)
            )
        sanitizer.check_container(container)
        return container

    @staticmethod
    def _meta_from_json(path: str, raw: dict) -> ContainerMeta:
        """Validate and deserialize a ``meta.json`` record."""
        if not isinstance(raw, dict):
            raise CorruptContainerError(
                f"container {path} meta.json is not an object"
            )
        if raw.pop("meta_crc", None) != _meta_crc(raw):
            raise CorruptContainerError(
                f"container {path} meta.json fails its self-checksum"
            )
        try:
            return ContainerMeta(
                container_id=raw["container_id"],
                projection=raw["projection"],
                row_count=raw["row_count"],
                partition_key=_json_restore(raw["partition_key"]),
                local_segment=raw["local_segment"],
                min_epoch=raw["min_epoch"],
                max_epoch=raw["max_epoch"],
                columns=raw["columns"],
                column_groups=raw["column_groups"],
                checksums=dict(raw["checksums"]),
                merged_from=list(raw["merged_from"]),
            )
        except (KeyError, TypeError) as exc:
            raise CorruptContainerError(
                f"container {path} meta.json is missing fields: {exc}"
            ) from None

    @classmethod
    def adopt(cls, source_dir: str, path: str, container_id: int) -> "ROSContainer":
        """Copy a foreign container directory (a backup image, another
        node's storage) into place at ``path`` under a new identity.

        The copy is staged and published atomically like any other
        container commit; ``meta.json`` is rewritten with the adopted
        ``container_id`` and a cleared ``merged_from`` (input ids from
        a foreign id space are meaningless here), and the result is
        loaded with full checksum verification — a damaged backup is
        rejected, never silently restored.
        """
        import shutil

        if not os.path.isdir(source_dir):
            raise StorageError(f"no container directory at {source_dir}")
        staged = fsio.staging_dir(path)
        for entry in sorted(os.listdir(source_dir)):
            shutil.copy2(
                os.path.join(source_dir, entry), os.path.join(staged, entry)
            )
        meta_path = os.path.join(staged, "meta.json")
        try:
            with open(meta_path) as handle:
                meta = cls._meta_from_json(source_dir, json.load(handle))
        except (OSError, ValueError) as exc:
            raise CorruptContainerError(
                f"cannot adopt {source_dir}: unreadable meta.json ({exc})"
            ) from None
        meta.container_id = container_id
        meta.merged_from = []
        fsio.write_json(meta_path, meta.to_json())
        fsio.publish_dir(staged, path)
        return cls.load(path)

    def verify(self) -> list[str]:
        """Names of files whose on-disk bytes fail CRC verification.

        Empty list means the container is intact.  Reads every file
        fresh from disk — this is the scrub primitive.
        """
        bad = []
        for name, expected in sorted(self.meta.checksums.items()):
            file_path = os.path.join(self.path, name)
            try:
                actual = fsio.crc32_file(file_path)
            except OSError:
                bad.append(f"{name} (missing)")
                continue
            if actual != expected:
                bad.append(f"{name} (crc mismatch)")
        return bad

    # -- reading ------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of tuples in the container (deleted ones included)."""
        return self.meta.row_count

    @property
    def container_id(self) -> int:
        """Node-local identifier of the container."""
        return self.meta.container_id

    def _group_of(self, name: str) -> int | None:
        return self._groups.get(name)

    def _checked_read(self, file_name: str) -> bytes:
        """Read one container file, verifying its committed CRC32.

        This is why a bit flip can never surface as wrong query
        results: the first read of a damaged file raises
        :class:`CorruptContainerError` instead of returning bytes.
        """
        file_path = os.path.join(self.path, file_name)
        with open(file_path, "rb") as handle:
            data = handle.read()
        METRICS.inc("storage.container_files_read")
        METRICS.inc("storage.container_bytes_read", len(data))
        if fsio.crc32(data) != self.meta.checksums.get(file_name):
            METRICS.inc("storage.crc_failures")
            raise CorruptContainerError(
                f"container {self.path}: {file_name} fails its CRC32 "
                "(read-time corruption detection)"
            )
        return data

    def release(self) -> None:
        """Drop what reads have cached — file bytes, decoded blocks; the
        next read loads them again."""
        self._readers.clear()

    def column_reader(self, name: str) -> ColumnReader:
        """Positional reader for a column (or ``_epoch``), row-grouped
        or not."""
        reader = self._readers.get(name)
        if reader is None:
            if name in self._groups:
                self._read_group(self._groups[name])
                return self._readers[name]
            try:
                data = self._checked_read(f"{name}.dat")
                index = self._checked_read(f"{name}.pidx")
            except FileNotFoundError:
                raise StorageError(
                    f"container {self.path} has no column {name!r}"
                ) from None
            reader = ColumnReader(data, index)
            self._readers[name] = reader
        return reader

    def _read_group(self, group_index: int) -> None:
        """Decode a row-grouped file into one reader per column of it,
        cut at the container's own blocks (the ``_epoch`` index): a
        grouped column is then read like any other."""
        names = self.meta.column_groups[group_index]
        data = self._checked_read(f"_group{group_index}.dat")
        values, _ = read_values(data, 0, len(names) * self.meta.row_count)
        cuts = self.column_reader(EPOCH_COLUMN).blocks
        METRICS.inc("storage.blocks_decoded", len(names) * len(cuts))
        METRICS.inc("storage.bytes_decoded", len(data))
        for offset, name in enumerate(names):
            self._readers[name] = ColumnReader.of_values(
                values[offset :: len(names)], cuts
            )

    def read_column(self, name: str) -> list:
        """The full value list of a column."""
        return self.column_reader(name).read_all()

    def read_range(self, name: str, start: int, end: int) -> list:
        """The values of a column at positions [start, end), decoding
        only the blocks that overlap them."""
        return self.column_reader(name).read_range(start, end)

    def read_epochs(self) -> list[int]:
        """Per-row commit epochs."""
        return self.column_reader(EPOCH_COLUMN).read_all()

    def read_columns(self, names) -> dict[str, list]:
        """Several columns at once, as a dict of value lists."""
        return {name: self.read_column(name) for name in names}

    def column_min_max(self, name: str):
        """(min, max) of a column from index metadata (no data decode;
        a row-grouped column's group file is decoded once)."""
        bounds = self._bounds.get(name)
        if bounds is None:
            reader = self.column_reader(name)
            bounds = self._bounds[name] = reader.min_value(), reader.max_value()
        return bounds

    def may_contain(self, column: str, low, high) -> bool:
        """Container-level pruning check on one column ([22] in the
        paper: min/max stored per ROS to prune at plan time).  A bound
        that does not order against the column's values proves nothing:
        the container may hold a row."""
        minimum, maximum = self.column_min_max(column)
        if minimum is None and maximum is None:
            return False
        try:
            if low is not None and maximum < low:
                return False
            if high is not None and minimum > high:
                return False
        except TypeError:
            pass
        return True

    def size_bytes(self) -> int:
        """Total bytes of user data files (excluding meta.json)."""
        if self._size_bytes is None:
            self._size_bytes = sum(
                os.path.getsize(os.path.join(self.path, entry))
                for entry in os.listdir(self.path)
                if entry != "meta.json"
            )
        return self._size_bytes

    def data_size_bytes(self) -> int:
        """Bytes of .dat files for user columns (no indexes, no epoch);
        the figure Table 3/4 compare against raw input size."""
        total = 0
        for name in self.meta.columns:
            group_index = self._group_of(name)
            if group_index is not None:
                continue
            total += os.path.getsize(os.path.join(self.path, f"{name}.dat"))
        for index in range(len(self.meta.column_groups)):
            total += os.path.getsize(os.path.join(self.path, f"_group{index}.dat"))
        return total

    def file_inventory(self) -> list[str]:
        """Names of the container's files (for the Figure 2 bench)."""
        return sorted(os.listdir(self.path))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ROSContainer {self.meta.container_id} rows={self.meta.row_count} "
            f"partition={self.meta.partition_key!r} "
            f"segment={self.meta.local_segment}>"
        )
