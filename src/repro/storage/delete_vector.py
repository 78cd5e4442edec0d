"""Delete vectors.

    Data in Vertica is never modified in place.  When a tuple is
    deleted or updated from either the WOS or ROS, Vertica creates a
    delete vector [...] a list of positions of rows that have been
    deleted.  Delete vectors are stored in the same format as user
    data: they are first written to a DVWOS in memory, then moved to
    DVROS containers on disk by the tuple mover and stored using
    efficient compression mechanisms.  (section 3.7.1)

A :class:`DeleteVector` pairs each deleted position with the epoch the
delete committed in (section 5: "each delete marker is paired with the
logical time the row was deleted"), which is what makes historical
snapshot queries and AHM-based purging possible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .. import faults
from ..errors import CorruptContainerError
from ..lint import sanitizer
from ..types import INTEGER
from . import fsio
from .column_file import ColumnReader, ColumnWriter

#: A DVROS's files, in the order ``target.txt`` lists their CRC32s.
_FILES = ("positions.dat", "positions.pidx", "epochs.dat", "epochs.pidx")


@dataclass
class DeleteVector:
    """Deleted (position, epoch) pairs for one target store.

    ``target_container`` is a ROS container id, or ``None`` when the
    vector applies to the WOS.  Positions are kept sorted; merging two
    vectors for the same target is a sorted merge.
    """

    target_container: int | None
    positions: list[int] = field(default_factory=list)
    epochs: list[int] = field(default_factory=list)

    def add(self, position: int, epoch: int) -> None:
        """Record the deletion of ``position`` at ``epoch``."""
        sanitizer.check_no_double_delete(
            self.target_container, self.positions, position
        )
        self.positions.append(position)
        self.epochs.append(epoch)

    def sort(self) -> None:
        """Normalize to position order."""
        if self.positions != sorted(self.positions):
            pairs = sorted(zip(self.positions, self.epochs))
            self.positions = [p for p, _ in pairs]
            self.epochs = [e for _, e in pairs]

    @property
    def count(self) -> int:
        """Number of deleted positions recorded."""
        return len(self.positions)

    def as_dict(self) -> dict[int, int]:
        """position -> delete epoch mapping."""
        return dict(zip(self.positions, self.epochs))

    def merged_with(self, other: "DeleteVector") -> "DeleteVector":
        """Union of two vectors for the same target."""
        merged = DeleteVector(
            self.target_container,
            self.positions + other.positions,
            self.epochs + other.epochs,
        )
        merged.sort()
        return merged

    # -- persistence (DVROS) -------------------------------------------

    def write(self, path: str) -> None:
        """Persist as a DVROS: the same column-file format as user data.

        Positions are ascending integers (delta-friendly) and epochs
        are near-constant (RLE-friendly) — the "efficient compression
        mechanisms" of section 3.7.1 fall out of reusing the encodings.
        ``target.txt`` holds the target (a container id, or ``wos``) and
        each file's CRC32 in :data:`_FILES` order, checked like a
        container's at :meth:`load`.  Committed with the same
        stage-then-rename protocol as ROS containers, so a crash never
        leaves a half-written vector.
        """
        self.sort()
        staged = fsio.staging_dir(path)
        position_writer = ColumnWriter(INTEGER, "COMMONDELTA_COMP")
        position_writer.extend(self.positions)
        epoch_writer = ColumnWriter(INTEGER, "RLE")
        epoch_writer.extend(self.epochs)
        staged_files = []
        crcs = []
        for name, writer in (("positions", position_writer), ("epochs", epoch_writer)):
            data, index = writer.finish()
            for suffix, payload in ((".dat", data), (".pidx", index)):
                file_path = os.path.join(staged, f"{name}{suffix}")
                crcs.append(f"{fsio.write_bytes(file_path, payload):08x}")
                staged_files.append(file_path)
        target = "wos" if self.target_container is None else str(self.target_container)
        fsio.write_text(os.path.join(staged, "target.txt"), " ".join([target, *crcs]))
        faults.inject("dv.publish", files=staged_files)
        fsio.publish_dir(staged, path)

    @classmethod
    def load(cls, path: str) -> "DeleteVector":
        """Load a persisted DVROS, raising :class:`CorruptContainerError`
        when a file is missing or fails its CRC32."""
        try:
            with open(os.path.join(path, "target.txt")) as handle:
                target, *crcs = handle.read().split()
            raw = []
            for name, crc in zip(_FILES, crcs, strict=True):
                with open(os.path.join(path, name), "rb") as handle:
                    raw.append(handle.read())
                if f"{fsio.crc32(raw[-1]):08x}" != crc:
                    raise ValueError(f"{name} fails its CRC32")
            return cls(
                None if target == "wos" else int(target),
                ColumnReader(raw[0], raw[1]).read_all(),
                ColumnReader(raw[2], raw[3]).read_all(),
            )
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            raise CorruptContainerError(f"delete vector {path}: {exc}") from None


def combined_deletes(vectors: list[DeleteVector]) -> dict[int, int]:
    """Fold several delete vectors into one position -> epoch map.

    When the same position appears twice (possible after recovery
    replays), the earliest delete epoch wins.
    """
    deletes: dict[int, int] = {}
    for vector in vectors:
        for position, epoch in zip(vector.positions, vector.epochs):
            current = deletes.get(position)
            if current is None or epoch < current:
                deletes[position] = epoch
    return deletes
