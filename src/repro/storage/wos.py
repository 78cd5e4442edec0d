"""Write Optimized Store.

    Data in the WOS is solely in memory [...] The WOS's primary purpose
    is to buffer small data inserts, deletes and updates so that writes
    to physical structures contain a sufficient numbers of rows to
    amortize the cost of the writing.  (section 3.7)

Data in the WOS is *not* encoded or compressed, but it is segmented by
the projection's segmentation expression (each simulated node's WOS
only ever holds that node's rows).  Rows carry their commit epoch and,
once deleted, their delete epoch, so snapshot reads work uniformly
across WOS and ROS.  A capacity cap models WOS saturation: when it is
exceeded the storage manager routes new loads directly to the ROS
(section 4 / section 7, "Direct Loading to the ROS").
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default per-projection WOS capacity, in rows.  Deliberately small so
#: the moveout/overflow machinery is exercised at test scale.
DEFAULT_WOS_CAPACITY = 65536


@dataclass
class WriteOptimizedStore:
    """In-memory row buffer for one projection on one node.

    Three parallel lists hold its history records: ``rows[i]`` was
    committed at ``epochs[i]`` and deleted at ``delete_epochs[i]`` (None
    = live).  Positions are ordinals, meaningful until the next
    operation that removes rows; each moves a row and its marker together.
    """

    capacity: int = DEFAULT_WOS_CAPACITY
    rows: list[dict] = field(default_factory=list)
    epochs: list[int] = field(default_factory=list)
    delete_epochs: list[int | None] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        """Rows currently buffered."""
        return len(self.rows)

    def would_overflow(self, incoming: int) -> bool:
        """Whether adding ``incoming`` rows exceeds capacity."""
        return len(self.rows) + incoming > self.capacity

    def insert(self, rows: list[dict], epoch: int) -> None:
        """Buffer committed rows stamped with their commit epoch."""
        self.rows.extend(rows)
        self.epochs.extend([epoch] * len(rows))
        self.delete_epochs.extend([None] * len(rows))

    def history(self):
        """Yield ``(position, row, insert_epoch, delete_epoch)`` for
        every buffered row, deleted or not — the WOS half of the storage
        layer's one read path."""
        return zip(
            range(len(self.rows)), self.rows, self.epochs, self.delete_epochs
        )

    def drain(self) -> tuple[list[dict], list[int], list[int | None]]:
        """Remove and return all buffered (rows, epochs, delete epochs)
        — the moveout primitive.  The WOS is empty afterwards."""
        run = self.rows, self.epochs, self.delete_epochs
        self.rows, self.epochs, self.delete_epochs = [], [], []
        return run

    def retain(self, keep) -> int:
        """Keep only the rows ``keep(row, insert_epoch)`` accepts, each
        with its delete marker; returns how many were dropped."""
        kept = [
            (row, epoch, delete_epoch)
            for _, row, epoch, delete_epoch in self.history()
            if keep(row, epoch)
        ]
        dropped = len(self.rows) - len(kept)
        self.rows = [row for row, _, _ in kept]
        self.epochs = [epoch for _, epoch, _ in kept]
        self.delete_epochs = [delete_epoch for _, _, delete_epoch in kept]
        return dropped

    def truncate_after_epoch(self, epoch: int) -> int:
        """Drop rows committed after ``epoch`` and delete markers
        stamped after it; returns how many rows were dropped.  Used by
        recovery's initial truncation to the LGE."""
        from ..lint import sanitizer

        past = sum(1 for e in self.epochs if e > epoch)
        dropped = self.retain(lambda _, row_epoch: row_epoch <= epoch)
        self.delete_epochs = [
            None if delete_epoch is None or delete_epoch > epoch else delete_epoch
            for delete_epoch in self.delete_epochs
        ]
        sanitizer.check_wos_truncate(epoch, past, dropped, self.epochs)
        return dropped

    def visible(self, epoch: int):
        """Yield ``(position, row)`` pairs visible at snapshot ``epoch``."""
        for position, row, row_epoch, delete_epoch in self.history():
            if row_epoch <= epoch and (delete_epoch is None or delete_epoch > epoch):
                yield position, row
