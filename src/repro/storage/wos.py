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

Scans read the WOS the way they read a container — sorted, column by
column, visibility as a selection — through :class:`SortedView`, which
the first scan after a mutation builds and every mutation drops: a
commit never sorts, and a WOS nobody writes to is sorted once.
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
    #: What :meth:`sorted_view` built; None after any mutation.
    _view: "SortedView | None" = field(
        default=None, init=False, repr=False, compare=False
    )

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
        self._view = None

    def mark_deleted(self, position: int, epoch: int) -> None:
        """Stamp the row at ``position`` deleted at ``epoch``."""
        self.delete_epochs[position] = epoch
        self._view = None

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
        self._view = None
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
        self._view = None
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
        self._view = None
        sanitizer.check_wos_truncate(epoch, past, dropped, self.epochs)
        return dropped

    def visible(self, epoch: int):
        """Yield ``(position, row)`` pairs visible at snapshot ``epoch``."""
        for position, row, row_epoch, delete_epoch in self.history():
            if row_epoch <= epoch and (delete_epoch is None or delete_epoch > epoch):
                yield position, row

    def sorted_view(self, sort_key) -> "SortedView":
        """The buffered rows in ``sort_key`` order (stable), as columns;
        built by the first call after a mutation, shared until the next
        one.  ``sort_key`` is the owning projection's, so one WOS only
        ever sees one."""
        view = self._view
        if view is None:
            view = self._view = SortedView(self, sort_key)
        return view


class SortedView:
    """One state of a WOS, sorted and pivoted for scans.

    Holds ``rows`` / ``epochs`` / ``delete_epochs`` stably sorted by
    the projection's key and, per column asked for, the value list in
    that order.  :meth:`batches` serves one snapshot epoch from it; the
    cut for the last epoch served is kept, so consecutive scans at one
    epoch — every statement between two commits — share their vectors.
    """

    def __init__(self, wos: WriteOptimizedStore, sort_key):
        history = sorted(wos.history(), key=lambda record: sort_key(record[1]))
        self._rows = [row for _, row, _, _ in history]
        self._epochs = [epoch for _, _, epoch, _ in history]
        self._delete_epochs = [deleted for _, _, _, deleted in history]
        self._last_epoch = max(self._epochs, default=0)
        self._first_delete = min(
            (e for e in self._delete_epochs if e is not None), default=None
        )
        self._columns: dict[str, list] = {}
        self._cut_epoch: int | None = None
        self._visible = None
        self._cut: dict[str, list] = {}

    def _visible_at(self, epoch: int):
        """None when every row is visible at ``epoch``, else the
        :class:`Selection` of those that are — what ``_visible_pieces``
        hands a container scan."""
        first_delete = self._first_delete
        if self._last_epoch <= epoch and (first_delete is None or first_delete > epoch):
            return None
        from ..execution.kernels.selection import Selection

        return Selection.from_mask(
            [
                inserted <= epoch and (deleted is None or deleted > epoch)
                for inserted, deleted in zip(self._epochs, self._delete_epochs)
            ]
        )

    def batches(self, epoch: int, names: list[str], batch_rows: int):
        """``(columns, row_count)`` per batch of at most ``batch_rows``
        rows visible at ``epoch``, in sort order; ``columns`` maps each
        of ``names`` to a NULL-counted plain vector."""
        from ..execution.kernels.vectors import PlainVector

        if epoch != self._cut_epoch:
            self._cut_epoch, self._cut = epoch, {}
            self._visible = self._visible_at(epoch)
        visible = self._visible
        total = len(self._rows) if visible is None else visible.count
        starts = range(0, total, batch_rows)
        for name in names:
            if name in self._cut:
                continue
            values = self._columns.get(name)
            if values is None:
                values = self._columns[name] = [row[name] for row in self._rows]
            if visible is not None:
                values = visible.apply(values)
            self._cut[name] = [
                PlainVector(chunk, chunk.count(None))
                for chunk in (values[start : start + batch_rows] for start in starts)
            ]
        return [
            (
                {name: self._cut[name][index] for name in names},
                min(batch_rows, total - start),
            )
            for index, start in enumerate(starts)
        ]
