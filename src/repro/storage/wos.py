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

The buffer is a growing :class:`~repro.storage.ros.HistoryRun`: a
commit's run is appended, moveout takes the whole away.  Scans read it
the way they read a container — sorted, column by column, visibility as
a selection — through :class:`SortedView`, which the first scan after a
mutation builds and every mutation drops: a commit never sorts, and a
WOS nobody writes to is sorted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..columnar.row_block import RowBlock
from ..columnar.selection import Selection
from ..columnar.vectors import PlainVector
from .ros import HistoryRun

#: Default per-projection WOS capacity, in rows.  Deliberately small so
#: the moveout/overflow machinery is exercised at test scale.
DEFAULT_WOS_CAPACITY = 65536


def _empty_run() -> HistoryRun:
    return HistoryRun({}, [], [])


@dataclass
class WriteOptimizedStore:
    """In-memory buffer for one projection on one node: a growing run.

    Row ``i`` of ``run`` (deleted rows included, ``delete_epochs`` always
    a list) sits at position ``i`` — an ordinal, meaningful until the
    next operation that removes rows; each moves a row and its marker
    together.  The run's lists are the WOS's own: it copies what it is
    handed (a run's lists are shared), readers ``take`` / ``concat``
    from it now rather than keep it, and it gives a run away only whole
    (:meth:`drain`).
    """

    capacity: int = DEFAULT_WOS_CAPACITY
    run: HistoryRun = field(default_factory=_empty_run)
    #: What :meth:`sorted_view` built; None after any mutation.
    _view: "SortedView | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def row_count(self) -> int:
        """Rows currently buffered."""
        return len(self.run)

    def would_overflow(self, incoming: int) -> bool:
        """Whether adding ``incoming`` rows exceeds capacity."""
        return len(self.run) + incoming > self.capacity

    def insert(self, run: HistoryRun) -> None:
        """Buffer a committed run, copied onto the WOS's own lists."""
        own = self.run
        for name, values in run.columns.items():
            own.columns.setdefault(name, []).extend(values)
        own.epochs.extend(run.epochs)
        own.delete_epochs.extend(run.delete_epochs or [None] * len(run))
        self._view = None

    def mark_deleted(self, position: int, epoch: int) -> None:
        """Stamp the row at ``position`` deleted at ``epoch``."""
        self.run.delete_epochs[position] = epoch
        self._view = None

    def drain(self) -> HistoryRun:
        """Remove and return everything buffered — the moveout
        primitive.  The WOS starts a new run, so this one is the caller's."""
        return self._replace(_empty_run())

    def keep(self, indexes: list[int]) -> int:
        """Keep only the rows at ``indexes`` (ascending), each with its
        delete marker; returns how many were dropped."""
        kept = self.run.take(indexes)
        return len(self._replace(kept)) - len(kept)

    def truncate_after_epoch(self, epoch: int) -> int:
        """Drop rows committed after ``epoch`` and delete markers
        stamped after it; returns how many rows were dropped.  Used by
        recovery's initial truncation to the LGE."""
        from ..lint import sanitizer

        past = sum(1 for e in self.run.epochs if e > epoch)
        kept = self.run.truncated(epoch)
        dropped = len(self._replace(kept)) - len(kept)
        sanitizer.check_wos_truncate(epoch, past, dropped, kept.epochs)
        return dropped

    def _replace(self, run: HistoryRun) -> HistoryRun:
        """Buffer ``run`` instead; returns what was buffered."""
        old, self.run, self._view = self.run, run, None
        return old

    def sorted_view(self, sort_order: list[str]) -> "SortedView":
        """The buffered rows stably sorted by ``sort_order`` (the owning
        projection's: one WOS only ever sees one); built by the first
        call after a mutation, shared until the next one."""
        view = self._view
        if view is None:
            view = self._view = SortedView(self.run, sort_order)
        return view


def visible_mask(epochs, delete_epochs, epoch: int) -> list[bool]:
    """Per row of parallel ``epochs`` / ``delete_epochs`` lists, whether
    it is visible at snapshot ``epoch``."""
    return [
        inserted <= epoch and (deleted is None or deleted > epoch)
        for inserted, deleted in zip(epochs, delete_epochs)
    ]


class SortedView:
    """One state of a WOS, sorted for scans.

    Holds the permutation that sorts the buffered run (the writer's
    ``HistoryRun.sort_permutation``: stable, NULL first, NaN last), the
    epochs and markers in that order and, per column asked for, the
    values gathered through it.  :meth:`batches` serves one snapshot
    epoch from it; the cut for the last epoch served is kept, so
    consecutive scans at one epoch — every statement between two commits
    — share their vectors.
    """

    def __init__(self, run: HistoryRun, sort_order: list[str]):
        order = self._order = run.sort_permutation(sort_order)
        self._epochs = list(map(run.epochs.__getitem__, order))
        self._delete_epochs = list(map(run.delete_epochs.__getitem__, order))
        #: the WOS's own lists: read until its next mutation drops the view
        self._source = run.columns
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
        return Selection.from_mask(
            visible_mask(self._epochs, self._delete_epochs, epoch)
        )

    def batches(
        self, epoch: int, names: list[str], batch_rows: int, sorted_by: tuple | None
    ) -> list[RowBlock]:
        """The blocks of at most ``batch_rows`` rows visible at
        ``epoch``, in sort order, each of ``names`` a NULL-counted plain
        vector."""
        if epoch != self._cut_epoch:
            self._cut_epoch, self._cut = epoch, {}
            self._visible = self._visible_at(epoch)
        visible = self._visible
        total = len(self._order) if visible is None else visible.count
        starts = range(0, total, batch_rows)
        for name in names:
            if name in self._cut:
                continue
            values = self._columns.get(name)
            if values is None:
                values = self._columns[name] = list(
                    map(self._source[name].__getitem__, self._order)
                )
            if visible is not None:
                values = visible.apply(values)
            self._cut[name] = [
                PlainVector(chunk, chunk.count(None))
                for chunk in (values[start : start + batch_rows] for start in starts)
            ]
        return [
            RowBlock(
                {name: self._cut[name][index] for name in names},
                min(batch_rows, total - start),
                sorted_by,
            )
            for index, start in enumerate(starts)
        ]
