"""Scan operator: projection-aware, pruning, predicate-pushing.

    Scan: Reads data from a particular projection's ROS containers,
    and applies predicates in the most advantageous manner possible.
    (section 6.1)

The scan derives per-column (low, high) bounds from its predicate and
hands them to the storage manager so whole ROS containers are pruned
from min/max metadata; the residual predicate is evaluated vectorized
on the surviving blocks; SIP filters from downstream hash joins run
last (section 6.1).
"""

from __future__ import annotations

from collections import Counter

from ...columnar.row_block import RowBlock
from ...storage import HistoryRun
from ...storage.manager import StorageManager
from ..expressions import And, CaseWhen, Expr, Literal, column_range_from_predicate
from ..kernels.predicates import compile_kernel_predicate
from ..sip import SipFilter
from .base import Operator


class ScanOperator(Operator):
    """Scan one projection on one node at one snapshot epoch."""

    op_name = "Scan"

    def __init__(
        self,
        manager: StorageManager,
        projection_name: str,
        epoch: int,
        columns: list[str],
        predicate: Expr | None = None,
        sip_filters: list[SipFilter] | None = None,
        deleted: Expr | None = None,
        pending: HistoryRun | None = None,
        node_index: int | None = None,
        failure_probe=None,
    ):
        super().__init__()
        self.manager = manager
        self.projection_name = projection_name
        self.epoch = epoch
        self.columns = list(columns)
        self.predicate = predicate
        self.sip_filters = sip_filters or []
        #: What the scanning transaction's own DELETEs select: hidden
        #: from the storage rows, not from ``pending``.
        self.deleted = deleted
        #: Rows visible only to the scanning transaction (its own
        #: uncommitted inserts, a run shaped for this projection and
        #: segment), one block after the storage rows.
        self.pending = pending
        #: Cluster node hosting this scan (None outside a cluster).
        self.node_index = node_index
        #: Zero-argument callable consulted before every batch; the
        #: distributed executor wires one that raises
        #: :class:`repro.errors.NodeDownError` when the hosting node
        #: has died or an armed fault kills it mid-scan, driving the
        #: buddy-failover retry (section 5.2).
        self.failure_probe = failure_probe
        self.rows_scanned = 0
        self.rows_after_predicate = 0
        #: Blocks whose sort order narrowed the predicate to a window
        #: before anything was tested, and the rows inside those windows
        #: — against ``rows_scanned``, how much of what the scan was
        #: handed it actually had to look at.  (Folded into METRICS once
        #: per query by ``ExecutorStats.finalize``, not once per block.)
        self.seek_blocks = 0
        self.seek_window_rows = 0
        #: The storage walk's counters (containers scanned and pruned,
        #: blocks pruned), folded the same way.
        self.storage_counts: Counter = Counter()

    def _carried_columns(self) -> list[str]:
        """What leaves the predicate: the emitted columns, then the SIP
        keys.  A predicate-only column is decoded, tested and dropped."""
        carried = list(self.columns)
        for sip in self.sip_filters:
            for expr in sip.key_exprs:
                carried += sorted(expr.referenced_columns() - set(carried))
        return carried

    def _produce(self):
        prune = column_range_from_predicate(self.predicate)
        carried = self._carried_columns()
        needed_set = set(carried)
        pending_kernel = kernel = None
        if self.predicate is not None:
            needed_set |= self.predicate.referenced_columns()
            pending_kernel = kernel = compile_kernel_predicate(self.predicate)
        if self.deleted is not None:
            needed_set |= self.deleted.referenced_columns()
            # NOT (deleted) would hide the rows it leaves NULL as well
            kept = CaseWhen([(self.deleted, Literal(False))], Literal(True))
            kernel = compile_kernel_predicate(
                kept if self.predicate is None else And(self.predicate, kept)
            )
        needed = sorted(needed_set)

        seeks: list[int] = []

        def emit(block: RowBlock, kernel):
            self.rows_scanned += block.row_count
            self.kernel_blocks += 1
            if kernel is not None:
                # evaluated over only the predicate's columns; the
                # carried columns are touched (sliced, still encoded)
                # only if the selection keeps anything — late
                # materialization.
                selection = kernel(
                    block.columns, block.row_count, block.sorted_by or (), seeks
                )
                if seeks:
                    self.seek_blocks += 1
                    self.seek_window_rows += sum(seeks)
                    seeks.clear()
                if selection.is_empty:
                    return None
                block = block.project(carried)
                if not selection.is_all:
                    block = RowBlock(
                        columns={
                            name: selection.apply(values)
                            for name, values in block.columns.items()
                        },
                        row_count=selection.count,
                        sorted_by=block.sorted_by,
                    )
            self.rows_after_predicate += block.row_count
            for sip in self.sip_filters:
                block = sip.apply(block)
            if block.row_count:
                return block.project(self.columns)
            return None

        if self.failure_probe is not None:
            self.failure_probe()
        for block in self.manager.scan(
            self.projection_name,
            self.epoch,
            columns=needed,
            prune=prune or None,
            counts=self.storage_counts,
        ):
            if self.failure_probe is not None:
                self.failure_probe()
            out = emit(block, kernel)
            if out is not None:
                yield out
        if self.pending:
            block = RowBlock(
                columns={name: self.pending.columns[name] for name in needed},
                row_count=len(self.pending),
            )
            out = emit(block, pending_kernel)
            if out is not None:
                yield out

    def label(self) -> str:
        parts = [f"Scan({self.projection_name} @e{self.epoch})"]
        if self.predicate is not None:
            parts.append(f"filter={self.predicate!r}")
        if self.deleted is not None:
            parts.append(f"hiding={self.deleted!r}")
        for sip in self.sip_filters:
            parts.append(sip.describe())
        return " ".join(parts)
