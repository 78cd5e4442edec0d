"""StorageUnion and ParallelUnion (Figure 3's parallelism operators).

    The StorageUnion dispatches threads for processing data on a set of
    ROS containers.  The StorageUnion also locally resegments the data
    for the above GroupBys.  The ParallelUnion dispatches threads for
    processing the GroupBys And Filters in parallel.  (section 6.1 /
    Figure 3)

Python's GIL makes real CPU parallelism impossible, so these operators
implement the *plan structure* — partitioning work across pipelines,
local resegmentation so each pipeline computes complete groups, and
combination of pipeline outputs — with an optional thread pool that
demonstrates concurrency without claiming speedups (DESIGN.md §2).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ...columnar.row_block import RowBlock
from ...columnar.vectors import as_list
from ...projections.segmentation import ring_positions, split_by_range
from ..expressions import Expr
from .base import Operator


class StorageUnionOperator(Operator):
    """Combines several source pipelines (e.g. one per ROS region) and
    optionally resegments rows across ``fanout`` local pipelines.

    Use :meth:`pipeline_source` to get the operator feeding pipeline
    ``i``; all pipelines share the underlying scan work, which runs
    once on first demand.
    """

    op_name = "StorageUnion"

    def __init__(
        self,
        sources: list[Operator],
        resegment_exprs: list[Expr] | None = None,
        fanout: int = 1,
    ):
        super().__init__(sources)
        self.resegment_exprs = resegment_exprs
        self.fanout = fanout if resegment_exprs else 1
        self._buckets: list[list[RowBlock]] | None = None

    def _materialize(self) -> None:
        if self._buckets is not None:
            return
        buckets: list[list[RowBlock]] = [[] for _ in range(self.fanout)]
        runs = [expr.compiled() for expr in self.resegment_exprs or ()]
        memo: dict = {}  # one hash per distinct key over every source
        for source in self.children:
            for block in source.blocks():
                if self.fanout == 1:
                    buckets[0].append(block)
                    continue
                positions = ring_positions(
                    [as_list(run(block)) for run in runs], block.row_count, memo
                )
                for pipeline, keep in split_by_range(positions, self.fanout).items():
                    buckets[pipeline].append(block.select_rows(keep))
        self._buckets = buckets

    def pipeline_source(self, pipeline: int) -> Operator:
        """Operator feeding local pipeline ``pipeline``."""
        union = self

        class _PipelineSource(Operator):
            op_name = "StorageUnionPipe"

            def _produce(self):
                union._materialize()
                yield from union._buckets[pipeline]

            def label(self) -> str:
                return f"StorageUnion.pipe[{pipeline}]"

        return _PipelineSource()

    def _produce(self):
        self._materialize()
        for bucket in self._buckets:
            yield from bucket

    def label(self) -> str:
        if self.resegment_exprs:
            keys = ", ".join(repr(expr) for expr in self.resegment_exprs)
            return f"StorageUnion(resegment by {keys} x{self.fanout})"
        return f"StorageUnion({len(self.children)} sources)"


class ParallelUnionOperator(Operator):
    """Combines the outputs of parallel pipelines.

    With ``threads`` > 1, pipelines are drained concurrently by a
    thread pool (structurally faithful; wall-clock parallelism is
    GIL-bound).  Output order is deterministic: pipeline order.
    """

    op_name = "ParallelUnion"

    def __init__(self, pipelines: list[Operator], threads: int = 1):
        super().__init__(pipelines)
        self.threads = threads

    def _produce(self):
        if self.threads <= 1 or len(self.children) <= 1:
            for pipeline in self.children:
                yield from pipeline.blocks()
            return
        with ThreadPoolExecutor(max_workers=self.threads) as executor:
            futures = [
                executor.submit(lambda p=pipeline: list(p.blocks()))
                for pipeline in self.children
            ]
            for future in futures:
                yield from future.result()

    def label(self) -> str:
        return f"ParallelUnion({len(self.children)} pipelines, threads={self.threads})"
