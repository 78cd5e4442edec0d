"""Query optimization: logical plans, rewrites, statistics, the cost
model and the physical planner.

The planner (:class:`PlannerBase`) is V2Opt's policy from section 6.2,
the only one the product plans with.  StarOpt and StarifiedOpt, the
generations it replaced, live in the test suite as oracles and as the
fixtures of the section 6.2 ablation benchmark."""

from .cost import (
    CostBreakdown,
    estimate_selectivity,
)
from .logical import (
    AnalyticNode,
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from .physical import (
    BROADCAST_INNER,
    COLOCATED,
    COORDINATOR,
    REPLICATED,
    RESEGMENT,
    SEGMENTED,
    Distribution,
    PhysAnalytic,
    PhysDistinct,
    PhysFilter,
    PhysGroupBy,
    PhysJoin,
    PhysLimit,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysicalNode,
)
from .planner import PlannerBase, output_columns
from .rewrite import rewrite
from .stats import (
    ColumnStats,
    Histogram,
    StatsCatalog,
    TableStats,
    collect_table_stats,
    estimate_ndv,
)

__all__ = [
    "CostBreakdown",
    "estimate_selectivity",
    "AnalyticNode",
    "DistinctNode",
    "FilterNode",
    "GroupByNode",
    "JoinNode",
    "LimitNode",
    "LogicalNode",
    "ProjectNode",
    "ScanNode",
    "SortNode",
    "BROADCAST_INNER",
    "COLOCATED",
    "COORDINATOR",
    "REPLICATED",
    "RESEGMENT",
    "SEGMENTED",
    "Distribution",
    "PhysAnalytic",
    "PhysDistinct",
    "PhysFilter",
    "PhysGroupBy",
    "PhysJoin",
    "PhysLimit",
    "PhysProject",
    "PhysScan",
    "PhysSort",
    "PhysicalNode",
    "PlannerBase",
    "output_columns",
    "rewrite",
    "ColumnStats",
    "Histogram",
    "StatsCatalog",
    "TableStats",
    "collect_table_stats",
    "estimate_ndv",
]
