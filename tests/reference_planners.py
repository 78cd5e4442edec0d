"""The optimizer generations V2Opt replaced (section 6.2), as oracles.

The product plans with one planner, :class:`repro.optimizer.PlannerBase`
(V2Opt's policy).  Its two predecessors live here, re-expressed as
subclasses that change only the join order and the strategies they may
place a join by:

* :class:`StarOpt` — the original Kimball-style optimizer: it assumes a
  star, joins the fact (the largest base table) with its most selective
  dimensions first, and requires co-located projections (the fact
  segmented, the dimensions replicated or segmented like it).
* :class:`StarifiedOpt` — "by forcing non-star queries to look like a
  star, Vertica could run the StarOpt algorithm on the query": the same
  order, but an inner side that is not co-located is broadcast like a
  replicated dimension.

Neither can resegment, so each raises :class:`PlanningError` for a join
it has no strategy for, including the RIGHT / FULL join the planner
resegments so every node does not hold the preserved inner whole.  Where
they do plan a query, their answer must be the product planner's: the
join property test and the section 6.2 ablation benchmark hold them to
it.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.execution.executor import DistributedExecutor
from repro.optimizer import physical as P
from repro.optimizer.cost import CostBreakdown
from repro.optimizer.planner import PlannerBase


class StarOpt(PlannerBase):
    """Generation 1: star-only, co-located-only."""

    #: the distribution strategies this generation may place a join by
    strategies: tuple[str, ...] = (P.COLOCATED,)

    def join_order(self, planned, equis) -> list[int]:
        # "join a fact table with its most highly selective dimensions
        # first": the fact is the largest base table
        indexes = list(range(len(planned)))
        fact = max(indexes, key=lambda i: self._base_rows(planned[i]))
        dims = sorted(
            (i for i in indexes if i != fact), key=lambda i: planned[i].est_rows
        )
        return [fact] + dims

    def _base_rows(self, node: P.PhysicalNode) -> float:
        """Unfiltered row count of the node's table, else its estimate."""
        scan = self._scan_plan_of(node)
        if scan is not None:
            return float(self.stats.get(scan.table).row_count)
        return node.est_rows

    def choose_strategy(self, left, right, left_keys, right_keys):
        # co-located costs nothing, so it wins wherever it is possible
        if self.colocated_possible(left, right, left_keys, right_keys):
            return P.COLOCATED, CostBreakdown()
        if P.BROADCAST_INNER in self.strategies:
            return P.BROADCAST_INNER, self.strategy_cost(
                P.BROADCAST_INNER, left.est_rows, right.est_rows, 16.0, 16.0
            )
        raise PlanningError(
            f"{type(self).__name__} requires co-located projections: "
            "segment the fact and replicate the dimensions"
        )

    def make_join(self, left, right, join_type, left_keys, right_keys,
                  residual=None, needed=None):
        join = super().make_join(
            left, right, join_type, left_keys, right_keys, residual, needed
        )
        if join.strategy not in self.strategies:
            raise PlanningError(
                f"{type(self).__name__} cannot place a {join_type.value} join "
                f"that needs a {join.strategy}"
            )
        return join


class StarifiedOpt(StarOpt):
    """Generation 2: StarOpt's order, with a non-co-located inner side
    'starified' by broadcasting it like a replicated dimension."""

    strategies = (P.COLOCATED, P.BROADCAST_INNER)


def run_planned(planner_class, db, logical):
    """Plan ``logical`` with ``planner_class`` over ``db``'s statistics
    and run it at the latest epoch: ``(rows, executor stats, plan)``."""
    plan = planner_class(db.cluster, db.stats).plan(logical)
    executor = DistributedExecutor(db.cluster, db.latest_epoch)
    return executor.run(plan).to_rows(), executor.stats, plan
