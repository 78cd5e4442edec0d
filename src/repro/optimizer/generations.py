"""The three optimizer generations (section 6.2).

* :class:`StarOpt` — the original Kimball-style optimizer: assumes a
  star/snowflake shape, requires co-located projections (replicated
  dimensions, fact segmented), joins the fact with its most selective
  dimensions first.
* :class:`StarifiedOpt` — "by forcing non-star queries to look like a
  star, Vertica could run the StarOpt algorithm on the query": same
  ordering policy, but non-co-located inputs are allowed by
  broadcasting the inner side (treating it as a replicated dimension).
* :class:`V2Opt` — distribution-aware: data may move on the fly
  (broadcast or resegment, cost-chosen), join order is chosen greedily
  from the cost model's row estimates, and all the shared machinery
  (compression-aware scan choice, SIP, prepass, merge joins on sorted
  projections) applies.
"""

from __future__ import annotations

from ..errors import PlanningError
from ..execution.expressions import Comparison, Expr
from ..execution.operators.join import JoinType
from . import physical as P
from .logical import LogicalNode
from .planner import PlannerBase, output_columns
from .rewrite import _reads, conjoin


class _OrderedJoinPlanner(PlannerBase):
    """Shared left-deep join assembly given a generation's ordering."""

    def join_order(self, planned: list[P.PhysicalNode], equis) -> list[int]:
        raise NotImplementedError

    def order_joins(self, relations: list[LogicalNode], conditions, needed=None):
        planned = [self._plan_node(relation) for relation in relations]
        equis = [
            (left, right)
            for left, right, residual in conditions
            if left is not None
        ]
        residuals = [
            residual for _, _, residual in conditions if residual is not None
        ]
        order = self.join_order(planned, equis)
        current = planned[order[0]]
        pending = list(equis)
        for index in order[1:]:
            right = planned[index]
            left_keys: list[Expr] = []
            right_keys: list[Expr] = []
            current_columns = set(output_columns(current))
            right_columns = set(output_columns(right))
            for pair in list(pending):
                a, b = pair
                a_cols = a.referenced_columns()
                b_cols = b.referenced_columns()
                if a_cols <= current_columns and b_cols <= right_columns:
                    left_keys.append(a)
                    right_keys.append(b)
                    pending.remove(pair)
                elif b_cols <= current_columns and a_cols <= right_columns:
                    left_keys.append(b)
                    right_keys.append(a)
                    pending.remove(pair)
            # an intermediate join also carries the keys of the joins
            # still to come and what the residuals read
            keep = needed
            if needed is not None:
                keep = needed | _reads(residuals + [e for pair in pending for e in pair])
            current = self.make_join(
                current, right, JoinType.INNER, left_keys, right_keys, needed=keep
            )
        leftover = residuals + [Comparison("=", a, b) for a, b in pending]
        if leftover:
            predicate = conjoin(leftover)
            filtered = P.PhysFilter(current, predicate, current.distribution)
            filtered.est_rows = current.est_rows * 0.5
            filtered.est_cost = current.est_cost
            return filtered
        return current

    # -- helpers shared by the star-shaped generations --------------------

    @staticmethod
    def _base_rows(planner: PlannerBase, node: P.PhysicalNode) -> float:
        """Unfiltered row count of the node's underlying table (to spot
        the fact table), falling back to the estimate."""
        scan = PlannerBase._scan_plan_of(node)
        if scan is not None:
            return float(planner.stats.get(scan.table).row_count)
        return node.est_rows


class StarOpt(_OrderedJoinPlanner):
    """Generation 1: star-only, co-located-only."""

    name = "StarOpt"
    allowed_strategies = (P.COLOCATED,)
    reorders_joins = True

    def join_order(self, planned, equis) -> list[int]:
        # fact = largest base table; dimensions joined most selective
        # first ("join a fact table with its most highly selective
        # dimensions first").
        indexes = list(range(len(planned)))
        fact = max(indexes, key=lambda i: self._base_rows(self, planned[i]))
        dims = sorted(
            (i for i in indexes if i != fact),
            key=lambda i: planned[i].est_rows,
        )
        return [fact] + dims

    def choose_strategy(self, left, right, left_keys, right_keys):
        if not self.colocated_possible(left, right, left_keys, right_keys):
            raise PlanningError(
                "StarOpt requires co-located projections: segment the fact "
                "and replicate the dimensions, or use a newer optimizer"
            )
        return super().choose_strategy(left, right, left_keys, right_keys)


class StarifiedOpt(StarOpt):
    """Generation 2: StarOpt's ordering, but non-co-located inputs are
    'starified' by broadcasting them like replicated dimensions."""

    name = "StarifiedOpt"
    allowed_strategies = (P.COLOCATED, P.BROADCAST_INNER)

    def choose_strategy(self, left, right, left_keys, right_keys):
        return PlannerBase.choose_strategy(
            self, left, right, left_keys, right_keys
        )


class V2Opt(_OrderedJoinPlanner):
    """Generation 3: distribution-aware, cost-pruned, extensible."""

    name = "V2Opt"
    allowed_strategies = (P.COLOCATED, P.BROADCAST_INNER, P.RESEGMENT)

    def join_order(self, planned, equis) -> list[int]:
        # greedy: start from the smallest filtered input, repeatedly
        # add the connected relation minimizing the estimated
        # intermediate result.
        remaining = set(range(len(planned)))
        start = min(remaining, key=lambda i: planned[i].est_rows)
        order = [start]
        remaining.discard(start)
        current_columns = set(output_columns(planned[start]))
        current_rows = planned[start].est_rows

        def connects(index: int) -> bool:
            columns = set(output_columns(planned[index]))
            for a, b in equis:
                a_cols = a.referenced_columns()
                b_cols = b.referenced_columns()
                if (a_cols <= current_columns and b_cols <= columns) or (
                    b_cols <= current_columns and a_cols <= columns
                ):
                    return True
            return False

        while remaining:
            connected = [index for index in remaining if connects(index)]
            pool = connected or sorted(remaining)
            best = min(pool, key=lambda i: planned[i].est_rows)
            order.append(best)
            remaining.discard(best)
            current_columns |= set(output_columns(planned[best]))
            current_rows *= max(planned[best].est_rows, 1.0)
        return order
