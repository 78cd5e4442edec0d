"""Operator base class: the pull-model, vectorized plan node.

    Vertica's operators use a pull processing model: the most
    downstream operator requests rows from the next operator upstream
    in the processing pipeline.  (section 6.1)

Operators are Python iterators of :class:`RowBlock` s.  Each tracks the
rows it produced, which the benches use to show effects like SIP and
prepass aggregation reducing pipeline volume.
"""

from __future__ import annotations

from time import perf_counter

from ...columnar.row_block import RowBlock


class Operator:
    """A node in the physical plan tree."""

    #: Short name used in EXPLAIN output ("Scan", "GroupByHash", ...).
    op_name = "Operator"

    def __init_subclass__(cls, **kwargs):
        """The operator protocol, checked when the class is defined: a
        subclass (function-local ones included) must define or inherit
        a ``_produce``/``blocks`` override and an ``op_name`` of its
        own, or EXPLAIN would print the base label over a plan node
        that cannot be pulled."""
        super().__init_subclass__(**kwargs)
        if cls._produce is Operator._produce and cls.blocks is Operator.blocks:
            raise TypeError(
                f"operator {cls.__name__} implements neither _produce() "
                "nor blocks(): the pull protocol is incomplete"
            )
        if cls.op_name is Operator.op_name:
            raise TypeError(
                f"operator {cls.__name__} does not define op_name"
            )

    def __init__(self, children: list["Operator"] | None = None):
        self.children = list(children or [])
        self.rows_produced = 0
        self.blocks_produced = 0
        #: Times this operator was pulled (next() calls answered),
        #: including the final exhausted pull.
        self.pulls = 0
        #: Inclusive wall time spent producing, children included; the
        #: profiler derives per-operator self time by subtracting the
        #: children's inclusive totals.
        self.wall_seconds = 0.0
        #: Input blocks this operator ran a batch kernel over (Scan,
        #: Filter, the group-bys and HashJoin count them; the
        #: ``executor.kernel_blocks`` counter is their sum).
        self.kernel_blocks = 0
        #: Cooperative cancellation hook (section 7 workload
        #: management): when set by the executor, every pull first
        #: calls ``cancel_token.check()``, which raises
        #: :class:`repro.errors.QueryCancelledError` (or its timeout
        #: subclass) once the statement is cancelled.  Checked per
        #: *block*, never per row, so the enabled cost is one attribute
        #: read and a method call per few thousand rows.
        self.cancel_token = None

    # -- data flow -------------------------------------------------------

    def blocks(self):
        """Generator of output RowBlocks; subclasses implement
        :meth:`_produce` and get accounting (rows, blocks, pulls,
        wall time) for free.  Cancellation is observed here, between
        blocks: a cancelled statement stops pulling at the next block
        boundary no matter which operator the plan is currently inside."""
        source = self._produce()
        token = self.cancel_token
        while True:
            if token is not None:
                token.check()
            self.pulls += 1
            started = perf_counter()
            try:
                block = next(source)
            except StopIteration:
                self.wall_seconds += perf_counter() - started
                return
            self.wall_seconds += perf_counter() - started
            self.rows_produced += block.row_count
            self.blocks_produced += 1
            yield block

    def _produce(self):
        raise NotImplementedError

    def __iter__(self):
        return self.blocks()

    # -- plan display ------------------------------------------------------

    def label(self) -> str:
        """One-line description for EXPLAIN trees."""
        return self.op_name

    def explain(self, indent: int = 0, _seen: set[int] | None = None) -> str:
        """Render the plan subtree (Figure 3 bench uses this).

        Physical plans are DAGs, not trees: a resegment join shares
        each Send across every Recv destination.  A shared subtree is
        rendered once; revisits print the operator's label tagged
        ``[shared]`` without recursing, so the rendering (and anything
        counting its lines) never double-represents work.
        """
        seen = set() if _seen is None else _seen
        if id(self) in seen:
            return " " * indent + self.label() + " [shared]"
        seen.add(id(self))
        lines = [" " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 2, seen))
        return "\n".join(lines)

    def walk(self, _seen: set[int] | None = None):
        """Yield every operator in the subtree, preorder.

        Each operator is yielded exactly once even when the plan is a
        DAG (shared Send operators under several Recvs); summing
        counters over ``walk()`` therefore never double-counts.
        """
        seen = set() if _seen is None else _seen
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for child in self.children:
            yield from child.walk(seen)


class SourceBlocks(Operator):
    """Adapter feeding a precomputed list/iterator of blocks into a
    plan (tests, Send/Recv endpoints, subquery results).  ``replays`` is
    the operator that already produced them (a broadcast inner): the
    Source's one child, so a profile walk reaches what it replays."""

    op_name = "Source"

    def __init__(
        self,
        blocks_iterable,
        column_names: list[str] | None = None,
        replays: Operator | None = None,
    ):
        super().__init__(None if replays is None else [replays])
        self._blocks = blocks_iterable
        self._columns = column_names

    def _produce(self):
        for block in self._blocks:
            yield block

    def label(self) -> str:
        return "Source"


class RowSource(Operator):
    """Adapter feeding row dicts into a plan as vector-sized blocks."""

    op_name = "RowSource"

    def __init__(self, rows: list[dict], column_names: list[str], block_rows: int = 4096):
        super().__init__()
        self._rows = rows
        self._column_names = column_names
        self._block_rows = block_rows

    def _produce(self):
        for start in range(0, len(self._rows), self._block_rows):
            chunk = self._rows[start : start + self._block_rows]
            yield RowBlock.from_rows(chunk, self._column_names)

    def label(self) -> str:
        return f"RowSource({len(self._rows)} rows)"
