"""Join operators: hash join and merge join, all SQL flavors.

    Join: Performs classic relational join.  Vertica supports both
    hash join and merge join algorithms which are capable of
    externalizing if necessary.  All flavors of INNER, LEFT OUTER,
    RIGHT OUTER, FULL OUTER, SEMI, and ANTI joins are supported.
    (section 6.1)

The hash join builds on its right (inner) child once per statement —
its columns concatenated, each key mapped to a build position — publishes
the table's key view to any registered SIP filters, then probes one key
column per left block and *gathers*: build columns by position, probe
columns through a selection (still encoded) or by position on a fan-out.
When the build side exceeds the memory budget, it *switches algorithms
at runtime*: both sides are externally sorted and the join completes
as a sort-merge join — exactly the adaptive behaviour the paper
describes ("if Vertica determines at runtime the hash table for a hash
join will not fit into memory, we will perform a sort-merge join
instead").
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import cached_property
from itertools import chain, compress, repeat

from ...columnar.row_block import VECTOR_SIZE, RowBlock, gather
from ...columnar.selection import Selection
from ...columnar.vectors import PlainVector, as_list
from ...errors import ExecutionError
from ...types import NAN_LAST, ordering_keys
from ..expressions import Expr
from ..kernels.aggregate import run_starts
from ..kernels.predicates import compile_kernel_predicate
from ..resource import ResourcePool
from ..sip import SipFilter
from .base import Operator, SourceBlocks
from .sort import SortKey, SortOperator


class JoinType(str, Enum):
    """SQL join flavors."""

    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    SEMI = "SEMI"
    ANTI = "ANTI"


def _join_keys(columns: list[list], row_count: int) -> list:
    """Every row's join key over its key ``columns``: the value itself
    for one column, a tuple for several (None when a part is NULL),
    ``()`` for none."""
    if len(columns) == 1:
        return columns[0]
    if not columns:  # no equi-key: a cross product
        return [()] * row_count
    return [None if None in key else key for key in zip(*columns)]


def _key_columns(block: RowBlock, key_runs) -> list[list]:
    return [as_list(run(block)) for run in key_runs]


def _null_row(names: list[str]) -> RowBlock:
    """One row of NULLs: what a row that matched nothing is joined to."""
    return RowBlock({name: [None] for name in names}, 1)


def _gather(probe: RowBlock, rows, build: RowBlock | None, at):
    """Output blocks: the probe rows at ``rows`` — a Selection, so their
    columns keep their encoding, or positions — beside the ``build`` rows
    at ``at`` (none for SEMI / ANTI).  Gathered blocks are cut at
    VECTOR_SIZE; a selected one has at most the probe block's rows."""
    if isinstance(rows, Selection):
        if rows.count:
            columns = {n: rows.apply(v) for n, v in probe.columns.items()}
            if build is not None:
                columns.update(build.select_rows(at).columns)
            yield RowBlock(columns, rows.count)
        return
    for start in range(0, len(rows), VECTOR_SIZE):
        window = slice(start, start + VECTOR_SIZE)
        columns = probe.select_rows(rows[window]).columns
        columns.update(build.select_rows(at[window]).columns)
        yield RowBlock(columns, len(rows[window]))


def _match(residual, left: RowBlock, rows: list, right: RowBlock, at: list,
           left_matched=None, right_matched=None):
    """The candidate pairs — ``left`` rows at ``rows`` beside ``right``
    rows at ``at`` — a join keeps: those its ``residual`` (None: all) is
    TRUE on, over the gathered pairs.  Only a kept pair marks its rows in
    ``left_matched`` / ``right_matched`` (bytearrays, or None)."""
    if residual is not None and rows:
        kernel = compile_kernel_predicate(residual)
        columns = {}
        for name in kernel.columns:
            side, positions = (left, rows) if name in left.columns else (right, at)
            columns[name] = gather(side.columns[name], positions)
        keep = kernel(columns, len(rows)).mask()
        rows, at = list(compress(rows, keep)), list(compress(at, keep))
    if left_matched is not None:
        for row in rows:
            left_matched[row] = 1
    if right_matched is not None:
        for position in at:
            right_matched[position] = 1
    return rows, at


class _HashBuild:
    """A hash join's build side: ``block``, its rows — columns that know
    their NULL counts, so a gather of NULL-free ones promises no NULL —
    ``padded``, the same plus a trailing NULL row (what an unmatched
    probe row of a LEFT / FULL join gathers), and ``table`` mapping each
    key to its position — its position list unless ``unique``.  NULL is
    never a key; ``1`` / ``1.0`` / ``True`` are one, NaN finds itself."""

    def __init__(self, blocks: list[RowBlock], names: list[str], key_exprs):
        runs = [key.compiled() for key in key_exprs]
        keys = list(chain.from_iterable(
            _join_keys(_key_columns(block, runs), block.row_count) for block in blocks
        ))
        self.row_count = count = len(keys)
        columns = {name: list(chain.from_iterable(
            as_list(block.column(name)) for block in blocks
        )) for name in names}
        self.block = RowBlock(
            {name: PlainVector(values, values.count(None)) for name, values in columns.items()},
            count,
        )
        table: dict = dict(zip(keys, range(count)))
        table.pop(None, None)
        self.unique = len(table) == count - keys.count(None)
        if not self.unique:
            table = defaultdict(list)  # read through get() and `in` only
            for position, key in enumerate(keys):
                table[key].append(position)
            table.pop(None, None)
        self.table = table

    @cached_property
    def padded(self) -> RowBlock:
        return RowBlock(
            {name: [*as_list(values), None] for name, values in self.block.columns.items()},
            self.row_count + 1,
        )


class HashJoinOperator(Operator):
    """Hash join; builds from the right child, probes with the left."""

    op_name = "HashJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[Expr],
        right_keys: list[Expr],
        join_type: JoinType = JoinType.INNER,
        left_columns: list[str] | None = None,
        right_columns: list[str] | None = None,
        pool: ResourcePool | None = None,
        max_build_rows: int | None = None,
        shared_build: dict | None = None,
        residual: Expr | None = None,
    ):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys):
            raise ExecutionError("join key lists must have equal length")
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = JoinType(join_type)
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.residual = residual
        self.pool = pool
        self.max_build_rows = max_build_rows
        #: Given by the executor to every fragment probing one inner: the
        #: first fragment to build stores its build here, the rest probe it.
        self.shared_build = {} if shared_build is None else shared_build
        self.sip_filters: list[SipFilter] = []
        self.switched_to_merge = False

    # -- SIP -----------------------------------------------------------

    def make_sip_filter(self, scan_key_exprs: list[Expr]) -> SipFilter:
        """Create a SIP filter to be placed in a probe-side scan; it is
        published when the build completes."""
        sip = SipFilter(key_exprs=scan_key_exprs, origin=self.op_name)
        self.sip_filters.append(sip)
        return sip

    # -- execution -------------------------------------------------------

    def _budget(self) -> int | None:
        if self.max_build_rows is not None:
            return self.max_build_rows
        if self.pool is not None:
            return self.pool.operator_budget()
        return None

    def _output_columns(self) -> list[str]:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return list(self.left_columns)
        overlap = set(self.left_columns) & set(self.right_columns)
        if overlap:
            raise ExecutionError(f"join output column collision: {sorted(overlap)}")
        return list(self.left_columns) + list(self.right_columns)

    def _produce(self):
        self._output_columns()  # a name collision fails before any work
        build = self.shared_build.get("build")
        if build is None:
            budget = self._budget()
            drained: list[RowBlock] = []
            rows = 0
            right_blocks = self.children[1].blocks()
            for block in right_blocks:
                drained.append(block)
                rows += block.row_count
                if budget is not None and rows > budget:
                    # Runtime algorithm switch: finish draining the build
                    # side into the merge path and sort-merge join instead.
                    self.switched_to_merge = True
                    if self.pool is not None:
                        self.pool.note_spill()
                    yield from self._merge_fallback(chain(drained, right_blocks))
                    return
            build = self.shared_build["build"] = _HashBuild(
                drained, self.right_columns, self.right_keys
            )
        for sip in self.sip_filters:
            sip.publish(build.table.keys())
        yield from self._probe(build)

    def _probe(self, build: _HashBuild):
        join_type, table, null = self.join_type, build.table, build.row_count
        preserve_left = join_type in (JoinType.LEFT, JoinType.FULL)
        preserve_right = join_type in (JoinType.RIGHT, JoinType.FULL)
        matched = bytearray(null + 1) if preserve_right else None
        key_runs = [key.compiled() for key in self.left_keys]
        for block in self.children[0].blocks():
            self.kernel_blocks += 1
            probe = block.project(self.left_columns)
            keys = _join_keys(_key_columns(block, key_runs), block.row_count)
            if self.residual is not None:
                yield from self._probe_pairs(block, probe, keys, build, matched)
                continue
            if join_type in (JoinType.SEMI, JoinType.ANTI):
                hits = list(map(table.__contains__, keys))
                if join_type is JoinType.ANTI:
                    hits = [not hit for hit in hits]
                yield from _gather(probe, Selection.from_mask(hits), None, None)
                continue
            found = list(map(table.get, keys))
            if not build.unique:  # a probe row may match several build rows
                rows, at = [], []
                for index, positions in enumerate(found):
                    if positions is not None:
                        rows.extend(repeat(index, len(positions)))
                        at.extend(positions)
                    elif preserve_left:
                        rows.append(index)
                        at.append(null)
            elif preserve_left:
                rows = Selection.all_rows(block.row_count)
                at = [null if position is None else position for position in found]
            elif None in found:
                hits = [position is not None for position in found]
                rows, at = Selection.from_mask(hits), list(compress(found, hits))
            else:  # every probe row matched once: its columns pass through
                rows, at = Selection.all_rows(block.row_count), found
            if matched is not None:
                for position in at:
                    matched[position] = 1
            yield from _gather(probe, rows, build.padded if preserve_left else build.block, at)
        if matched is not None:
            unmatched = [position for position in range(null) if not matched[position]]
            nulls = _null_row(self.left_columns)
            yield from _gather(nulls, [0] * len(unmatched), build.block, unmatched)

    def _probe_pairs(self, block, probe, keys, build: _HashBuild, matched):
        """One probe block under a residual: what it keeps of every pair."""
        rows, at = [], []
        for index, positions in enumerate(map(build.table.get, keys)):
            if positions is not None:
                positions = [positions] if build.unique else positions
                rows.extend(repeat(index, len(positions)))
                at.extend(positions)
        hit = bytearray(block.row_count)
        rows, at = _match(self.residual, block, rows, build.block, at, hit, matched)
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            keep = [flag == (self.join_type is JoinType.SEMI) for flag in hit]
            yield from _gather(probe, Selection.from_mask(keep), None, None)
            return
        if self.join_type in (JoinType.LEFT, JoinType.FULL):
            alone = [row for row in range(block.row_count) if not hit[row]]
            rows, at = rows + alone, at + [build.row_count] * len(alone)
            yield from _gather(probe, rows, build.padded, at)
            return
        yield from _gather(probe, rows, build.block, at)

    def _merge_fallback(self, right_blocks):
        """Complete the join as an external sort-merge join over the
        drained and the remaining build blocks.  SIP filters stay
        unpublished (the probe scan may already be running): no-ops."""

        def sort(child, keys):
            return SortOperator(
                child,
                [SortKey(expr) for expr in keys],
                pool=self.pool,
                max_buffered_rows=self.max_build_rows,
            )

        merge = MergeJoinOperator(
            sort(self.children[0], self.left_keys),
            sort(SourceBlocks(right_blocks), self.right_keys),
            self.left_keys,
            self.right_keys,
            self.join_type,
            self.left_columns,
            self.right_columns,
            self.residual,
        )
        yield from merge.blocks()

    def label(self) -> str:
        algorithm = "MergeJoin(switched)" if self.switched_to_merge else "HashJoin"
        return _label(algorithm, self)


class _Chunk:
    """Rows of one sorted join input and their keys: ``rows`` (every input
    column) and ``block`` (the join's), per row the ordering key ``order``
    and the join key ``join`` (None where a part is NULL), ``starts``:
    where each run of equal ordering keys starts, then where the last run
    ends, and ``matched``: which rows found a partner."""

    def __init__(self, rows: RowBlock, key_runs, names: list[str]):
        columns = _key_columns(rows, key_runs)
        count = rows.row_count
        self.rows = rows
        self.block = rows.project(names)
        self.join = _join_keys(columns, count)
        self.order = ordering_keys(columns) if columns else self.join
        self.starts = [*run_starts([self.order], count), count]
        self.matched = bytearray(count)

    def alone(self) -> list[int]:
        """The rows of its runs that found no partner."""
        return [row for row in range(self.starts[-1]) if not self.matched[row]]


def _chunks(operator: Operator, key_exprs: list[Expr], names: list[str]):
    """The sorted input of ``operator`` as chunks that never split a run
    of equal keys: a block's last run is held back and joins the next
    block's rows — held as blocks while it goes on, so one long run costs
    one concatenation, and only one run is ever held."""
    key_runs = [key.compiled() for key in key_exprs]
    held: list[RowBlock] = []
    for rows in operator.blocks():
        if not rows.row_count:
            continue
        chunk = _Chunk(rows, key_runs, names)
        if held and len(chunk.starts) == 2 and chunk.order[0] == held_key:
            held.append(rows)  # the held run goes on through this block
            continue
        if held:
            chunk = _Chunk(RowBlock.concat([*held, rows]), key_runs, names)
        last = chunk.starts[-2]
        held = [chunk.rows.select_rows(range(last, chunk.rows.row_count))]
        held_key = chunk.order[last]
        if last:
            chunk.starts.pop()
            yield chunk
    if held:
        yield _Chunk(RowBlock.concat(held), key_runs, names)


def _pairs(left: _Chunk, start: int, stop: int, right: _Chunk, run: int) -> list:
    """``(left row, right positions)`` for the left rows ``start:stop``
    (one run) and the right ``run`` of the same ordering key: the whole
    run each — except that a key with a NULL part matches nothing and a
    NaN only itself (a dict's rule, the hash build's)."""
    low, high = right.starts[run], right.starts[run + 1]
    if left.join[start] is None or right.join[low] is None:
        return []
    key = left.order[start]
    if not (key is NAN_LAST or type(key) is tuple and NAN_LAST in key):
        return [(row, range(low, high)) for row in range(start, stop)]
    table = defaultdict(list)
    for position in range(low, high):
        table[right.join[position]].append(position)
    return [
        (row, table[left.join[row]])
        for row in range(start, stop)
        if left.join[row] in table
    ]


class MergeJoinOperator(Operator):
    """Merge join over inputs sorted on the join keys under the ordering
    rule (NULL first, NaN last: what a Sort emits).

    Two pointers walk the sorted key columns, a left block at a time
    against the right input's chunks; each left run finds its right run,
    and the pairs are gathered as the hash join gathers its probes:
    positions into the left block beside positions into the right chunk,
    the NULL row for a preserved row that matched nothing.
    """

    op_name = "MergeJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[Expr],
        right_keys: list[Expr],
        join_type: JoinType = JoinType.INNER,
        left_columns: list[str] | None = None,
        right_columns: list[str] | None = None,
        residual: Expr | None = None,
    ):
        super().__init__([left, right])
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = JoinType(join_type)
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.residual = residual

    def _produce(self):
        join_type = self.join_type
        filtering = join_type in (JoinType.SEMI, JoinType.ANTI)
        preserve_right = join_type in (JoinType.RIGHT, JoinType.FULL)
        marks_left = filtering or join_type in (JoinType.LEFT, JoinType.FULL)
        no_left, no_right = _null_row(self.left_columns), _null_row(self.right_columns)
        key_runs = [key.compiled() for key in self.left_keys]
        chunks = _chunks(self.children[1], self.right_keys, self.right_columns)
        chunk, run = next(chunks, None), 0

        def pairs(left: _Chunk, rows, at):  # gathered; SEMI / ANTI only mark
            rows, at = _match(
                self.residual, left.rows, rows, chunk.rows, at,
                left.matched if marks_left else None,
                chunk.matched if preserve_right else None,
            )
            return () if filtering else _gather(left.block, rows, chunk.block, at)

        for block in self.children[0].blocks():
            if not block.row_count:
                continue
            left = _Chunk(block, key_runs, self.left_columns)
            rows, at = [], []  # left rows beside positions into ``chunk``
            for start, stop in zip(left.starts, left.starts[1:]):
                key = left.order[start]
                while chunk is not None:
                    if run == len(chunk.starts) - 1:  # past its last run
                        yield from pairs(left, rows, at)
                        rows, at = [], []
                        if preserve_right:
                            alone = chunk.alone()
                            yield from _gather(no_left, [0] * len(alone), chunk.block, alone)
                        chunk, run = next(chunks, None), 0
                    elif chunk.order[chunk.starts[run]] < key:
                        run += 1
                    else:
                        break
                if chunk is None or chunk.order[chunk.starts[run]] != key:
                    continue
                for row, positions in _pairs(left, start, stop, chunk, run):
                    rows.extend(repeat(row, len(positions)))
                    at.extend(positions)
            if chunk is not None:
                yield from pairs(left, rows, at)
            if filtering:
                keep = [flag == (join_type is JoinType.SEMI) for flag in left.matched]
                yield from _gather(left.block, Selection.from_mask(keep), None, None)
                continue
            if join_type in (JoinType.LEFT, JoinType.FULL):
                alone = left.alone()
                yield from _gather(left.block, alone, no_right, [0] * len(alone))
        for chunk in chain([chunk] if chunk else [], chunks):
            if preserve_right:
                alone = chunk.alone()
                yield from _gather(no_left, [0] * len(alone), chunk.block, alone)

    def label(self) -> str:
        return _label("MergeJoin", self)


def _label(algorithm: str, join) -> str:
    keys = ", ".join(f"{l!r}={r!r}" for l, r in zip(join.left_keys, join.right_keys))
    residual = f" residual {join.residual!r}" if join.residual is not None else ""
    return f"{algorithm}[{join.join_type.value}]({keys}){residual}"
