"""Per-layer tracing from outside the program.

``Tracing`` wraps, at run time, the public callables at the boundaries
of the ``src/repro`` packages and records one span per call — name,
start, busy time, parent, root — in memory.  A layer's *self time* is
its span's busy time minus the busy time of its child spans, so the
self times of one statement add up to the statement.  Nothing in the
product changes: the wrappers are attributes set on the product's
modules and classes, and ``Tracing.__exit__`` puts the originals back.

The untraced run carries ``DeviceCounter`` only: bytes and seconds
inside ``storage.fsio``'s write and publish functions.
The product's own ``TRACER`` stays off.
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from time import perf_counter

from .calib import DEVICE_PUBLISH_S, device_write_seconds

#: span name -> where the callable lives ("module:attr" or
#: "module:Class.attr").  One span name may cover several callables.
TARGETS: list[tuple[str, str]] = [
    ("sql.parse", "repro.sql.parser:parse"),
    ("sql.analyze", "repro.sql.analyzer:Analyzer.analyze_select"),
    ("sql.execute", "repro.sql.interface:execute_sql"),
    ("optimizer.plan", "repro.optimizer.planner:PlannerBase.plan"),
    ("optimizer.stats_refresh", "repro.optimizer.stats:StatsCatalog.refresh"),
    ("core.session", "repro.core.database:Session.query"),
    ("core.session", "repro.core.database:Session.commit"),
    ("core.session", "repro.core.database:Session.insert"),
    ("core.session", "repro.core.database:Session.delete"),
    ("execution.run", "repro.execution.executor:DistributedExecutor.run"),
    ("storage.scan", "repro.storage.manager:StorageManager.scan"),
    ("storage.decode", "repro.storage.column_file:ColumnReader.block_values"),
    ("storage.decode", "repro.storage.column_file:ColumnReader.block_vector"),
    ("storage.insert", "repro.storage.manager:StorageManager.insert"),
    ("storage.container_build",
     "repro.storage.manager:StorageManager.add_container_from_rows"),
    ("storage.delete_where", "repro.storage.manager:StorageManager.delete_where"),
    ("storage.scavenge", "repro.storage.manager:StorageManager.scavenge"),
    ("storage.truncate",
     "repro.storage.manager:StorageManager.truncate_after_epoch"),
    ("projections.route", "repro.cluster.cluster:Cluster.route_rows"),
    ("cluster.commit", "repro.cluster.cluster:Cluster.commit_dml"),
    ("tuple_mover.moveout", "repro.tuple_mover.mover:TupleMover.moveout"),
    ("tuple_mover.mergeout", "repro.tuple_mover.mover:TupleMover.mergeout"),
    ("txn.lock_acquire", "repro.txn.locks:LockManager.acquire"),
    ("durability.append", "repro.durability.journal:Journal.log_commit"),
    ("durability.append", "repro.durability.journal:Journal.log_floor"),
    ("durability.append", "repro.durability.journal:Journal.log_ddl"),
    ("durability.checkpoint", "repro.durability.journal:Journal.write_checkpoint"),
    ("durability.replay", "repro.durability.coldstart:replay_journal"),
    ("dc.record", "repro.dc.collector:DataCollector.record"),
    ("dc.flush", "repro.dc.collector:DataCollector.flush"),
    ("monitor.profile", "repro.monitor.profile:build_query_profile"),
    ("service.execute", "repro.service.session:ServiceSession.execute"),
    ("service.admit", "repro.service.governor:ResourceGovernor.admit"),
    ("fsio.write", "repro.storage.fsio:write_bytes"),
    ("fsio.publish", "repro.storage.fsio:publish_file"),
    ("fsio.publish", "repro.storage.fsio:publish_dir"),
]

#: Generator-returning targets: busy time is the time inside ``next()``.
GENERATORS = {"storage.scan"}

#: Spans of the device (file system).  They are leaves; the fold takes
#: their real time out of the layer that asked for the write and gives
#: that layer the reference device's time for the same call instead.
DEVICE_SPANS = {"fsio.write", "fsio.publish"}

#: Phases whose spans and counts make the per-layer metrics.
MEASURED = frozenset({"timed", "cold"})

#: A span row: [name, start, busy seconds, parent index, root index,
#: seconds on the reference device (device spans only)].
NAME, START, BUSY, PARENT, ROOT, MODEL = range(6)


def _resolve(path: str):
    """("module:Class.attr") -> (owner object, attribute name)."""
    module_name, _, dotted = path.partition(":")
    owner = importlib.import_module(module_name)
    *holders, attr = dotted.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, path: str, make) -> None:
        """Replace the callable at ``path`` by ``make(original)`` —
        on its owner and, for a module-level function, on every loaded
        ``repro`` module that imported it by name."""
        owner, attr = _resolve(path)
        original = owner.__dict__[attr]
        replacement = make(original)
        holders = [owner]
        if isinstance(owner, types.ModuleType):
            holders += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro")
                and module is not owner
                and module is not None
                and module.__dict__.get(attr) is original
            ]
        for holder in holders:
            self._saved.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def replaced(self) -> list[tuple[object, str, object]]:
        """(holder, attribute, original) of every live replacement."""
        return list(self._saved)


class DeviceCounter:
    """What went through ``storage.fsio``'s write and publish functions
    — the only wrappers the untraced run carries.  ``write_amp`` needs
    the bytes; the driver replaces the seconds actually spent there by
    ``modelled``, the same calls on the reference device (``calib.py``)."""

    def __init__(self) -> None:
        self.writes = 0
        self.bytes = 0
        self.seconds = 0.0
        self.modelled = 0.0
        self._patches = Patches()

    def __enter__(self) -> "DeviceCounter":
        def write(original):
            def write_bytes(path, data):
                self.writes += 1
                self.bytes += len(data)
                self.modelled += device_write_seconds(len(data))
                started = perf_counter()
                try:
                    return original(path, data)
                finally:
                    self.seconds += perf_counter() - started

            return write_bytes

        def publish(original):
            def published(tmp_path, final_path):
                self.modelled += DEVICE_PUBLISH_S
                started = perf_counter()
                try:
                    return original(tmp_path, final_path)
                finally:
                    self.seconds += perf_counter() - started

            return published

        self._patches.replace("repro.storage.fsio:write_bytes", write)
        self._patches.replace("repro.storage.fsio:publish_file", publish)
        self._patches.replace("repro.storage.fsio:publish_dir", publish)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracing:
    """Records spans around the ``TARGETS`` while active."""

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.stack: list[int] = []
        #: root index -> (phase, statement kind)
        self.roots: dict[int, tuple[str, str]] = {}
        #: phase of the latest root span; counts are kept in MEASURED only
        self.phase = "setup"
        self.counts = {"fsio.fsyncs": 0, "mover_rows_written": 0,
                       "exchange_rows": 0, "network_bytes": 0}
        self._patches = Patches()
        self._fsync = None

    # -- span recording --------------------------------------------------

    def _function(self, name: str, original, after=None):
        rows, stack = self.rows, self.stack

        def traced(*args, **kwargs):
            index = len(rows)
            parent = stack[-1] if stack else -1
            row = [name, 0.0, 0.0, parent,
                   rows[parent][ROOT] if parent >= 0 else index, 0.0]
            rows.append(row)
            stack.append(index)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                row[BUSY] = perf_counter() - started
                row[START] = started
                stack.pop()
                if after is not None:
                    after(args, row)

        traced.__wrapped__ = original
        return traced

    def _generator(self, name: str, original):
        rows, stack = self.rows, self.stack

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            index = -1
            while True:
                if index < 0:
                    # parent is whoever first pulls, not who built it
                    index = len(rows)
                    parent = stack[-1] if stack else -1
                    row = [name, perf_counter(), 0.0, parent,
                           rows[parent][ROOT] if parent >= 0 else index, 0.0]
                    rows.append(row)
                stack.append(index)
                started = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    row[BUSY] += perf_counter() - started
                    stack.pop()
                yield item

        traced.__wrapped__ = original
        return traced

    def root(self, phase: str, kind: str) -> "_Root":
        """Context manager for a client-side root span (a statement, a
        mover cycle, a cold open)."""
        return _Root(self, phase, kind)

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "Tracing":
        counts = self.counts
        # load every target's module first: a module imported while the
        # wrappers are on would bind a wrapper by name and keep it
        for _, path in TARGETS:
            _resolve(path)

        def mover_rows(args, row) -> None:
            if self.phase in MEASURED:
                counts["mover_rows_written"] += len(args[2])

        def exchange(args, row) -> None:
            if self.phase in MEASURED:
                stats = args[0].stats
                counts["exchange_rows"] += stats.rows_resegmented
                counts["network_bytes"] += stats.network_bytes

        def wrote(args, row) -> None:
            row[MODEL] = device_write_seconds(len(args[1]))

        def published(args, row) -> None:
            row[MODEL] = DEVICE_PUBLISH_S

        after = {"storage.container_build": mover_rows, "execution.run": exchange,
                 "fsio.write": wrote, "fsio.publish": published}
        for name, path in TARGETS:
            if name in GENERATORS:
                self._patches.replace(
                    path, lambda original, name=name: self._generator(name, original)
                )
            else:
                self._patches.replace(
                    path,
                    lambda original, name=name: self._function(
                        name, original, after.get(name)
                    ),
                )
        self._fsync = os.fsync

        def fsync(fd):
            counts["fsio.fsyncs"] += self.phase in MEASURED
            return self._fsync(fd)

        os.fsync = fsync
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()
        os.fsync = self._fsync

    def replaced(self) -> list[tuple[object, str, object]]:
        return self._patches.replaced()

    # -- folding ---------------------------------------------------------

    def self_times(self, phases=MEASURED, factor_at=None) -> dict[str, list]:
        """name -> [compute seconds, device seconds, calls] over the
        spans whose root lies in one of ``phases``.

        A span's compute self time is its busy time minus its children's
        busy time, scaled by ``factor_at(midpoint of its root)`` when
        given; its device time is what the ``fsio`` spans directly under
        it cost on the reference device.  Client root spans fold under
        ``client.<kind>``: what they keep is what no wrapper claimed."""
        rows = self.rows
        child_busy = [0.0] * len(rows)
        child_device = [0.0] * len(rows)
        for row in rows:
            if row[PARENT] >= 0:
                child_busy[row[PARENT]] += row[BUSY]
                if row[NAME] in DEVICE_SPANS:
                    child_device[row[PARENT]] += row[MODEL]
        factors: dict[int, float] = {}
        out: dict[str, list] = {}
        for index, row in enumerate(rows):
            root = self.roots.get(row[ROOT])
            name = row[NAME]
            if root is None or root[0] not in phases or name in DEVICE_SPANS:
                continue
            factor = factors.get(row[ROOT])
            if factor is None:
                top = rows[row[ROOT]]
                factor = factors[row[ROOT]] = (
                    factor_at(top[START] + top[BUSY] / 2) if factor_at else 1.0
                )
            if name == "sql.execute" and root[1] == "copy":
                # COPY's line parsing runs inside execute_sql itself
                name = "sql.copy"
            slot = out.setdefault(name, [0.0, 0.0, 0])
            slot[0] += (row[BUSY] - child_busy[index]) * factor
            slot[1] += child_device[index]
            slot[2] += 1
        return out

    def calls(self, name: str, phases=MEASURED, nested: bool = True) -> int:
        """Calls of ``name``; with ``nested=False``, only those not made
        from inside another ``name`` span."""
        rows = self.rows
        return sum(
            1
            for row in rows
            if row[NAME] == name
            and (nested or row[PARENT] < 0 or rows[row[PARENT]][NAME] != name)
            and self.roots.get(row[ROOT], ("", ""))[0] in phases
        )


class _Root:
    def __init__(self, tracing: Tracing, phase: str, kind: str):
        self._tracing = tracing
        self._tag = (phase, kind)

    def __enter__(self) -> None:
        tracing = self._tracing
        index = len(tracing.rows)
        self._row = ["client." + self._tag[1], perf_counter(), 0.0, -1, index, 0.0]
        tracing.rows.append(self._row)
        tracing.roots[index] = self._tag
        tracing.phase = self._tag[0]
        tracing.stack.append(index)

    def __exit__(self, *exc) -> None:
        self._row[BUSY] = perf_counter() - self._row[START]
        self._tracing.stack.pop()


def span_cost() -> float:
    """Seconds one span adds to the call it wraps, measured on a
    no-op so the traced run can state its own overhead."""
    def noop():
        return None

    probe = Tracing()
    traced = probe._function("probe", noop)
    rounds = 20000
    started = perf_counter()
    for _ in range(rounds):
        noop()
    bare = perf_counter() - started
    started = perf_counter()
    for _ in range(rounds):
        traced()
    return max(perf_counter() - started - bare, 0.0) / rounds


def budget_table(self_seconds: dict[str, float], calls: dict[str, int]) -> str:
    """The per-workload time budget: span name, self ms, share, calls;
    largest first."""
    total = sum(self_seconds.values()) or 1.0
    lines = [f"{'layer':<28}{'self ms':>12}{'share':>9}{'calls':>10}"]
    for name, seconds in sorted(self_seconds.items(), key=lambda item: -item[1]):
        lines.append(
            f"{name:<28}{seconds * 1000:>12.1f}{seconds / total:>9.1%}"
            f"{calls[name]:>10}"
        )
    return "\n".join(lines)
