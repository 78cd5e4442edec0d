"""Inputs, statements and reference answers for the two schemas the
paper evaluates on: the C-Store harness tables (Table 3) and meter
telemetry (Table 4b).

A schema object owns everything that depends on ``--seed``: the
generated rows, the keys each statement asks for, and a *ledger* of
what the database should hold — updated only when the database
acknowledged a write — against which every result is checked.  The
program under test receives only SQL text and COPY lines.

Both schemas answer the same vocabulary (``lookup``, ``rollup``,
``scan_pass``, ``join_pass``, ``copy``, ``insert``, ``verify``), so one
driver can run any traffic mix over either; ``ranges`` and ``delete``
exist for meter telemetry only.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

from repro import ColumnDef, TableDefinition, types
from repro.cstore import QuerySpec
from repro.workloads import cstore_benchmark as cb
from repro.workloads import meters

#: COPY batches above this many good rows go direct to ROS
#: (``repro.sql.interface._copy``); the preload relies on it.
PRELOAD_BATCH = 20_000


@dataclass
class Stmt:
    """One statement, the check of its result, and what to note in the
    ledger once the database acknowledged it."""

    kind: str
    sql: str
    check: Callable[[object], bool]
    copy_rows: list[str] | None = None
    ack: Callable[[], None] | None = None
    #: rows and bytes of user text a write loads
    rows: int = 0
    text_bytes: int = 0


def _close(a, b) -> bool:
    """Float equality up to summation order."""
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _grouped_equal(actual, expected: dict, key: str, exact=(), approx=()) -> bool:
    """Whether ``actual`` rows, keyed by column ``key``, carry exactly
    the groups of ``expected`` (group -> {column: value})."""
    if not isinstance(actual, list) or len(actual) != len(expected):
        return False
    for row in actual:
        want = expected.get(row[key])
        if want is None:
            return False
        if any(row[name] != want[name] for name in exact):
            return False
        if not all(_close(row[name], want[name]) for name in approx):
            return False
    return True


def _top_equal(actual, sums: dict, key: str, column: str, limit: int) -> bool:
    """Check an ``ORDER BY <column> DESC LIMIT`` result: the values are
    the largest ones in order, and each row names a group that really
    has its value (ties may come back in any order)."""
    if not isinstance(actual, list):
        return False
    best = sorted(sums.values(), reverse=True)[:limit]
    return [row[column] for row in actual] == best and all(
        sums.get(row[key]) == row[column] for row in actual
    )


def _copy_ok(expected_rows: int) -> Callable[[object], bool]:
    return lambda result: (
        getattr(result, "loaded", None) == expected_rows and not result.rejected
    )


# -- meter telemetry ---------------------------------------------------------

#: Scan-pass restriction on the float column and join-pass restrictions.
VALUE_CUT = 50
JOIN_METRIC = "metric_0004"


def sites_table() -> TableDefinition:
    """One row per meter: the dimension the join pass rolls up by."""
    return TableDefinition(
        "meter_sites",
        [
            ColumnDef("site_meter", types.INTEGER),
            ColumnDef("zone", types.INTEGER),
            ColumnDef("kind", types.VARCHAR),
        ],
    )


class MeterSchema:
    """``meter_readings`` sorted (metric, meter, ts) plus ``meter_sites``.

    Rows come from ``workloads.meters.generate`` in collection order
    (reading by reading): the first ``preload_rows`` are loaded during
    set-up, the rest feed the COPY statements of the timed phase, so
    trickle loads carry later timestamps as real telemetry would.
    """

    name = "meters"

    def __init__(self, seed: int, metrics: int, meters_count: int,
                 preload_rows: int, feed_rows: int):
        per_reading = metrics * meters_count
        readings = -(-(preload_rows + feed_rows) // per_reading)
        self.spec = meters.MeterDataSpec(metrics, meters_count, readings, seed)
        rows = [
            (row["metric"], row["meter"], row["ts"], row["value"])
            for row in meters.generate(self.spec)
        ]
        self._preload = rows[:preload_rows]
        self._feed = rows[preload_rows : preload_rows + feed_rows]
        self._feed_at = 0
        self._rng = random.Random(seed * 7919 + 13)
        #: single-row INSERTs carry their own increasing timestamps,
        #: past anything the generator emits
        self._next_manual_ts = readings * max(meters.INTERVALS) + 1
        self.metric_names = [f"metric_{i:04d}" for i in range(metrics)]
        self.meters_count = meters_count
        self.live: dict[tuple, list[tuple]] = {}
        self.version = 0
        self._reference_at = -1
        self._reference: dict = {}

    # -- inputs --------------------------------------------------------

    @staticmethod
    def line(row: tuple) -> str:
        return f"{row[0]}|{row[1]}|{row[2]}|{row[3]!r}"

    def input_digest(self) -> str:
        """SHA-256 over every generated input line, in order."""
        digest = hashlib.sha256()
        for row in self._preload + self._feed:
            digest.update(self.line(row).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def sizes(self) -> dict:
        return {
            "schema": self.name,
            "metrics": self.spec.metrics,
            "meters": self.spec.meters,
            "preload_rows": len(self._preload),
            "feed_rows": len(self._feed),
        }

    def _note(self, rows) -> None:
        live = self.live
        for metric, meter, ts, value in rows:
            live.setdefault((metric, meter), []).append((ts, value))
        self.version += 1

    def live_rows(self) -> int:
        return sum(len(readings) for readings in self.live.values())

    # -- set-up --------------------------------------------------------

    def create(self, db) -> None:
        db.create_table(
            meters.meters_table(), sort_order=["metric", "meter", "ts"]
        )
        db.create_table(sites_table(), sort_order=["site_meter"])

    def preload(self) -> list[Stmt]:
        """The set-up loads: the dimension rows, then the readings in
        direct-to-ROS batches."""
        sites = [
            f"{meter}|{meter % 7}|{'abc'[meter % 3]}"
            for meter in range(self.meters_count)
        ]
        out = [
            Stmt("copy", "COPY meter_sites FROM STDIN", _copy_ok(len(sites)),
                 copy_rows=sites)
        ]
        for start in range(0, len(self._preload), PRELOAD_BATCH):
            out.append(self._copy_stmt(self._preload[start : start + PRELOAD_BATCH]))
        return out

    # -- reads ---------------------------------------------------------

    def _key(self) -> tuple:
        return (
            self._rng.choice(self.metric_names),
            self._rng.randrange(self.meters_count),
        )

    def lookup(self) -> Stmt:
        metric, meter = self._key()
        expected = sorted(self.live.get((metric, meter), ()))
        return Stmt(
            "lookup",
            "SELECT ts, value FROM meter_readings "
            f"WHERE metric = '{metric}' AND meter = {meter}",
            lambda rows: isinstance(rows, list)
            and sorted((r["ts"], r["value"]) for r in rows) == expected,
        )

    def ranges(self) -> Stmt:
        metric, meter = self._key()
        readings = sorted(self.live.get((metric, meter), ()))
        stamps = [ts for ts, _ in readings] or [0]
        low = self._rng.choice(stamps)
        high = low + (stamps[-1] - stamps[0]) // 3
        expected = [r for r in readings if low <= r[0] <= high]
        return Stmt(
            "range",
            "SELECT ts, value FROM meter_readings "
            f"WHERE metric = '{metric}' AND meter = {meter} "
            f"AND ts BETWEEN {low} AND {high}",
            lambda rows: isinstance(rows, list)
            and sorted((r["ts"], r["value"]) for r in rows) == expected,
        )

    def rollup(self) -> Stmt:
        metric = self._rng.choice(self.metric_names)
        expected = {}
        for meter in range(self.meters_count):
            readings = self.live.get((metric, meter))
            if readings:
                expected[meter] = {
                    "v": sum(value for _, value in readings) / len(readings)
                }
        return Stmt(
            "rollup",
            "SELECT meter, avg(value) AS v FROM meter_readings "
            f"WHERE metric = '{metric}' GROUP BY meter",
            lambda rows: _grouped_equal(rows, expected, "meter", approx=("v",)),
        )

    def _answers(self) -> dict:
        """Reference answers of both passes, recomputed in plain Python
        whenever the ledger changed."""
        if self._reference_at == self.version:
            return self._reference
        per_metric: dict = {}
        per_meter: dict = {}
        per_zone: dict = {}
        per_kind: dict = {}
        meter_cut = self._meter_cut()
        for (metric, meter), readings in self.live.items():
            stamps = 0
            for ts, value in readings:
                stamps += ts
                if value < VALUE_CUT:
                    slot = per_metric.get(metric)
                    if slot is None:
                        slot = per_metric[metric] = {"n": 0, "s": 0.0}
                    slot["n"] += 1
                    slot["s"] += value
            if readings:
                per_meter[meter] = per_meter.get(meter, 0) + stamps
                if meter < meter_cut:
                    kind = "abc"[meter % 3]
                    per_kind[kind] = per_kind.get(kind, 0) + len(readings)
                if metric == JOIN_METRIC:
                    slot = per_zone.setdefault(meter % 7, {"n": 0, "s": 0})
                    slot["n"] += len(readings)
                    slot["s"] += stamps
        self._reference = {
            "per_metric": per_metric,
            "per_meter": per_meter,
            "per_zone": per_zone,
            "per_kind": {kind: {"n": n} for kind, n in per_kind.items()},
        }
        self._reference_at = self.version
        return self._reference

    def _meter_cut(self) -> int:
        """The second join reads the first third of the meters: like
        every restriction here, one whose row count no seed changes."""
        return self.meters_count // 3

    def scan_pass(self) -> list[Stmt]:
        ref = self._answers()
        return [
            Stmt(
                "scan",
                "SELECT metric, count(*) AS n, sum(value) AS s "
                f"FROM meter_readings WHERE value < {VALUE_CUT} GROUP BY metric",
                lambda rows: _grouped_equal(
                    rows, ref["per_metric"], "metric", exact=("n",), approx=("s",)
                ),
            ),
            Stmt(
                "scan",
                "SELECT meter, sum(ts) AS s FROM meter_readings "
                "GROUP BY meter ORDER BY s DESC LIMIT 10",
                lambda rows: _top_equal(rows, ref["per_meter"], "meter", "s", 10),
            ),
        ]

    def join_pass(self) -> list[Stmt]:
        ref = self._answers()
        return [
            Stmt(
                "join",
                "SELECT zone, count(*) AS n, sum(ts) AS s FROM meter_readings "
                "JOIN meter_sites ON meter = site_meter "
                f"WHERE metric = '{JOIN_METRIC}' GROUP BY zone",
                lambda rows: _grouped_equal(
                    rows, ref["per_zone"], "zone", exact=("n", "s")
                ),
            ),
            Stmt(
                "join",
                "SELECT kind, count(*) AS n FROM meter_readings "
                "JOIN meter_sites ON meter = site_meter "
                f"WHERE meter < {self._meter_cut()} GROUP BY kind",
                lambda rows: _grouped_equal(
                    rows, ref["per_kind"], "kind", exact=("n",)
                ),
            ),
        ]

    # -- writes --------------------------------------------------------

    def _copy_stmt(self, rows: list[tuple]) -> Stmt:
        lines = [self.line(row) for row in rows]
        return Stmt(
            "copy",
            "COPY meter_readings FROM STDIN",
            _copy_ok(len(rows)),
            copy_rows=lines,
            ack=lambda: self._note(rows),
            rows=len(rows),
            text_bytes=sum(len(line) + 1 for line in lines),
        )

    def copy(self, count: int) -> Stmt:
        rows = self._feed[self._feed_at : self._feed_at + count]
        if len(rows) != count:
            raise ValueError("the workload's feed is too small for its schedule")
        self._feed_at += count
        return self._copy_stmt(rows)

    def insert(self) -> Stmt:
        metric, meter = self._key()
        # non-negative: the INSERT grammar takes constants only, and a
        # negative literal parses as a unary expression
        row = (metric, meter, self._next_manual_ts,
               round(self._rng.uniform(0, 100), 3))
        self._next_manual_ts += 1
        sql = (
            "INSERT INTO meter_readings VALUES "
            f"('{row[0]}', {row[1]}, {row[2]}, {row[3]!r})"
        )
        return Stmt(
            "insert", sql, lambda result: result == 1,
            ack=lambda: self._note([row]), rows=1, text_bytes=len(sql),
        )

    def delete(self) -> Stmt:
        metric, meter = self._key()
        readings = sorted(self.live.get((metric, meter), ()))
        cutoff = readings[len(readings) // 2][0] if readings else 0

        def ack() -> None:
            self.live[(metric, meter)] = [r for r in readings if r[0] >= cutoff]
            self.version += 1

        return Stmt(
            "delete",
            f"DELETE FROM meter_readings WHERE metric = '{metric}' "
            f"AND meter = {meter} AND ts < {cutoff}",
            lambda result: result is None,
            ack=ack,
        )

    # -- whole-table verification --------------------------------------

    def verify(self) -> list[Stmt]:
        """Totals the table must show after a load and after every cold
        open: row count, timestamp sum, per-metric counts."""
        total = self.live_rows()
        stamps = sum(ts for readings in self.live.values() for ts, _ in readings)
        per_metric: dict = {}
        for (metric, _), readings in self.live.items():
            if readings:
                slot = per_metric.setdefault(metric, {"n": 0})
                slot["n"] += len(readings)
        return [
            Stmt(
                "verify",
                "SELECT count(*) AS n, sum(ts) AS s FROM meter_readings",
                lambda rows: rows == [{"n": total, "s": stamps if total else None}],
            ),
            Stmt(
                "verify",
                "SELECT metric, count(*) AS n FROM meter_readings GROUP BY metric",
                lambda rows: _grouped_equal(rows, per_metric, "metric", exact=("n",)),
            ),
        ]


# -- the C-Store harness -----------------------------------------------------

QUANTITY_CUT = 25
J3_SHIP_AFTER = 1200
J3_ORDER_BEFORE = 1500
ROLLUP_DAYS = 30

_LINEITEM_COLUMNS = [column.name for column in cb.lineitem_table().columns]


def _extra_queries() -> list[QuerySpec]:
    """S6, S7 and J3: shapes the seven harness queries lack — a
    restriction on an unsorted column, a top-N, and a join restricted on
    both sides.  S6 and S7 carry two aggregates / an ORDER BY, which a
    QuerySpec cannot say, so they have their own reference below."""
    return [
        QuerySpec(
            name="J3",
            table="lineitem",
            columns=[],
            join=("lineitem", "l_orderkey", "orders", "o_orderkey"),
            filters={
                "lineitem": lambda row: row["l_shipdate"] > J3_SHIP_AFTER,
                "orders": lambda row: row["o_orderdate"] < J3_ORDER_BEFORE,
            },
            filter_columns={"lineitem": ["l_shipdate"], "orders": ["o_orderdate"]},
            group_by=["o_shippriority"],
            aggregate=("COUNT", None),
            sql=(
                "SELECT o_shippriority, count(*) AS agg FROM lineitem "
                "JOIN orders ON l_orderkey = o_orderkey "
                f"WHERE l_shipdate > {J3_SHIP_AFTER} "
                f"AND o_orderdate < {J3_ORDER_BEFORE} GROUP BY o_shippriority"
            ),
        )
    ]


def _canonical(rows) -> list:
    return sorted(tuple(sorted(row.items())) for row in rows)


class CStoreSchema:
    """``lineitem`` and ``orders`` as ``workloads.cstore_benchmark``
    generates them.  Writes of the timed phase are later orders: a
    second generated set whose order keys follow the first's."""

    name = "cstore"

    def __init__(self, seed: int, scale: float, feed_lineitem: int,
                 feed_orders: int):
        self._generated = cb.generate(scale=scale, seed=seed)
        # an order draws 1-5 lines, so the line count varies with the
        # seed; cut it to one no seed misses, so sizes never do
        del self._generated.lineitem[int(40_000 * scale):]
        if len(self._generated.lineitem) != int(40_000 * scale):
            raise ValueError("generated lineitem is smaller than the fixed size")
        # an order has 1-5 lines, so a scale sized for 2 per order and
        # for the single-row order INSERTs always yields enough of both
        feed = cb.generate(
            scale=max(feed_lineitem / 30_000, feed_orders / 15_000) + 0.001,
            seed=seed + 1,
        )
        shift = len(self._generated.orders)
        for row in feed.orders:
            row["o_orderkey"] += shift
        for row in feed.lineitem:
            row["l_orderkey"] += shift
        self._feed_lineitem = feed.lineitem[:feed_lineitem]
        self._feed_orders = feed.orders[:feed_orders]
        if (len(self._feed_lineitem), len(self._feed_orders)) != (
            feed_lineitem, feed_orders
        ):
            raise ValueError("generated feed is smaller than the schedule needs")
        self._lineitem_at = 0
        self._orders_at = 0
        self.scale = scale
        self._rng = random.Random(seed * 7919 + 29)
        self.by_date: dict[int, list[dict]] = {}
        self.version = 0
        self._reference_at = -1
        self._reference: dict = {}
        specs = cb.queries() + _extra_queries()
        self._scan_specs = [spec for spec in specs if spec.join is None]
        self._join_specs = [spec for spec in specs if spec.join is not None]
        #: the ledger: what the database acknowledged so far
        self.data = cb.CStoreBenchmarkData([], [], scale)

    # -- inputs --------------------------------------------------------

    @staticmethod
    def line(row: dict) -> str:
        return "|".join(
            repr(row[name]) if isinstance(row[name], float) else str(row[name])
            for name in _LINEITEM_COLUMNS
        )

    def input_digest(self) -> str:
        digest = hashlib.sha256()
        generated = self._generated
        for rows in (generated.lineitem, generated.orders,
                     self._feed_lineitem, self._feed_orders):
            for row in rows:
                digest.update(repr(sorted(row.items())).encode())
        return digest.hexdigest()

    def sizes(self) -> dict:
        return {
            "schema": self.name,
            "scale": self.scale,
            "preload_lineitem": len(self._generated.lineitem),
            "preload_orders": len(self._generated.orders),
            "feed_lineitem": len(self._feed_lineitem),
            "feed_orders": len(self._feed_orders),
        }

    def _note_lineitem(self, rows) -> None:
        self.data.lineitem.extend(rows)
        for row in rows:
            self.by_date.setdefault(row["l_shipdate"], []).append(row)
        self.version += 1

    def _note_orders(self, rows) -> None:
        self.data.orders.extend(rows)
        self.version += 1

    def live_rows(self) -> int:
        return len(self.data.lineitem) + len(self.data.orders)

    # -- set-up --------------------------------------------------------

    def create(self, db) -> None:
        db.create_table(cb.lineitem_table())
        db.create_table(cb.orders_table())

    def preload(self) -> list[Stmt]:
        lineitem, orders = self._generated.lineitem, self._generated.orders
        out = []
        for start in range(0, len(lineitem), PRELOAD_BATCH):
            out.append(self._copy_lineitem(lineitem[start : start + PRELOAD_BATCH]))
        for start in range(0, len(orders), PRELOAD_BATCH):
            rows = orders[start : start + PRELOAD_BATCH]
            lines = [
                f"{r['o_orderdate']}|{r['o_orderkey']}|{r['o_custkey']}|"
                f"{r['o_shippriority']}"
                for r in rows
            ]
            out.append(
                Stmt(
                    "copy", "COPY orders FROM STDIN", _copy_ok(len(rows)),
                    copy_rows=lines,
                    ack=lambda rows=rows: self._note_orders(rows),
                    rows=len(rows),
                    text_bytes=sum(len(line) + 1 for line in lines),
                )
            )
        return out

    # -- reads ---------------------------------------------------------

    def lookup(self) -> Stmt:
        date = self._rng.randrange(cb.BASE_DATE, cb.BASE_DATE + cb.DATE_SPAN)
        expected = sorted(
            (r["l_orderkey"], r["l_linenumber"], r["l_quantity"])
            for r in self.by_date.get(date, ())
        )
        return Stmt(
            "lookup",
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem "
            f"WHERE l_shipdate = {date}",
            lambda rows: isinstance(rows, list)
            and sorted(
                (r["l_orderkey"], r["l_linenumber"], r["l_quantity"]) for r in rows
            )
            == expected,
        )

    def rollup(self) -> Stmt:
        low = self._rng.randrange(cb.BASE_DATE, cb.BASE_DATE + cb.DATE_SPAN - ROLLUP_DAYS)
        high = low + ROLLUP_DAYS - 1
        expected: dict = {}
        for date in range(low, high + 1):
            for row in self.by_date.get(date, ()):
                slot = expected.setdefault(row["l_returnflag"], {"n": 0, "q": 0})
                slot["n"] += 1
                slot["q"] += row["l_quantity"]
        return Stmt(
            "rollup",
            "SELECT l_returnflag, count(*) AS n, sum(l_quantity) AS q "
            f"FROM lineitem WHERE l_shipdate BETWEEN {low} AND {high} "
            "GROUP BY l_returnflag",
            lambda rows: _grouped_equal(
                rows, expected, "l_returnflag", exact=("n", "q")
            ),
        )

    def _answers(self) -> dict:
        if self._reference_at == self.version:
            return self._reference
        ref = {
            spec.name: _canonical(cb.reference_answer(spec, self.data))
            for spec in self._scan_specs + self._join_specs
        }
        by_flag: dict = {}
        by_supplier: dict = {}
        for row in self.data.lineitem:
            supplier = row["l_suppkey"]
            by_supplier[supplier] = by_supplier.get(supplier, 0) + row["l_quantity"]
            if row["l_quantity"] < QUANTITY_CUT:
                slot = by_flag.setdefault(row["l_returnflag"], {"n": 0, "s": 0.0})
                slot["n"] += 1
                slot["s"] += row["l_extendedprice"]
        ref["S6"] = by_flag
        ref["S7"] = by_supplier
        self._reference = ref
        self._reference_at = self.version
        return ref

    def _spec_stmts(self, kind: str, specs) -> list[Stmt]:
        ref = self._answers()
        return [
            Stmt(
                kind, spec.sql,
                lambda rows, want=ref[spec.name]: isinstance(rows, list)
                and _canonical(rows) == want,
            )
            for spec in specs
        ]

    def scan_pass(self) -> list[Stmt]:
        ref = self._answers()
        return self._spec_stmts("scan", self._scan_specs) + [
            Stmt(
                "scan",
                "SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS s "
                f"FROM lineitem WHERE l_quantity < {QUANTITY_CUT} "
                "GROUP BY l_returnflag",
                lambda rows: _grouped_equal(
                    rows, ref["S6"], "l_returnflag", exact=("n",), approx=("s",)
                ),
            ),
            Stmt(
                "scan",
                "SELECT l_suppkey, sum(l_quantity) AS s FROM lineitem "
                "GROUP BY l_suppkey ORDER BY s DESC LIMIT 10",
                lambda rows: _top_equal(rows, ref["S7"], "l_suppkey", "s", 10),
            ),
        ]

    def join_pass(self) -> list[Stmt]:
        return self._spec_stmts("join", self._join_specs)

    # -- writes --------------------------------------------------------

    def _copy_lineitem(self, rows: list[dict]) -> Stmt:
        lines = [self.line(row) for row in rows]
        return Stmt(
            "copy", "COPY lineitem FROM STDIN", _copy_ok(len(rows)),
            copy_rows=lines,
            ack=lambda: self._note_lineitem(rows),
            rows=len(rows),
            text_bytes=sum(len(line) + 1 for line in lines),
        )

    def copy(self, count: int) -> Stmt:
        rows = self._feed_lineitem[self._lineitem_at : self._lineitem_at + count]
        if len(rows) != count:
            raise ValueError("the workload's feed is too small for its schedule")
        self._lineitem_at += count
        return self._copy_lineitem(rows)

    def insert(self) -> Stmt:
        if self._orders_at >= len(self._feed_orders):
            raise ValueError("the workload's feed is too small for its schedule")
        row = self._feed_orders[self._orders_at]
        self._orders_at += 1
        sql = (
            "INSERT INTO orders VALUES "
            f"({row['o_orderdate']}, {row['o_orderkey']}, "
            f"{row['o_custkey']}, {row['o_shippriority']})"
        )
        return Stmt(
            "insert", sql, lambda result: result == 1,
            ack=lambda: self._note_orders([row]), rows=1, text_bytes=len(sql),
        )

    # -- whole-table verification --------------------------------------

    def verify(self) -> list[Stmt]:
        lineitem = len(self.data.lineitem)
        quantity = sum(row["l_quantity"] for row in self.data.lineitem)
        orders = len(self.data.orders)
        keys = sum(row["o_orderkey"] for row in self.data.orders)
        return [
            Stmt(
                "verify",
                "SELECT count(*) AS n, sum(l_quantity) AS s FROM lineitem",
                lambda rows: rows == [{"n": lineitem, "s": quantity}],
            ),
            Stmt(
                "verify",
                "SELECT count(*) AS n, sum(o_orderkey) AS s FROM orders",
                lambda rows: rows == [{"n": orders, "s": keys}],
            ),
        ]
