"""Runs one workload end to end: set-up, timed phase, cold restarts,
checks, metrics.

One process, one thread, one closed-loop client: the next operation is
sent when the previous one returned.  Every result is checked against
the schema's ledger *outside* the timed region; a failed, refused or
wrong-answer operation counts in ``failed`` and makes the run incorrect.

Phases (each has its own calibration factor, see ``calib.py``):

``setup``  generate inputs, DDL, load, mover cycle, statistics —
           repeated ``SETUP_REPEATS`` times into fresh directories, the
           median reported as ``setup_s``; the last database is kept
``timed``  the workload's schedule
``cold``   ``COLD_OPENS`` x {drop the database object, ``Database.open``,
           verify the tables against the ledger, one cold round}
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import tempfile
from contextlib import nullcontext
from statistics import mean, median
from time import perf_counter

from repro import Database
from repro.monitor import METRICS
from repro.service import SqlService

from .calib import (
    DEVICE_BYTE_S, DEVICE_PUBLISH_S, DEVICE_WRITE_S, REF_CPU_MS, REF_MEM_MS,
    Calibrator,
)
from .layers import (
    BUSY, MEASURED, DeviceCounter, Tracing, budget_table, span_cost,
)
from .workloads import WORKLOADS, schedule_for

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

SETUP_REPEATS = 3
COLD_OPENS = 3

#: Switches that change what the product does; a number taken with any
#: of them set is not this benchmark's number.
FORBIDDEN_ENV = (
    "REPRO_SANITIZE", "REPRO_TRACE", "REPRO_FORCE_ROW_ENGINE", "REPRO_DC_DISABLE",
)


class ForbiddenEnvironment(RuntimeError):
    """The process environment would distort the measurement."""


def check_environment() -> None:
    for name in FORBIDDEN_ENV:
        if os.environ.get(name, "") not in ("", "0"):
            raise ForbiddenEnvironment(
                f"{name}={os.environ[name]!r} is set: perflab measures the "
                "product as shipped; unset it"
            )


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


class DirectClient:
    """Autocommit statements through ``Database.sql``."""

    def __init__(self, db):
        self._db = db

    def execute(self, sql: str, copy_rows=None):
        return self._db.sql(sql, copy_rows=copy_rows)

    def close(self) -> None:
        pass


class ServiceClient:
    """One governed ``SqlService`` session."""

    def __init__(self, db):
        self._service = SqlService(db)
        self._session = self._service.connect()

    def execute(self, sql: str, copy_rows=None):
        return self._session.execute(sql, copy_rows=copy_rows)

    def close(self) -> None:
        self._service.shutdown()


def _directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _total(samples) -> tuple:
    """Sum of samples, starting when the first did."""
    return (sum(s[0] for s in samples), sum(s[1] for s in samples),
            sum(s[2] for s in samples), samples[0][3])


class Run:
    """State of one workload run.

    A *sample* is ``(seconds, seconds of them inside storage.fsio, the
    reference device's seconds for the same fsio calls, start time)``;
    ``calib.py`` says how the three make one normalised time."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool = False):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.ops = schedule_for(self.workload, seconds, quick)
        self.tracing = Tracing() if trace else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: phase -> statement kind -> sample of each statement
        self.times: dict[str, dict[str, list[tuple]]] = {"timed": {}, "cold": {}}
        self.passes: dict[str, list[tuple]] = {"scan_pass": [], "join_pass": []}
        self.movers: list[tuple] = []
        #: rows and user-text bytes the timed phase loaded (COPY + INSERT)
        self.loaded_rows = 0
        self.copied_rows = 0
        self.loaded_text_bytes = 0
        self.disk_bytes_per_row = 0.0
        self.schema = self.db = self.client = None
        self.calibrator = self.device = None

    # -- one operation ---------------------------------------------------

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _measure(self, phase: str, kind: str, call) -> tuple:
        """Run ``call`` as one operation: (sample, result, error)."""
        self.attempted += 1
        device = self.device
        root = self.tracing.root(phase, kind) if self.tracing else nullcontext()
        with root:
            real_before, model_before = device.seconds, device.modelled
            started = perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # the run goes on and reports it
                result, error = None, exc
            sample = (perf_counter() - started, device.seconds - real_before,
                      device.modelled - model_before, started)
        if error is not None:
            self._fail(f"{kind}: {type(error).__name__}: {error}")
        return sample, result, error

    def _statement(self, stmt, phase: str) -> tuple:
        """Send one statement, time it, then check it."""
        sample, result, error = self._measure(
            phase, stmt.kind, lambda: self.client.execute(stmt.sql, stmt.copy_rows)
        )
        if error is None:
            if not stmt.check(result):
                self._fail(f"{stmt.kind}: wrong answer to {stmt.sql[:120]}")
            elif stmt.ack is not None:
                stmt.ack()
        if phase in self.times and stmt.kind != "verify":
            self.times[phase].setdefault(stmt.kind, []).append(sample)
            if phase == "timed":
                self.loaded_rows += stmt.rows
                self.loaded_text_bytes += stmt.text_bytes
                if stmt.kind == "copy":
                    self.copied_rows += stmt.rows
        return sample

    def _mover(self, phase: str) -> tuple:
        return self._measure(phase, "mover", self.db.run_tuple_movers)[0]

    # -- phases ----------------------------------------------------------

    def _setup_once(self, root: str) -> None:
        """Everything before the first timed operation."""
        schema = self.workload.schema(self.seed, self.quick, self.ops)
        db = Database(root, node_count=3, k_safety=1)
        schema.create(db)
        self.schema, self.db, self.client = schema, db, DirectClient(db)
        for stmt in schema.preload():
            self._statement(stmt, "setup")
            self.calibrator.tick("setup")
        self._mover("setup")
        self._measure("setup", "stats", db.analyze_statistics)
        for stmt in schema.verify():
            self._statement(stmt, "setup")

    def setup(self, scratch: str) -> list[tuple]:
        samples = []
        for attempt in range(SETUP_REPEATS):
            if self.db is not None:
                self._drop_database()
                shutil.rmtree(os.path.join(scratch, f"db{attempt - 1}"))
            gc.collect()
            self._calibrate("setup")
            real_before, model_before = self.device.seconds, self.device.modelled
            started = perf_counter()
            self._setup_once(os.path.join(scratch, f"db{attempt}"))
            samples.append(
                (perf_counter() - started, self.device.seconds - real_before,
                 self.device.modelled - model_before, started)
            )
            self._calibrate("setup")
        self.path = os.path.join(scratch, f"db{SETUP_REPEATS - 1}")
        return samples

    def _calibrate(self, phase: str) -> None:
        """Around an operation of seconds, where no tick can fall inside:
        enough samples on each side to scale it by its own surroundings."""
        for _ in range(3):
            self.calibrator.sample(phase)

    def _drop_database(self) -> None:
        self.client.close()
        self.client = self.db = None
        gc.collect()

    def _connect(self) -> None:
        make = ServiceClient if self.workload.service else DirectClient
        self.client = make(self.db)

    def timed(self) -> None:
        schema, calibrator = self.schema, self.calibrator
        self._connect()
        gc.collect()
        calibrator.sample("timed")
        for name, arg in self.ops:
            calibrator.tick("timed")
            if name in self.passes:
                self.passes[name].append(
                    _total([self._statement(stmt, "timed")
                            for stmt in getattr(schema, name)()])
                )
            elif name == "mover":
                self.movers.append(self._mover("timed"))
                self.disk_bytes_per_row = (
                    _directory_bytes(self.path) / schema.live_rows()
                )
            elif name == "copy":
                self._statement(schema.copy(arg), "timed")
            else:
                self._statement(getattr(schema, name)(), "timed")
        calibrator.sample("timed")
        for stmt in schema.verify():
            self._statement(stmt, "timed")

    def cold(self) -> tuple[list[tuple], list[tuple]]:
        """(sample of each ``Database.open``, sample of each first round
        after it)."""
        schema = self.schema
        opens, rounds = [], []
        for _ in range(COLD_OPENS):
            self._drop_database()
            self._calibrate("cold")
            sample, self.db, error = self._measure(
                "cold", "open", lambda: Database.open(self.path)
            )
            if error is not None:
                raise error
            opens.append(sample)
            self._calibrate("cold")
            self._connect()
            cold_round = schema.scan_pass() + schema.join_pass()
            cold_round += [schema.lookup() for _ in range(4)] + [schema.rollup()]
            rounds.append(_total([self._statement(s, "cold") for s in cold_round]))
            self._calibrate("cold")
            # the durability check: every acknowledged row, and nothing
            # else, is there after the restart
            for stmt in schema.verify():
                self._statement(stmt, "cold")
        return opens, rounds

    # -- the whole run ---------------------------------------------------

    def execute(self) -> dict:
        check_environment()
        os.makedirs(OUT_DIR, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.calibrator = Calibrator()
        try:
            with DeviceCounter() as device, self.tracing or nullcontext():
                self.device = device
                marks = [perf_counter()]
                setups = self.setup(scratch)
                marks.append(perf_counter())
                calls_before, bytes_before = device.writes, device.bytes
                counters_before = METRICS.counters_snapshot()
                self.timed()
                marks.append(perf_counter())
                written = device.bytes - bytes_before
                opens, rounds = self.cold()
                marks.append(perf_counter())
                device_counts = (device.writes - calls_before,
                                 device.bytes - bytes_before)
                counters = {
                    name: value - counters_before.get(name, 0)
                    for name, value in METRICS.counters_snapshot().items()
                }
                self._drop_database()
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        values = self._end_to_end(setups, opens, rounds, written)
        layer_values = (
            self._per_layer(counters, device_counts)
            if self.tracing is not None else {}
        )
        result = self._result(values, layer_values)
        result["harness"]["raw"] = {
            "setup_s": setups, "restart_s": opens, "cold_round_s": rounds,
            "mover_s": self.movers, "passes": self.passes, "times": self.times,
            "calibration": self.calibrator.samples,
        }
        result["harness"]["phase_wall_s"] = dict(
            zip(("setup", "timed", "cold"),
                (later - earlier for earlier, later in zip(marks, marks[1:])))
        )
        return result

    # -- metrics ---------------------------------------------------------

    def _normal(self, samples) -> list[float]:
        """Normalised seconds of each sample."""
        return [self.calibrator.normalise(sample) for sample in samples]

    def _end_to_end(self, setups, opens, rounds, written) -> dict:
        times = {
            kind: self._normal(samples)
            for kind, samples in self.times["timed"].items()
        }
        passes = {
            name: self._normal(samples)
            for name, samples in self.passes.items()
        }
        statements = [seconds for samples in times.values() for seconds in samples]
        inserts = times["insert"]
        return {
            "setup_s": median(self._normal(setups)),
            "stmts_per_s": len(statements) / sum(statements),
            "ok_frac": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "scan_pass_p50_ms": median(passes["scan_pass"]) * 1000.0,
            "join_pass_p50_ms": median(passes["join_pass"]) * 1000.0,
            "cold_round_ms": median(self._normal(rounds)) * 1000.0,
            "lookup_p50_ms": median(times["lookup"]) * 1000.0,
            "rollup_p50_ms": median(times["rollup"]) * 1000.0,
            "commit_p50_ms": median(inserts) * 1000.0,
            "commit_mean_ms": mean(inserts) * 1000.0,
            "load_rows_per_s": self.copied_rows / sum(times["copy"]),
            "mover_s": sum(self._normal(self.movers)),
            "restart_s": median(self._normal(opens)),
            "write_amp": written / self.loaded_text_bytes,
            "disk_bytes_per_row": self.disk_bytes_per_row,
        }

    def _per_layer(self, counters: dict, device_counts: tuple[int, int]) -> dict:
        tracing, calibrator = self.tracing, self.calibrator
        folded = tracing.self_times(factor_at=calibrator.factor_at)
        spans = {name: compute + device for name, (compute, device, _) in folded.items()}
        self.budget = budget_table(
            spans, {name: calls for name, (_, _, calls) in folded.items()}
        )

        def self_ms(name: str) -> float:
            return spans.get(name, 0.0) * 1000.0

        def count(name: str) -> int:
            return counters.get(name, 0)

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        def pct(samples, q: float) -> float:
            if not samples:
                return 0.0
            ordered = sorted(self._normal(samples))
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000.0

        times = self.times["timed"]
        selects = sum(
            len(samples)
            for phase in self.times.values()
            for kind, samples in phase.items()
            if kind in ("lookup", "range", "rollup", "scan", "join")
        )
        client_seconds = sum(
            seconds for name, seconds in spans.items() if name.startswith("client.")
        )
        root_seconds = sum(spans.values())
        raw_root_seconds = sum(
            row[BUSY] for index, row in enumerate(tracing.rows)
            if tracing.roots.get(index, ("",))[0] in MEASURED
        )
        decode_calls = tracing.calls("storage.decode", nested=False)
        kernel = count("executor.kernel_blocks")
        setup_refresh = tracing.self_times({"setup"}, calibrator.factor_at).get(
            "optimizer.stats_refresh", (0.0, 0.0, 0)
        )
        cpu, mem = calibrator.medians("timed")
        mover_max = max(self._normal(self.movers), default=0.0)
        return {
            "sql.parse_ms": self_ms("sql.parse"),
            "sql.analyze_ms": self_ms("sql.analyze"),
            "sql.dispatch_ms": self_ms("sql.execute"),
            "sql.copy_ms": self_ms("sql.copy"),
            "optimizer.plan_ms": self_ms("optimizer.plan"),
            "optimizer.stats_refresh_ms": (setup_refresh[0] + setup_refresh[1])
            * 1000.0 / SETUP_REPEATS,
            "core.session_ms": self_ms("core.session"),
            "execution.run_ms": self_ms("execution.run"),
            "execution.kernel_block_frac": ratio(
                kernel, kernel + count("executor.row_fallback_blocks")
            ),
            "execution.exchange_rows": tracing.counts["exchange_rows"],
            "execution.network_bytes": tracing.counts["network_bytes"],
            "storage.scan_ms": self_ms("storage.scan"),
            "storage.decode_ms": self_ms("storage.decode"),
            "storage.blocks_decoded": count("storage.blocks_decoded"),
            "storage.bytes_decoded": count("storage.bytes_decoded"),
            "storage.block_cache_hit_frac": 1.0 - ratio(
                count("storage.blocks_decoded") + count("storage.blocks_vectorized"),
                decode_calls,
            ) if decode_calls else 0.0,
            "storage.containers_scanned_per_stmt": ratio(
                count("storage.containers_scanned"), selects
            ),
            "storage.containers_pruned_frac": ratio(
                count("storage.containers_pruned"),
                count("storage.containers_pruned") + count("storage.containers_scanned"),
            ),
            "storage.blocks_pruned": count("storage.blocks_pruned"),
            "storage.wos_rows_scanned_per_stmt": ratio(
                count("storage.wos_rows_scanned"), selects
            ),
            "storage.insert_ms": self_ms("storage.insert"),
            "storage.container_build_ms": self_ms("storage.container_build"),
            "storage.containers_written": count("storage.containers_written"),
            "storage.container_rows_written": count("storage.container_rows_written"),
            "storage.delete_where_ms": self_ms("storage.delete_where"),
            "storage.scavenge_ms": self_ms("storage.scavenge"),
            "storage.truncate_ms": self_ms("storage.truncate"),
            "projections.route_ms": self_ms("projections.route"),
            "cluster.commit_ms": self_ms("cluster.commit"),
            "tuple_mover.moveout_ms": self_ms("tuple_mover.moveout"),
            "tuple_mover.mergeout_ms": self_ms("tuple_mover.mergeout"),
            "tuple_mover.rows_rewritten_per_row": ratio(
                tracing.counts["mover_rows_written"], self.loaded_rows
            ),
            "tuple_mover.max_stall_ms": mover_max * 1000.0,
            "txn.lock_acquire_ms": self_ms("txn.lock_acquire"),
            "txn.lock_waits": count("locks.waits"),
            "durability.append_ms": self_ms("durability.append"),
            "durability.appends": count("journal.appends"),
            "durability.bytes_per_append": ratio(
                count("journal.bytes_written"), count("journal.appends")
            ),
            "durability.journal_bytes": count("journal.bytes_written"),
            "durability.checkpoint_ms": self_ms("durability.checkpoint"),
            "durability.checkpoints": count("journal.checkpoints"),
            "durability.replay_ms": self_ms("durability.replay"),
            "durability.replay_commits": count("journal.replay.commits"),
            "durability.replay_rows": count("journal.replay.rows"),
            "dc.record_ms": self_ms("dc.record"),
            "dc.flush_ms": self_ms("dc.flush"),
            "dc.records": count("dc.records"),
            "dc.bytes_written": count("dc.bytes_written"),
            "monitor.profile_ms": self_ms("monitor.profile"),
            "service.overhead_ms": self_ms("service.execute"),
            "service.admit_ms": self_ms("service.admit"),
            "service.admission_queued": count("service.admission_queued"),
            "fsio.writes": device_counts[0],
            "fsio.bytes_written": device_counts[1],
            "fsio.publishes": tracing.calls("fsio.publish"),
            "fsio.fsyncs": tracing.counts["fsio.fsyncs"],
            "client.commit_p99_ms": pct(times.get("insert"), 0.99),
            "client.lookup_p99_ms": pct(times.get("lookup"), 0.99),
            "client.scan_pass_p90_ms": pct(self.passes["scan_pass"], 0.90),
            "client.join_pass_p90_ms": pct(self.passes["join_pass"], 0.90),
            "client.delete_p50_ms": pct(times.get("delete"), 0.50),
            "client.copy_small_p50_ms": pct(times.get("copy"), 0.50),
            "harness.calib_cpu_ms": cpu,
            "harness.calib_mem_ms": mem,
            "harness.speed_factor": math.sqrt(REF_CPU_MS * REF_MEM_MS / (cpu * mem)),
            "harness.trace_overhead_frac": ratio(
                span_cost() * len(tracing.rows), raw_root_seconds
            ),
            "harness.unattributed_frac": ratio(client_seconds, root_seconds),
        }

    def _result(self, values, layer_values) -> dict:
        spec = load_spec()
        section = "per_layer" if self.tracing is not None else "end_to_end"
        source = layer_values if self.tracing is not None else values
        metrics = {
            entry["name"]: {"value": source[entry["name"]], "unit": entry["unit"]}
            for entry in spec[section]
        }
        if set(source) != set(metrics):
            raise KeyError(
                f"BENCHMARK.json {section} and the run disagree on "
                f"{sorted(set(source) ^ set(metrics))}"
            )
        calibrator = self.calibrator
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(self.tracing is not None),
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "failures": self.failures,
            "end_to_end_values": values,
            "harness": {
                "calibration_cpu_mem_p50_ms": {
                    phase: calibrator.medians(phase)
                    for phase in ("setup", "timed", "cold")
                },
                "reference": {
                    "cpu_ms": REF_CPU_MS, "mem_ms": REF_MEM_MS,
                    "device_write_s": DEVICE_WRITE_S,
                    "device_byte_s": DEVICE_BYTE_S,
                    "device_publish_s": DEVICE_PUBLISH_S,
                },
            },
            "stamp": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "git_sha": _git_sha(),
                "seconds": self.seconds,
                "quick": self.quick,
                "operations": len(self.ops),
                "sizes": self.schema.sizes(),
                "input_digest": self.schema.input_digest(),
            },
        }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    """Run one workload and write its result under ``perflab/out/``."""
    run = Run(workload, seed, seconds, trace, quick)
    result = run.execute()
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    if trace:
        result["budget"] = run.budget
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"columns": ["name", "start", "busy_s", "parent", "root", "model_s"],
                 "roots": {str(k): v for k, v in run.tracing.roots.items()},
                 "spans": run.tracing.rows},
                handle,
            )
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return result
