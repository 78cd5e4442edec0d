"""The benchmark's contract with itself, at ``--quick`` sizes."""

from __future__ import annotations

import io
import json
import math
import os
import sys

import pytest

from perflab import compare, driver, layers
from perflab.data import MeterSchema, Stmt
from perflab.workloads import WORKLOADS

SPEC = driver.load_spec()
EXACT = ("durability.journal_bytes", "durability.appends",
         "storage.containers_written")


def quick(workload: str, seed: int, trace: bool) -> dict:
    return driver.run_workload(workload, seed, 15, trace, quick=True)


@pytest.fixture(scope="module")
def traced():
    """One traced quick run of every workload, seed 3."""
    return {name: quick(name, 3, True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def untraced():
    return {name: quick(name, 3, False) for name in WORKLOADS}


def test_benchmark_json_names_the_workloads():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perflab"]
    assert "setup_s" in {entry["name"] for entry in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_exactly_the_declared_metrics(
    workload, traced, untraced
):
    for result, section in ((untraced[workload], "end_to_end"),
                            (traced[workload], "per_layer")):
        assert result["correct"] and result["failed"] == 0, result["failures"]
        declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        assert {n: e["unit"] for n, e in result["metrics"].items()} == declared
        assert all(
            isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
            for entry in result["metrics"].values()
        )
    # an end-to-end metric that reads 0 cannot be bounded by a share of itself
    assert all(entry["value"] > 0 for entry in untraced[workload]["metrics"].values())


@pytest.mark.parametrize("workload", ["olap_report", "trickle_mixed"])
def test_same_seed_same_inputs_and_exact_counts(workload, traced):
    again = quick(workload, 3, True)
    first = traced[workload]
    assert again["stamp"]["input_digest"] == first["stamp"]["input_digest"]
    assert again["attempted"] == first["attempted"]
    for name in EXACT:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["olap_report", "trickle_mixed"])
def test_another_seed_changes_keys_not_sizes(workload, untraced):
    other = quick(workload, 4, False)
    first = untraced[workload]
    assert other["correct"]
    assert other["stamp"]["input_digest"] != first["stamp"]["input_digest"]
    assert other["stamp"]["sizes"] == first["stamp"]["sizes"]
    assert other["attempted"] == first["attempted"]


def test_tracing_puts_every_original_back():
    tracing = layers.Tracing()
    with tracing:
        replaced = tracing.replaced()
        assert len(replaced) >= len(layers.TARGETS)
        assert all(
            holder.__dict__[attr] is not original
            for holder, attr, original in replaced
        )
    assert all(
        holder.__dict__[attr] is original for holder, attr, original in replaced
    )
    assert tracing.replaced() == []
    assert os.fsync is tracing._fsync
    leftovers = [
        (module_name, attr)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") and module is not None
        for attr, value in vars(module).items()
        if getattr(value, "__name__", "") == "traced"
    ]
    assert leftovers == []


def test_self_times_account_for_the_statement_time(traced):
    """Compute self time is busy time minus the children's busy time,
    so over the measured phases the compute self times of all spans —
    the clients' own being the unattributed part — plus the time inside
    the device spans add up to the time of the roots."""
    with open(os.path.join(driver.OUT_DIR, "dashboard-seed3-trace1.spans.json"),
              encoding="utf-8") as handle:
        dump = json.load(handle)
    tracing = layers.Tracing()
    tracing.rows = dump["spans"]
    tracing.roots = {int(k): tuple(v) for k, v in dump["roots"].items()}

    def measured(row) -> bool:
        return tracing.roots.get(row[layers.ROOT], ("",))[0] in layers.MEASURED

    roots = sum(
        row[layers.BUSY] for index, row in enumerate(tracing.rows)
        if index in tracing.roots and measured(row)
    )
    compute = sum(slot[0] for slot in tracing.self_times().values())
    device = sum(
        row[layers.BUSY] for row in tracing.rows
        if row[layers.NAME] in layers.DEVICE_SPANS and measured(row)
    )
    assert roots > 0
    assert compute + device == pytest.approx(roots)
    reported = traced["dashboard"]["metrics"]["harness.unattributed_frac"]["value"]
    assert 0 < reported <= 0.15


def test_a_wrong_answer_fails_the_run(monkeypatch):
    def lookup(self) -> Stmt:
        return Stmt("lookup", "SELECT ts FROM meter_readings WHERE meter = 1",
                    lambda rows: False)

    monkeypatch.setattr(MeterSchema, "lookup", lookup)
    result = quick("dashboard", 5, False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "wrong answer" in result["failures"][0]


@pytest.mark.parametrize(
    "name", ["REPRO_SANITIZE", "REPRO_TRACE", "REPRO_FORCE_ROW_ENGINE",
             "REPRO_DC_DISABLE"],
)
def test_refuses_a_distorting_environment(monkeypatch, name):
    monkeypatch.setenv(name, "1")
    with pytest.raises(driver.ForbiddenEnvironment):
        quick("dashboard", 1, False)
    monkeypatch.setenv(name, "0")
    driver.check_environment()


def _set(values: dict[str, list[float]], workload: str = "dashboard") -> dict:
    """A result set in which every metric reads 100 but for ``values``."""
    count = max((len(v) for v in values.values()), default=5)
    runs = []
    for index in range(count):
        metrics = {
            entry["name"]: {"value": values.get(entry["name"], [100.0] * count)[index],
                            "unit": entry["unit"]}
            for entry in SPEC["end_to_end"]
        }
        runs.append({"workload": workload, "seed": index, "trace": 0,
                     "metrics": metrics})
    return {"runs": runs}


def test_compare_verdicts():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    out = io.StringIO()
    assert compare.compare(_set({}), _set({"lookup_p50_ms": steady}), out) == 0
    slower = [value * 1.5 for value in steady]
    assert compare.compare(_set({"lookup_p50_ms": steady}),
                           _set({"lookup_p50_ms": slower}), out) == 1
    # a higher-is-better metric regresses downwards
    assert compare.compare(_set({"stmts_per_s": steady}),
                           _set({"stmts_per_s": [v * 0.6 for v in steady]}), out) == 1
    assert compare.compare(_set({"stmts_per_s": steady}),
                           _set({"stmts_per_s": slower}), out) == 0
    noisy = [80.0, 120.0, 95.0, 130.0, 70.0]
    assert compare.judge(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.judge(noisy, [10.0, 11.0, 12.0, 10.5, 11.5], "lower", 0.1)[0] == "better"
    assert compare.judge(noisy, [v * 3 for v in noisy], "lower", 0.1)[0] == "REGRESSION"
