"""Compare two result sets.

    python perflab/compare.py old.json new.json

A *set* is what ``python -m perflab set`` writes: several runs of each
workload, ``{"runs": [<result>, ...]}``.  For every workload and every
end-to-end metric the new median is judged against the old one with the
metric's bound from ``BENCHMARK.json``:

``ok``          not worse by more than the bound
``REGRESSION``  worse by more than the bound
``unresolved``  a set's own spread (quartile distance over median)
                exceeds the bound, so the comparison decides nothing —
                unless every new run beats every old run (``better``)
                or every old run beats every new one (``REGRESSION``)

Exit status is 1 when any row is a ``REGRESSION``, else 0.  An
improvement is never *claimed* here: that takes paired runs (see
README, "Claiming a gain").
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds() -> dict[str, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}


def by_workload(result_set: dict) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the value of each untraced run."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in result_set["runs"]:
        if run["trace"]:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (the
    range, for fewer than four runs)."""
    middle = median(values)
    if not middle or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    first, _, third = quantiles(values, n=4)
    return (third - first) / abs(middle)


def judge(old: list[float], new: list[float], better: str, bound: float) -> tuple:
    """(verdict, worsening as a share of the old median, old spread,
    new spread)."""
    sign = 1.0 if better == "lower" else -1.0
    old_median, new_median = median(old), median(new)
    worse = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
    spreads = spread(old), spread(new)
    if max(spreads) > bound:
        if max(sign * v for v in new) < min(sign * v for v in old):
            verdict = "better"
        elif min(sign * v for v in new) > max(sign * v for v in old) and worse > bound:
            verdict = "REGRESSION"
        else:
            verdict = "unresolved"
    else:
        verdict = "REGRESSION" if worse > bound else "ok"
    return verdict, worse, spreads[0], spreads[1]


def compare(old_set: dict, new_set: dict, out=sys.stdout) -> int:
    """Print the comparison; return the number of regressions."""
    bounds = load_bounds()
    old_runs, new_runs = by_workload(old_set), by_workload(new_set)
    regressions = 0
    for workload in old_runs:
        if workload not in new_runs:
            print(f"== {workload}: missing from the new set", file=out)
            regressions += 1
            continue
        print(f"== {workload}  ({len(next(iter(old_runs[workload].values())))} old, "
              f"{len(next(iter(new_runs[workload].values())))} new runs)", file=out)
        print(f"   {'metric':<20}{'old':>12}{'new':>12}{'worse by':>10}"
              f"{'bound':>8}{'spread old/new':>17}  verdict", file=out)
        for name, entry in bounds.items():
            old, new = old_runs[workload][name], new_runs[workload][name]
            verdict, worse, old_spread, new_spread = judge(
                old, new, entry["better"], entry["bound"]
            )
            regressions += verdict == "REGRESSION"
            print(f"   {name:<20}{median(old):>12.5g}{median(new):>12.5g}"
                  f"{worse:>+10.1%}{entry['bound']:>8.1%}"
                  f"{old_spread:>9.1%}/{new_spread:<7.1%}  {verdict}", file=out)
    return regressions


def exact_counts(result_set: dict) -> dict[tuple, dict]:
    """(workload, seed) -> the program counts that must repeat exactly,
    from the set's traced runs."""
    names = ("durability.journal_bytes", "durability.appends",
             "storage.containers_written")
    return {
        (run["workload"], run["seed"]): {
            name: run["metrics"][name]["value"] for name in names
        }
        for run in result_set["runs"]
        if run["trace"]
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0] + "\n\n    python perflab/compare.py "
              "old.json new.json", file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    regressions = compare(*sets)
    old_counts, new_counts = exact_counts(sets[0]), exact_counts(sets[1])
    for key in sorted(set(old_counts) & set(new_counts)):
        if old_counts[key] != new_counts[key]:
            print(f"== {key[0]} seed {key[1]}: exact counts differ: "
                  f"{old_counts[key]} -> {new_counts[key]}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
