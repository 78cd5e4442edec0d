"""``python -m perflab <command>``.

    run        one workload or ``--workload all`` (see ``perflab/run.py``)
    set        several runs of every workload into one file, for compare
    compare    judge a new set against an old one (see ``perflab/compare.py``)
    selfcheck  two sets of the same tree through compare: the benchmark
               must agree with itself within its own bounds
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from . import compare, run

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _one_run(workload: str, seed: int, trace: int, quick: bool) -> dict:
    """One workload run in its own process; returns its result file."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)] + ["--quick"] * quick
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"perflab: {workload} seed {seed} failed")
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    del result["harness"]["raw"]  # every sample: too bulky for a set
    return result


def make_set(runs: int, seed: int, quick: bool, workloads: list[str]) -> dict:
    """``runs`` untraced runs of each workload on seeds ``seed``,
    ``seed + 1``, ... — workloads interleaved so a drift of the machine
    falls on all of them — then one traced run each for the counts."""
    results = []
    for offset in range(runs):
        for workload in workloads:
            results.append(_one_run(workload, seed + offset, 0, quick))
            print(f"  {workload} seed {seed + offset} done", file=sys.stderr)
    for workload in workloads:
        results.append(_one_run(workload, seed, 1, quick))
    return {"runs": results}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "run":
        return run.main(rest)
    if command == "compare":
        return compare.main(rest)
    if command not in ("set", "selfcheck"):
        print(f"perflab: unknown command {command!r}\n{__doc__}", file=sys.stderr)
        return 2

    run._import_driver()  # puts the product on sys.path
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog=f"perflab {command}")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    if command == "set":
        parser.add_argument("--out", required=True)
    args = parser.parse_args(rest)
    workloads = args.workload or list(WORKLOADS)
    if command == "set":
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(make_set(args.runs, args.seed, args.quick, workloads), handle,
                      indent=1, sort_keys=True)
        return 0
    first = make_set(args.runs, args.seed, args.quick, workloads)
    second = make_set(args.runs, args.seed, args.quick, workloads)
    regressions = compare.compare(first, second)
    again = compare.exact_counts(second)
    differing = [
        key for key, counts in compare.exact_counts(first).items()
        if again[key] != counts
    ]
    for key in differing:
        print(f"== {key[0]} seed {key[1]}: exact counts differ between the sets")
    print(f"{regressions} regression(s), {len(differing)} inexact count(s)")
    return 1 if regressions or differing else 0


if __name__ == "__main__":
    sys.exit(main())
