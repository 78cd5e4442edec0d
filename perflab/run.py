"""The benchmark's command.

    python3 perflab/run.py --workload <name> --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric (and the time budget table above
it).  ``python -m perflab run`` is the same command with ``--workload
all`` and ``--quick`` for people.

Exit status is 0 only when every operation succeeded and every result
was right.  Run from a checkout of the repository: the product is
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def _import_driver():
    """The driver, with the product under ``src/`` importable."""
    source = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(
            f"perflab: no product to measure: {source}/repro is missing"
        )
    for path in (source, REPO):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perflab import driver

    return driver


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perflab run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="olap_report | dashboard | bulk_load | trickle_mixed | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    args = parser.parse_args(argv)

    driver = _import_driver()
    from perflab.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(WORKLOADS)}, all")
    seconds = args.seconds
    if seconds is None:
        seconds = driver.load_spec()["run_seconds"]
    try:
        driver.check_environment()
    except driver.ForbiddenEnvironment as exc:
        raise SystemExit(f"perflab: {exc}")

    if args.workload == "all":
        # one process per workload: peak_rss_mb is the process's own
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)] + ["--quick"] * args.quick
            status |= subprocess.run(command, check=False).returncode
        return status

    result = driver.run_workload(args.workload, args.seed, seconds, bool(args.trace),
                                 quick=args.quick)
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if "budget" in result:
        print(result["budget"])
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<40}{entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
