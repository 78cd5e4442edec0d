"""CLI entry point: ``python -m repro.lint [paths...]``.

Exit status is 0 when no findings survive suppression, 1 otherwise —
suitable for CI gates (``tools/check.sh``) and the self-clean test.
The summary line breaks the total down per rule so CI logs show which
rule regressed; ``--json`` emits a machine-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import CHECKERS, run_lint


def _summarize(findings) -> dict[str, int]:
    """Finding count per rule id, in rule-id order."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return dict(
        sorted(counts.items(), key=lambda item: (len(item[0]), item[0]))
    )


def main(argv: list[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="replint: project-specific static analysis for the "
        "Vertica reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (e.g. R4,R10); default all",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as a JSON report on stdout",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        from . import rules as _rules  # noqa: F401  (registers checkers)

        for checker in CHECKERS:
            print(f"{checker.rule}  {checker.title}")
        return 0

    rules = args.rules.split(",") if args.rules else None
    try:
        findings = run_lint(args.paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"replint: error: {exc}", file=sys.stderr)
        return 2
    counts = _summarize(findings)
    if args.as_json:
        print(
            json.dumps(
                {
                    "findings": [
                        {
                            "rule": finding.rule,
                            "path": finding.path,
                            "line": finding.line,
                            "message": finding.message,
                        }
                        for finding in findings
                    ],
                    "counts": counts,
                    "total": len(findings),
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        per_rule = ", ".join(f"{rule}={n}" for rule, n in counts.items())
        print(
            f"replint: {len(findings)} finding(s) ({per_rule})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
