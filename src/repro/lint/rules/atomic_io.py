"""R7: all durable writes go through the atomic-commit helper.

Crash consistency hinges on every on-disk artifact — ROS containers,
delete vectors, journal and Data Collector segments, checkpoints —
being produced by the stage-checksum-rename protocol in
:mod:`repro.storage.fsio`.  A raw ``open(path, "w")`` anywhere under
``storage/``, ``tuple_mover/``, ``durability/`` or ``dc/`` bypasses the
staging path, the CRC and the atomic publish rename — a crash
mid-write then leaves a half-written file that *looks* committed,
exactly the torn state cold start must never trust.  This rule forbids
write-mode ``open()`` calls in those packages; the single sanctioned
raw-write site lives in ``fsio.py`` behind a reviewed suppression.  It
is also the static guarantee that every durable byte passes the
``fsio`` functions the benchmark's device counter wraps.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, Project, call_name, register_checker

#: Package path fragments where raw write-mode ``open()`` is forbidden.
_PROTECTED = (
    "repro/storage/",
    "repro/tuple_mover/",
    "repro/durability/",
    "repro/dc/",
)

#: Mode characters that make an ``open()`` a write.
_WRITE_CHARS = frozenset("wax+")


def _write_mode(node: ast.Call) -> str | None:
    """The mode string if this ``open()`` call writes, else None."""
    mode_arg: ast.expr | None = None
    if len(node.args) >= 2:
        mode_arg = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    if mode_arg is None:
        return None  # default "r" is read-only
    if not (
        isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str)
    ):
        # dynamic mode expression: treat as a write, the reviewer must
        # suppress explicitly if it really is read-only.
        return "<dynamic>"
    mode = mode_arg.value
    if _WRITE_CHARS & set(mode):
        return mode
    return None


@register_checker
class AtomicIOChecker(Checker):
    """R7: no raw write-mode open() in the packages that write durably."""

    rule = "R7"
    title = (
        "storage, tuple-mover, durability and Data Collector code must "
        "write files through repro.storage.fsio (stage + checksum + "
        "atomic rename), never raw open(..., 'w')"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.is_test_code():
                continue
            if not any(part in module.norm_path for part in _PROTECTED):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                if call_name(node) != "open":
                    continue
                mode = _write_mode(node)
                if mode is None:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    f"raw open(..., {mode!r}) bypasses the atomic commit "
                    "protocol; write through repro.storage.fsio",
                )
