"""R10: shared mutable state follows its guarded-by annotations.

Audits module globals and singleton attributes for Eraser-style
guarded-by discipline against ``# concurrency:`` annotations.  The
analysis lives in :mod:`repro.lint.concur.shared_state`; this module
only adapts its reports into :class:`Finding` s.  (Lock *order* is not
a lint rule: ranked :class:`~repro.lint.concur.runtime.TrackedLock` s
check it at every acquire under the sanitizer.)
"""

from __future__ import annotations

from typing import Iterator

from ..concur.shared_state import SharedStateAudit
from ..core import Checker, Finding, Project, register_checker


@register_checker
class SharedStateChecker(Checker):
    """R10: shared mutable state follows its guarded-by annotations."""

    rule = "R10"
    title = (
        "module globals and singleton attributes honor their "
        "'# concurrency:' guarded-by/immutable annotations"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for report in SharedStateAudit(project).run():
            yield self.finding(report.module, report.line, report.message)
