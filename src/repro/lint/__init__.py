"""replint: project-specific static analysis + runtime invariant sanitizer.

Static side (``python -m repro.lint src/repro tests``): AST-based
checkers for the contracts only source text can show — no
storage/catalog mutation from the query path (R4), general hygiene
(R5), public-API docstring/annotation coverage (R6), atomic file
writes (R7), no wall-clock reads on simulated time (R8), guarded-by
discipline for shared state (R10), governed service statements (R11)
and no print/logging on the query path (R13).  See
:mod:`repro.lint.rules`.  What a class definition or a lock acquire
can check for itself (operator and encoding protocols, lock order) is
checked there, not here.

Runtime side (:mod:`repro.lint.sanitizer`): cheap invariant assertions
over ROS container construction, WOS→ROS moveout, delete vectors,
epoch advancement and lock rank order, enabled with ``REPRO_SANITIZE=1`` (the test suite's
``conftest.py`` turns it on for the whole run).

This ``__init__`` deliberately avoids importing the rule modules so
that production code can import the sanitizer without paying for (or
depending on) the analysis machinery.
"""

from .core import (
    CHECKERS,
    Checker,
    Finding,
    Module,
    Project,
    register_checker,
    run_lint,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "Module",
    "Project",
    "register_checker",
    "run_lint",
]
