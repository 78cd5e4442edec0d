"""Concurrency-safety analyses: one static, two at run time.

Static (lint rule R10 in :mod:`repro.lint.rules.concurrency`):

* :class:`SharedStateAudit` — Eraser-style guarded-by discipline for
  module globals and singleton attributes, driven by
  ``# concurrency: guarded-by(<lock>) | immutable | thread-local``
  annotations.

Runtime (active under ``REPRO_SANITIZE=1``):

* :class:`TrackedLock` / :func:`held_locks` / :data:`LOCK_RANKS` —
  named, ranked mutexes; acquiring against the rank order raises.
* :data:`RACES` — the process-wide lockset race detector; shared
  objects register with :meth:`RaceDetector.track` and report writes
  with :meth:`RaceDetector.note_write`.
"""

from .runtime import (
    LOCK_RANKS,
    RACES,
    RaceDetector,
    RaceReport,
    TrackedLock,
    held_locks,
)
from .shared_state import ANNOTATION_RE, Annotation, SharedStateAudit

__all__ = [
    "ANNOTATION_RE",
    "Annotation",
    "LOCK_RANKS",
    "RACES",
    "RaceDetector",
    "RaceReport",
    "SharedStateAudit",
    "TrackedLock",
    "held_locks",
]
