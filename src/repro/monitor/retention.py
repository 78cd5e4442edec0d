"""The shared retention policy for bounded operational history.

The Data Collector's per-component rings (:mod:`repro.dc.collector`)
— the only store of operational history — bound themselves with two
knobs so "how much history do we keep?" has exactly one answer shape:

* ``max_records`` — hard cap on retained records; the oldest are
  evicted first (FIFO), exactly like Vertica's Data Collector ring
  buffers;
* ``max_age_ticks`` — optional age bound in *simulated-clock* ticks
  (:class:`repro.cluster.clock.SimulatedClock`); records stamped more
  than this many ticks in the past are evicted whenever the store is
  touched or the clock advances.  ``None`` disables age-based
  eviction.

This module is deliberately dependency-free: it sits below everything
else in the monitor/dc stack so any layer can import it without
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetentionPolicy:
    """How much operational history a bounded store retains."""

    #: Hard cap on retained records (oldest evicted first).
    max_records: int = 1024
    #: Optional age bound in simulated-clock ticks; ``None`` = no
    #: age-based eviction.
    max_age_ticks: int | None = None

    def expired(self, record_tick: int, now: int) -> bool:
        """Whether a record stamped at ``record_tick`` has aged out at
        simulated time ``now``."""
        if self.max_age_ticks is None:
            return False
        return now - record_tick > self.max_age_ticks


#: Default policy of the Data Collector rings.
DEFAULT_RETENTION = RetentionPolicy(max_records=1024, max_age_ticks=None)
