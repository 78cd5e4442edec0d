"""Data Collector: durable operational history and health alerting.

The package behind Vertica's "the database is its own diagnostic tool"
story (Lamb et al., VLDB 2012 §3.6): every operationally interesting
event flows through one :class:`DataCollector` into retention-bounded,
CRC-framed, crash-recoverable per-component rings, which the
``v_monitor`` history tables (``dc_*``, ``query_profiles``), the :class:`HealthMonitor`
alert engine (``v_monitor.alerts``) and the ``python -m repro.console``
dashboard all read back.
"""

from ..monitor.retention import DEFAULT_RETENTION, RetentionPolicy
from .collector import COMPONENTS, DataCollector, DCRecord
from .health import AlertRule, HealthConfig, HealthMonitor

__all__ = [
    "COMPONENTS",
    "DataCollector",
    "DCRecord",
    "RetentionPolicy",
    "DEFAULT_RETENTION",
    "AlertRule",
    "HealthConfig",
    "HealthMonitor",
]
