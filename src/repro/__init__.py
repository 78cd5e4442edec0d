"""repro — a Python reproduction of the Vertica Analytic Database.

Implements the system described in Lamb et al., *The Vertica Analytic
Database: C-Store 7 Years Later* (PVLDB 5(12), 2012): columnar storage
with the paper's six encodings, projections with ring segmentation and
buddies, ROS/WOS with a stratified tuple mover, epoch-based MVCC with
the paper's seven-mode lock model, a simulated K-safe cluster with
incremental recovery, a vectorized pull-model execution engine, the
V2Opt-style cost-based planner, a Database Designer, and a SQL front end —
plus a C-Store-2005-style baseline engine for the paper's Table 3
comparison.

Quickstart::

    from repro import Database, ColumnDef, TableDefinition, types

    db = Database("/tmp/mydb", node_count=3, k_safety=1)
    db.create_table(TableDefinition("t", [ColumnDef("x", types.INTEGER)]))
    db.load("t", [{"x": i} for i in range(1000)])
    print(db.sql("SELECT count(*) AS n FROM t"))
"""

from . import types
from .core import Catalog, ColumnDef, Database, Session, TableDefinition
from .errors import ReproError
from .txn import IsolationLevel

__version__ = "1.0.0"

__all__ = [
    "types",
    "Catalog",
    "ColumnDef",
    "Database",
    "Session",
    "TableDefinition",
    "ReproError",
    "IsolationLevel",
    "__version__",
]
