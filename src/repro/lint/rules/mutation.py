"""R4: no storage/catalog mutation from the query path.

Sections 4 and 5 of the paper make storage mutation the exclusive
business of transactions (commit applies buffered DML) and the tuple
mover (moveout/mergeout).  The query path — the execution engine, the
optimizer, and SQL analysis — must only ever *read*.

This rule flags calls to known mutating ``StorageManager`` / ``Catalog``
methods from modules under ``execution/``, ``optimizer/`` or ``sql/``
when the receiver looks like a storage manager or catalog (its name is
``manager``, ``storage``, ``storage_manager`` or ``catalog``, possibly
behind attribute access like ``self.node.storage``).  Mutations belong
in ``core/``, ``cluster/``, ``storage/`` or ``tuple_mover/``, behind a
transaction commit or a tuple-mover operation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Checker, Finding, Project, attribute_chain, register_checker

#: Module path fragments that constitute the read-only query path.
QUERY_PATH_FRAGMENTS = ("repro/execution/", "repro/optimizer/", "repro/sql/")

#: Mutating methods of StorageManager / Catalog / Cluster storage.
MUTATOR_METHODS = frozenset(
    {
        "insert",
        "delete_where",
        "persist_delete_vectors",
        "remove_containers",
        "add_container_from_rows",
        "write_run",
        "truncate_after_epoch",
        "load_history",
        "forget_contents",
        "drop_partition",
        "register_projection",
        "drop_projection",
        "create_table",
        "drop_table",
        "add_table",
        "add_family",
        "add_projection_family",
        "commit_dml",
        "apply_commit",
    }
)

#: Receiver identifiers that denote storage/catalog objects.
RECEIVER_HINTS = frozenset({"manager", "storage", "storage_manager", "catalog"})


def _receiver_hint(node: ast.Call) -> str | None:
    """The storage-ish identifier a mutating call is made on, if any.

    ``self.manager.insert(...)`` -> "manager";
    ``node.storage.remove_containers(...)`` -> "storage";
    ``rows.insert(0, x)`` -> None (receiver "rows" is not storage-ish).
    """
    if not isinstance(node.func, ast.Attribute):
        return None
    chain = attribute_chain(node.func)
    if len(chain) < 2:
        return None
    receiver_parts = chain[:-1]
    terminal = receiver_parts[-1]
    if terminal in RECEIVER_HINTS:
        return terminal
    return None


@register_checker
class QueryPathMutationChecker(Checker):
    """R4: query-path modules never mutate storage or catalog state."""

    rule = "R4"
    title = (
        "no StorageManager/Catalog mutation from execution/, optimizer/ "
        "or sql/ modules"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.is_test_code():
                continue
            norm = module.norm_path
            if not any(fragment in norm for fragment in QUERY_PATH_FRAGMENTS):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in MUTATOR_METHODS:
                    continue
                hint = _receiver_hint(node)
                if hint is None:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    f"query-path module calls mutating {hint}."
                    f"{node.func.attr}(); storage/catalog mutation must go "
                    "through a transaction commit or the tuple mover",
                )
