"""Monitoring views (section 7, "Resource Management": "reporting on
the current resource allocation with many concurrent users is critical
to real world deployments").

Vertica exposes this through virtual system tables; here the same
information is available as row-dict views over the live cluster:

* ``projections`` — one row per (node, projection copy): rows stored,
  encoded bytes, ROS container count, WOS backlog.
* ``storage_containers`` — one row per ROS container.
* ``nodes`` — membership, WOS totals, LGE summary per node.
* ``locks`` — currently granted table locks.
* ``epochs`` — the epoch clock (current / latest queryable / AHM).
"""

from __future__ import annotations

from ..errors import UnknownObjectError
from ..monitor.tables import projection_storage_rows


def projections_view(db) -> list[dict]:
    """Per-(node, projection) storage accounting: the
    ``v_monitor.projection_storage`` rows under this view's keys, plus
    membership."""
    up = {
        node.name: db.cluster.membership.is_up(node.index)
        for node in db.cluster.nodes
    }
    return [
        {
            "node": row["node_name"],
            "projection": row["projection_name"],
            "anchor_table": row["anchor_table"],
            "ros_rows": row["ros_rows"],
            "wos_rows": row["wos_rows"],
            "ros_containers": row["ros_containers"],
            "data_bytes": row["ros_bytes"],
            "delete_markers": row["delete_markers"],
            "up": up[row["node_name"]],
        }
        for row in projection_storage_rows(db)
    ]


def storage_containers_view(db) -> list[dict]:
    """Per-ROS-container inventory (Figure 2's content, live)."""
    rows = []
    for node in db.cluster.nodes:
        for name in node.manager.projection_names():
            state = node.manager.storage(name)
            for container_id in sorted(state.containers):
                container = state.containers[container_id]
                rows.append(
                    {
                        "node": node.name,
                        "projection": name,
                        "container_id": container_id,
                        "rows": container.row_count,
                        "partition_key": container.meta.partition_key,
                        "local_segment": container.meta.local_segment,
                        "min_epoch": container.meta.min_epoch,
                        "max_epoch": container.meta.max_epoch,
                        "bytes": container.size_bytes(),
                    }
                )
    return rows


def nodes_view(db) -> list[dict]:
    """Membership and per-node storage summary."""
    rows = []
    for node in db.cluster.nodes:
        wos_total = sum(
            node.manager.wos_row_count(name)
            for name in node.manager.projection_names()
        )
        lges = [
            db.cluster.epochs.lge(node.index, name)
            for name in node.manager.projection_names()
        ]
        rows.append(
            {
                "node": node.name,
                "up": db.cluster.membership.is_up(node.index),
                "projections": len(node.manager.projection_names()),
                "wos_rows": wos_total,
                "min_lge": min(lges, default=0),
                "data_bytes": node.manager.total_data_bytes(),
            }
        )
    return rows


def locks_view(db) -> list[dict]:
    """Currently granted table locks."""
    return [
        {"object": obj, "txn": txn_id, "mode": mode}
        for obj, txn_id, mode in db.cluster.locks.granted()
    ]


def epochs_view(db) -> list[dict]:
    """The epoch clock."""
    epochs = db.cluster.epochs
    return [
        {
            "current_epoch": epochs.current_epoch,
            "latest_queryable_epoch": epochs.latest_queryable_epoch,
            "ahm": epochs.ahm,
            "nodes_down": epochs.nodes_down,
        }
    ]


VIEWS = {
    "projections": projections_view,
    "storage_containers": storage_containers_view,
    "nodes": nodes_view,
    "locks": locks_view,
    "epochs": epochs_view,
}


def system_view(db, name: str) -> list[dict]:
    """Evaluate one monitoring view by name."""
    try:
        view = VIEWS[name]
    except KeyError:
        raise UnknownObjectError(
            f"unknown system view {name!r}; have {sorted(VIEWS)}"
        ) from None
    return view(db)
