"""The triple-at-a-time history mover, kept as a test oracle.

Recovery, repair, refresh and rebalance the way they ran while a stored
history travelled as ``(row, insert_epoch, delete_epoch)`` triples:
every container decoded into row dicts, every record hashed on its own
to find its node and its local segment, a prejoin copy shaped one record
at a time, groups sorted with ``ProjectionDefinition.sort_key_for``.
The product moves one columnar ``HistoryRun`` instead (``take`` /
``project`` / ``Cluster.route_rows`` / ``write_run``);
``tests/cluster/test_history_moves_as_runs.py`` drives both over the
same histories and requires the same rows, in the same order in every
container, under the same delete markers.  Next to
``reference_writer.py``, which does the same for the bytes of one
container.

Only the movement is re-implemented.  Truncation to the LGE, by-value
marking and the container writer are the product's own (each has its
own oracle), so a difference found here is a difference in what was
moved, where to, or in which order.
"""

from repro.cluster.node import ClusterNode
from repro.cluster.recovery import _fresh_node_dirname
from repro.hashing import hash_row
from repro.projections import HashSegmentation
from repro.projections.segmentation import ring_range
from storage_helpers import columns_of, partition_key_of, read_table, run_of_records


def container_records(manager, name, container_id):
    """``(row, insert_epoch, delete_epoch)`` per position of one
    container, decoded a column at a time and zipped by hand."""
    state = manager.storage(name)
    container = state.containers[container_id]
    names = container.meta.columns
    columns = [container.read_column(column) for column in names]
    epochs = container.read_epochs()
    deletes = state.deletes_for(container_id)
    return [
        (
            {column: values[position] for column, values in zip(names, columns)},
            epochs[position],
            deletes.get(position),
        )
        for position in range(container.row_count)
    ]


def wos_records(manager, name):
    wos = manager.storage(name).wos.run
    return [
        (
            {column: values[position] for column, values in wos.columns.items()},
            wos.epochs[position],
            wos.delete_epochs[position],
        )
        for position in range(len(wos))
    ]


def dump_records(manager, name, after_epoch=None):
    """Containers by ascending id, then the WOS; with ``after_epoch``
    only what was inserted or deleted past it."""
    records = []
    for container_id in sorted(manager.storage(name).containers):
        records += container_records(manager, name, container_id)
    records += wos_records(manager, name)
    return [
        record
        for record in records
        if after_epoch is None or max(record[1], record[2] or 0) > after_epoch
    ]


def load_records(manager, name, records):
    """One container per (partition key, local segment), each record
    placed by its own row, each group sorted by row keys (stable)."""
    state = manager.storage(name)
    scheme = state.projection.segmentation
    groups = {}
    for record in records:
        row = record[0]
        segment = 0
        if manager.segments_per_node > 1 and isinstance(scheme, HashSegmentation):
            position = hash_row([row[column] for column in scheme.columns])
            segment = scheme.local_segment_for_position(
                position, manager.node_count, manager.segments_per_node
            )
        groups.setdefault((partition_key_of(state.table, row), segment), []).append(record)
    for (partition_key, segment), group in sorted(
        groups.items(), key=lambda item: repr(item[0])
    ):
        group.sort(key=lambda record: state.projection.sort_key_for(record[0]))
        manager.add_container_from_rows(
            name,
            run_of_records(state.projection, group),
            partition_key=partition_key,
            local_segment=segment,
        )


def route_records(cluster, copy, records):
    if copy.segmentation.replicated:
        return {node: list(records) for node in range(cluster.node_count)}
    routed = {}
    for record in records:
        scheme = copy.segmentation
        position = hash_row([record[0][column] for column in scheme.columns])
        node = scheme.node_for_range(
            ring_range(position, cluster.node_count), cluster.node_count
        )
        routed.setdefault(node, []).append(record)
    return routed


def buddy_records(cluster, family, node_index, copy, after_epoch=None):
    if copy.segmentation.replicated:
        source = next(n for n in cluster.membership.up_nodes() if n != node_index)
        return dump_records(cluster.nodes[source].manager, copy.name, after_epoch)
    base = (node_index - copy.segmentation.offset) % cluster.node_count
    for other in family.all_copies:
        host = (base + other.segmentation.offset) % cluster.node_count
        if other.name != copy.name and cluster.membership.is_up(host):
            return dump_records(cluster.nodes[host].manager, other.name, after_epoch)
    raise AssertionError(f"no live buddy for {copy.name} on node {node_index}")


def replay_window(manager, name, records, from_epoch, to_epoch):
    load_records(
        manager, name, [r for r in records if from_epoch < r[1] <= to_epoch]
    )
    by_epoch = {}
    for row, insert_epoch, delete_epoch in records:
        if (
            delete_epoch is not None
            and from_epoch < delete_epoch <= to_epoch
            and not from_epoch < insert_epoch <= to_epoch
        ):
            by_epoch.setdefault(delete_epoch, []).append(row)
    for delete_epoch, rows in sorted(by_epoch.items()):
        manager.delete_where(
            name, columns_of(rows), commit_epoch=delete_epoch,
            snapshot_epoch=delete_epoch - 1,
        )


def recover_node(cluster, node_index, historical_lag=0):
    manager = cluster.nodes[node_index].manager
    current = cluster.epochs.latest_queryable_epoch
    boundary = max(current - historical_lag, 0)
    for _, family in sorted(cluster.catalog.families.items()):
        for copy in family.all_copies:
            lge = cluster.epochs.lge(node_index, copy.name)
            if lge >= current:
                continue
            cluster.epochs.invalidate_lge(node_index, copy.name)
            manager.truncate_after_epoch(copy.name, lge)
            records = buddy_records(cluster, family, node_index, copy, lge)
            replay_window(manager, copy.name, records, lge, boundary)
            replay_window(manager, copy.name, records, boundary, current)
            cluster.epochs.set_lge(node_index, copy.name, current)
    cluster.membership.rejoin(node_index)
    cluster.epochs.node_up(node_index)


def repair_node_projection(cluster, node_index, projection_name):
    family, copy = next(
        (family, copy)
        for family in cluster.catalog.families.values()
        for copy in family.all_copies
        if copy.name == projection_name
    )
    manager = cluster.nodes[node_index].manager
    records = buddy_records(cluster, family, node_index, copy)
    manager.forget_contents(projection_name)
    load_records(manager, projection_name, records)
    current = cluster.epochs.latest_queryable_epoch
    if current > cluster.epochs.lge(node_index, projection_name):
        cluster.epochs.set_lge(node_index, projection_name, current)


def collect_records(cluster, family):
    records = []
    for node_index, name in cluster.scan_sources(family):
        records += dump_records(cluster.nodes[node_index].manager, name)
    return records


def shape_record_row(cluster, projection, row, epoch):
    """``row`` shaped for ``projection`` on its own: its columns, and for
    a prejoin the dimension row visible at ``epoch`` joined on — the
    whole dimension read for every record."""
    shaped = {name: row[name] for name in projection.own_column_names}
    spec = projection.prejoin
    if spec is not None:
        dimension = {
            other[spec.dimension_key]: other
            for other in read_table(cluster, spec.dimension_table, epoch)
        }
        for source, target in spec.carried_columns.items():
            shaped[target] = dimension[row[spec.anchor_key]][source]
    return shaped


def refresh_projection(cluster, family):
    """``family`` was registered with ``populate=False``."""
    table = cluster.catalog.table(family.primary.anchor_table)
    source = next(
        candidate
        for candidate in cluster.catalog.families_for_table(table.name)
        if candidate.primary.name != family.primary.name
        and candidate.primary.is_super_for(table)
        and candidate.primary.prejoin is None
    )
    table_records = collect_records(cluster, source)
    for copy in family.all_copies:
        shaped = [
            (shape_record_row(cluster, copy, row, insert_epoch), insert_epoch, deleted)
            for row, insert_epoch, deleted in table_records
        ]
        for node_index, records in route_records(cluster, copy, shaped).items():
            if cluster.membership.is_up(node_index):
                load_records(cluster.nodes[node_index].manager, copy.name, records)


def rebalance(cluster, new_node_count):
    histories = {
        name: collect_records(cluster, family)
        for name, family in sorted(cluster.catalog.families.items())
    }
    old_nodes = cluster.nodes
    cluster.node_count = new_node_count
    cluster.membership = type(cluster.membership)(new_node_count)
    cluster.nodes = [
        old_nodes[index]
        if index < len(old_nodes)
        else ClusterNode.create(
            cluster.root, index, new_node_count,
            dirname=_fresh_node_dirname(cluster.root, index),
        )
        for index in range(new_node_count)
    ]
    for node in cluster.nodes:
        node.manager.node_count = new_node_count
    for name, family in sorted(cluster.catalog.families.items()):
        for copy in family.all_copies:
            for node in cluster.nodes:
                if copy.name in node.manager.projection_names():
                    node.manager.forget_contents(copy.name)
                else:
                    node.manager.register_projection(
                        copy, cluster.catalog.table(copy.anchor_table)
                    )
            for node_index, records in route_records(
                cluster, copy, histories[name]
            ).items():
                load_records(cluster.nodes[node_index].manager, copy.name, records)

