"""Helpers shared by the storage-level test modules (``tests/`` is put
on ``sys.path`` by the repo-root ``conftest.py``)."""

from repro.columnar import blocks_to_rows
from repro.projections.segmentation import ring_range


def delete_matching(manager, name, predicate, commit_epoch, snapshot_epoch):
    """``DELETE ... WHERE predicate`` the way the product runs it:
    resolve the victims in the snapshot, then delete them by value.
    Returns the number of rows marked."""
    victims = [
        row
        for row in blocks_to_rows(manager.scan(name, snapshot_epoch))
        if predicate(row)
    ]
    return manager.delete_where(
        name, columns_of(victims), commit_epoch, snapshot_epoch
    )


def columns_of(rows):
    """Row dicts as columns (name -> values): the form ``delete_where``
    takes its victims in."""
    return {name: [row[name] for row in rows] for name in (rows[0] if rows else ())}


def nodes_of(scheme, rows, node_count):
    """The node each row dict lands on under a hash ``scheme``, through
    the batch API the product places by (the batch's ring positions,
    then the range table)."""
    if not rows:
        return []
    return [
        scheme.node_for_range(ring_range(position, node_count), node_count)
        for position in scheme.ring_positions(columns_of(rows))
    ]


def rows_of(columns):
    """Columns (name -> values) as row dicts: ``columns_of`` undone."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def partition_key_of(table, row):
    """The oracles' partition key of one row dict: the table's partition
    expression evaluated on that row alone (None when unpartitioned)."""
    if table.partition_by is None:
        return None
    return table.partition_by.evaluate_row(row)


def read_table(cluster, table, epoch):
    """Every row of ``table`` visible at ``epoch``, as row dicts read off
    the up copies of its super projection — the row-at-a-time view the
    tests compare with (the product reads columns,
    ``Cluster.read_columns``)."""
    family = cluster.catalog.super_projection_for(table)
    return [
        row
        for node_index, projection_name in cluster.scan_sources(family)
        for row in blocks_to_rows(cluster.nodes[node_index].manager.scan(
            projection_name, epoch
        ))
    ]


def rows_where(cluster, table, predicate, epoch):
    """The victims of ``DELETE FROM table WHERE predicate`` at snapshot
    ``epoch``, found the row way — every visible row, tested one at a
    time — as ``Cluster.commit_dml`` takes them."""
    return [row for row in read_table(cluster, table, epoch) if predicate(row)]


def run_of(projection, rows, epochs, delete_epochs=None):
    """Row dicts as the columnar run the storage writer takes."""
    from repro.storage import HistoryRun

    return HistoryRun.from_rows(projection.column_names, rows, epochs, delete_epochs)


def run_of_records(projection, records):
    """``(row, insert_epoch, delete_epoch)`` triples as a run — what
    ``load_history`` takes."""
    rows, epochs, delete_epochs = map(list, zip(*records)) if records else ([],) * 3
    return run_of(projection, rows, epochs, delete_epochs)


def kv_rows(keys, v=None):
    """Rows of the count tests' table ``t(k, v)`` (``tests/counts/conftest.py``)
    for ``keys``; ``v`` defaults to ``k % 9``."""
    return [{"k": k, "v": k % 9 if v is None else v} for k in keys]
