"""JSON codec for catalog objects recorded in the journal.

The journal stores catalog DDL as plain JSON so a cold start can
rebuild :class:`~repro.core.catalog.Catalog` without importing pickled
code.  Every field round-trips by value; data types are encoded by
name and resolved through :func:`repro.types.type_from_name`; a table's
partition expression as its SQL text (``repr`` of the ``Expr``), rebuilt
by the parser and analyzer ``CREATE TABLE ... PARTITION BY`` runs — so
:func:`encode_table` refuses an expression whose text does not read back,
and a decode of such text raises :class:`CatalogError`.  Every field an
encoder writes is required: a decode of a payload missing one raises
``KeyError``, which the journal counts as damage.
"""

from __future__ import annotations

from ..core.catalog import Catalog
from ..core.schema import ColumnDef, TableDefinition
from ..errors import CatalogError, DurabilityError, ReproError
from ..projections.projection import (
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    ProjectionFamily,
)
from ..projections.segmentation import HashSegmentation, Replicated
from ..types import type_from_name

def encode_table(table: TableDefinition) -> dict:
    """Encode a table definition as a JSON-safe dict, refusing a partition
    expression whose text does not read back (a reopen has only the text)."""
    text = None if table.partition_by is None else repr(table.partition_by)
    if repr(_partition_by(table.name, table.column_names, text)) != repr(table.partition_by):
        raise CatalogError(f"partition expression {text} of {table.name!r} does not read back")
    return {
        "name": table.name,
        "columns": [[column.name, column.dtype.name] for column in table.columns],
        "partition_by_text": text,
        "primary_key": list(table.primary_key),
    }


def decode_table(payload: dict) -> TableDefinition:
    """Rebuild a table definition, its partition expression included."""
    name, columns = payload["name"], payload["columns"]
    return TableDefinition(
        name=name,
        columns=[ColumnDef(column, type_from_name(dtype)) for column, dtype in columns],
        partition_by=_partition_by(name, [c for c, _ in columns], payload["partition_by_text"]),
        primary_key=tuple(payload["primary_key"]),
    )


def _partition_by(table: str, columns: list[str], text: str | None):
    """``text`` read as CREATE TABLE reads ``PARTITION BY``; text that does
    not read raises :class:`CatalogError`."""
    from ..sql.interface import partition_expression

    try:
        return None if text is None else partition_expression(table, columns, text)
    except (ReproError, ValueError, TypeError) as exc:  # (a bad DATE literal, -'text')
        raise CatalogError(
            f"partition expression {text} of {table!r} does not read back: {exc}"
        ) from None


def _encode_segmentation(scheme) -> dict:
    if isinstance(scheme, Replicated):
        return {"kind": "replicated"}
    if isinstance(scheme, HashSegmentation):
        return {
            "kind": "hash",
            "columns": list(scheme.columns),
            "offset": scheme.offset,
        }
    raise DurabilityError(f"cannot journal segmentation scheme {scheme!r}")


def _decode_segmentation(payload: dict):
    if payload["kind"] == "replicated":
        return Replicated()
    if payload["kind"] == "hash":
        return HashSegmentation(tuple(payload["columns"]), payload["offset"])
    raise DurabilityError(f"unknown segmentation kind {payload['kind']!r}")


def encode_projection(projection: ProjectionDefinition) -> dict:
    """Encode one projection copy as a JSON-safe dict."""
    prejoin = None
    if projection.prejoin is not None:
        prejoin = {
            "dimension_table": projection.prejoin.dimension_table,
            "anchor_key": projection.prejoin.anchor_key,
            "dimension_key": projection.prejoin.dimension_key,
            "carried_columns": dict(projection.prejoin.carried_columns),
        }
    return {
        "name": projection.name,
        "anchor_table": projection.anchor_table,
        "columns": [
            [column.name, column.dtype.name, column.encoding]
            for column in projection.columns
        ],
        "sort_order": list(projection.sort_order),
        "segmentation": _encode_segmentation(projection.segmentation),
        "prejoin": prejoin,
        "buddy_offset": projection.buddy_offset,
        "comment": projection.comment,
    }


def decode_projection(payload: dict) -> ProjectionDefinition:
    """Rebuild one projection copy."""
    prejoin = None
    if payload["prejoin"] is not None:
        spec = payload["prejoin"]
        prejoin = PrejoinSpec(
            dimension_table=spec["dimension_table"],
            anchor_key=spec["anchor_key"],
            dimension_key=spec["dimension_key"],
            carried_columns=dict(spec["carried_columns"]),
        )
    return ProjectionDefinition(
        name=payload["name"],
        anchor_table=payload["anchor_table"],
        columns=[
            ProjectionColumn(name, type_from_name(dtype), encoding)
            for name, dtype, encoding in payload["columns"]
        ],
        sort_order=list(payload["sort_order"]),
        segmentation=_decode_segmentation(payload["segmentation"]),
        prejoin=prejoin,
        buddy_offset=payload["buddy_offset"],
        comment=payload["comment"],
    )


def encode_family(family: ProjectionFamily) -> dict:
    """Encode a projection family (primary + buddies)."""
    return {
        "primary": encode_projection(family.primary),
        "buddies": [encode_projection(buddy) for buddy in family.buddies],
    }


def decode_family(payload: dict) -> ProjectionFamily:
    """Rebuild a projection family."""
    return ProjectionFamily(
        primary=decode_projection(payload["primary"]),
        buddies=[decode_projection(buddy) for buddy in payload["buddies"]],
    )


def encode_catalog(catalog: Catalog) -> dict:
    """Encode the whole catalog, for checkpoint records."""
    return {
        "tables": [encode_table(catalog.tables[name]) for name in sorted(catalog.tables)],
        "families": [
            encode_family(catalog.families[name]) for name in sorted(catalog.families)
        ],
    }


def decode_catalog(payload: dict) -> Catalog:
    """Rebuild a catalog from a checkpoint record."""
    catalog = Catalog()
    for table in payload["tables"]:
        catalog.add_table(decode_table(table))
    for family in payload["families"]:
        catalog.add_family(decode_family(family))
    return catalog
