"""Projection definitions.

Projections (section 3.1) are the *only* physical data structure in
Vertica: sorted, optionally column-subsetted, optionally prejoined
copies of a table, each with its own per-column encodings and its own
segmentation.  Every table needs at least one *super projection*
holding every column (section 3.2 — join indexes were dropped), and
each projection needs a *buddy* at K-safety >= 1 (section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.schema import TableDefinition
from ..errors import SqlAnalysisError
from ..types import DataType, sort_key
from .segmentation import HashSegmentation, Replicated, SegmentationScheme


@dataclass(frozen=True)
class ProjectionColumn:
    """One column of a projection: source column, type and encoding."""

    name: str
    dtype: DataType
    #: Encoding name from :mod:`repro.storage.encodings`; "AUTO" defers
    #: the choice to per-block empirical selection.
    encoding: str = "AUTO"


@dataclass
class PrejoinSpec:
    """Denormalizing N:1 join baked into a prejoin projection (3.3).

    ``dimension`` rows are joined to the anchor's rows during load via
    ``anchor_key = dimension_key``; the projection then stores selected
    dimension columns alongside the fact columns.
    """

    dimension_table: str
    anchor_key: str
    dimension_key: str
    #: dimension column name -> name it gets inside the projection.
    carried_columns: dict[str, str]


@dataclass
class ProjectionDefinition:
    """A named physical layout of (a subset of) a table's columns."""

    name: str
    anchor_table: str
    columns: list[ProjectionColumn]
    #: Column names (must be a prefix-free subset of ``columns``) the
    #: projection is totally sorted on, in major-to-minor order.
    sort_order: list[str]
    segmentation: SegmentationScheme
    prejoin: PrejoinSpec | None = None
    #: Buddy offset (0 = primary copy); buddies share a base name.
    buddy_offset: int = 0
    #: Free-form creation comment, kept for catalog display.
    comment: str = ""

    def __post_init__(self):
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SqlAnalysisError(f"duplicate columns in projection {self.name!r}")
        for sort_column in self.sort_order:
            if sort_column not in names:
                raise SqlAnalysisError(
                    f"sort column {sort_column!r} not in projection {self.name!r}"
                )
        if isinstance(self.segmentation, HashSegmentation):
            for column in self.segmentation.columns:
                if column not in names:
                    raise SqlAnalysisError(
                        f"segmentation column {column!r} not in projection "
                        f"{self.name!r}"
                    )

    @property
    def column_names(self) -> list[str]:
        """Ordered column names stored by this projection."""
        return [column.name for column in self.columns]

    def column(self, name: str) -> ProjectionColumn:
        """Look up a projection column by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise SqlAnalysisError(f"projection {self.name!r} has no column {name!r}")

    @property
    def own_column_names(self) -> list[str]:
        """The anchor table's columns this projection stores: all of
        them but the ones a prejoin carries over from its dimension."""
        if self.prejoin is None:
            return self.column_names
        carried = set(self.prejoin.carried_columns.values())
        return [name for name in self.column_names if name not in carried]

    def is_super_for(self, table: TableDefinition) -> bool:
        """Whether this projection stores every column of ``table``."""
        return set(self.own_column_names) >= set(table.column_names)

    def sort_key_for(self, row: dict):
        """Tuple ordering key of ``row`` under this projection's sort order."""
        return tuple(sort_key(row[column]) for column in self.sort_order)

    def sorted_rows(self, rows: list[dict]) -> list[dict]:
        """Rows sorted by the projection sort order (stable)."""
        return sorted(rows, key=self.sort_key_for)

    def covers(self, needed_columns) -> bool:
        """Whether the projection stores every column in ``needed_columns``."""
        return set(needed_columns) <= set(self.column_names)

    def describe(self) -> str:
        """One-line catalog description (used by Figure 1/2 benches)."""
        columns = ", ".join(
            f"{column.name} ENCODING {column.encoding}" for column in self.columns
        )
        order = ", ".join(self.sort_order)
        return (
            f"PROJECTION {self.name} ({columns}) "
            f"ORDER BY {order} {self.segmentation.describe()}"
        )


def super_projection(
    table: TableDefinition,
    name: str | None = None,
    sort_order: list[str] | None = None,
    segmentation: SegmentationScheme | None = None,
    encodings: dict[str, str] | None = None,
    buddy_offset: int = 0,
) -> ProjectionDefinition:
    """Build a super projection for ``table`` with sensible defaults.

    Defaults mirror what Vertica's Database Designer would produce with
    no workload: sort on all columns left-to-right, segment by hash of
    the first column (or primary key when declared), AUTO encodings.
    """
    encodings = encodings or {}
    columns = [
        ProjectionColumn(c.name, c.dtype, encodings.get(c.name, "AUTO"))
        for c in table.columns
    ]
    if sort_order is None:
        sort_order = [c.name for c in table.columns]
    if segmentation is None:
        seg_columns = table.primary_key or (table.columns[0].name,)
        segmentation = HashSegmentation(tuple(seg_columns), offset=buddy_offset)
    return ProjectionDefinition(
        name=name or f"{table.name}_super",
        anchor_table=table.name,
        columns=columns,
        sort_order=list(sort_order),
        segmentation=segmentation,
        buddy_offset=buddy_offset,
    )


def make_buddy(
    projection: ProjectionDefinition, offset: int = 1
) -> ProjectionDefinition:
    """Create the buddy of ``projection`` at ``offset``.

    Same columns, same sort order; segmentation ring rotated so no row
    co-locates with the primary copy (section 5.2).
    """
    from .segmentation import buddy_of

    return ProjectionDefinition(
        name=f"{projection.name}_b{offset}",
        anchor_table=projection.anchor_table,
        columns=list(projection.columns),
        sort_order=list(projection.sort_order),
        segmentation=buddy_of(projection.segmentation, offset),
        prejoin=projection.prejoin,
        buddy_offset=offset,
        comment=f"buddy of {projection.name}",
    )


@dataclass
class ProjectionFamily:
    """A projection and its buddies, as registered in the catalog."""

    primary: ProjectionDefinition
    buddies: list[ProjectionDefinition] = field(default_factory=list)

    @property
    def all_copies(self) -> list[ProjectionDefinition]:
        """Primary followed by its buddies."""
        return [self.primary, *self.buddies]

    def k_safety(self) -> int:
        """K such that any K node failures leave some copy reachable.

        A replicated projection provides K = (node_count - 1), which is
        reported as a large constant here; hash-segmented families
        provide K = number of buddies.
        """
        if self.primary.segmentation.replicated:
            return 2**31
        return len(self.buddies)
