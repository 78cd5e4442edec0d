"""The metadata catalog.

    The primary state managed between the nodes is the metadata
    catalog, which records information about tables, users, nodes,
    epochs, etc.  Unlike other databases, the catalog is not stored in
    database tables [...] implemented using a custom memory resident
    data structure.  (section 5.3)

Every simulated node holds a replica of the catalog; in this
single-process simulation they share one object, which is faithful to
the paper's observable behaviour (the catalog is kept consistent by the
agreement protocol, which we model at the cluster layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DuplicateObjectError, UnknownObjectError
from ..projections import ProjectionDefinition, ProjectionFamily
from .schema import TableDefinition


@dataclass
class Catalog:
    """Tables and projection families, by name."""

    tables: dict[str, TableDefinition] = field(default_factory=dict)
    #: projection family keyed by the primary projection's name.
    families: dict[str, ProjectionFamily] = field(default_factory=dict)

    # -- tables --------------------------------------------------------

    def add_table(self, table: TableDefinition) -> None:
        """Register a new table."""
        if table.name in self.tables:
            raise DuplicateObjectError(f"table {table.name!r} already exists")
        self.tables[table.name] = table

    def table(self, name: str) -> TableDefinition:
        """Look up a table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownObjectError(f"unknown table {name!r}") from None

    def drop_table(self, name: str) -> list[ProjectionDefinition]:
        """Drop a table; returns the projections that must be removed."""
        self.table(name)
        removed: list[ProjectionDefinition] = []
        for family_name in list(self.families):
            family = self.families[family_name]
            if family.primary.anchor_table == name:
                removed.extend(family.all_copies)
                del self.families[family_name]
        del self.tables[name]
        return removed

    def table_names(self) -> list[str]:
        """Sorted names of all tables."""
        return sorted(self.tables)

    # -- projections ------------------------------------------------------

    def add_family(self, family: ProjectionFamily) -> None:
        """Register a projection family (primary + buddies)."""
        name = family.primary.name
        if name in self.families:
            raise DuplicateObjectError(f"projection {name!r} already exists")
        self.table(family.primary.anchor_table)  # must exist
        self.families[name] = family

    def family(self, name: str) -> ProjectionFamily:
        """Look up a projection family by primary name."""
        try:
            return self.families[name]
        except KeyError:
            raise UnknownObjectError(f"unknown projection {name!r}") from None

    def families_for_table(self, table_name: str) -> list[ProjectionFamily]:
        """All projection families anchored on ``table_name``."""
        return [
            family
            for _, family in sorted(self.families.items())
            if family.primary.anchor_table == table_name
        ]

    def all_projections(self) -> list[ProjectionDefinition]:
        """Every physical projection copy in the catalog."""
        out: list[ProjectionDefinition] = []
        for _, family in sorted(self.families.items()):
            out.extend(family.all_copies)
        return out

    def super_projection_for(self, table_name: str) -> ProjectionFamily:
        """The (first) super projection family of a table — one that
        stores the table alone when there is one: a full-width prejoin
        projection also qualifies, but its rows carry the dimension's
        columns beside the table's own."""
        table = self.table(table_name)
        supers = [
            family
            for family in self.families_for_table(table_name)
            if family.primary.is_super_for(table)
        ]
        if not supers:
            raise UnknownObjectError(
                f"table {table_name!r} has no super projection"
            )
        return min(supers, key=lambda family: family.primary.prejoin is not None)

    def check_super_projection_invariant(self, table_name: str) -> bool:
        """Section 3.2: every table must keep at least one super
        projection (join indexes do not exist)."""
        table = self.table(table_name)
        return any(
            family.primary.is_super_for(table)
            for family in self.families_for_table(table_name)
        )
