"""The database the on-disk count tests share: ``t(k, v)`` sorted on
``k`` under ``tmp_path``, so each test can close it and reopen it."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types


@pytest.fixture
def kv_database(tmp_path):
    """``(path, make)``: ``make(**cluster_options)`` creates the database
    at ``path`` holding the empty table ``t``."""
    path = str(tmp_path / "db")

    def make(**options):
        db = Database(path, **options)
        db.create_table(
            TableDefinition(
                "t",
                [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)],
                primary_key=("k",),
            ),
            sort_order=["k"],
        )
        return db

    return path, make
