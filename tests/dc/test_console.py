"""Console front-end tests: one-shot snapshot rendering.

``main(argv)`` is called in-process (the same path
``python -m repro.console`` takes) against a real on-disk database, so
these tests cover argument parsing, ``Database.open`` attachment, and
the full render path over the SQL tables.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.console import main, render
from repro.monitor import reset_all

pytestmark = pytest.mark.dc


@pytest.fixture
def db_path(tmp_path):
    reset_all()
    path = str(tmp_path / "db")
    db = Database(path, node_count=3)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)]
        ),
        sort_order=["k"],
    )
    db.sql("INSERT INTO t VALUES (1, 2), (3, 4)")
    db.sql("SELECT k, v FROM t")
    db.run_tuple_movers()
    del db
    return path


def test_snapshot_renders_every_section(db_path, capsys):
    assert main(["--db", db_path, "--snapshot"]) == 0
    out = capsys.readouterr().out
    for section in (
        "NODES",
        "POOLS",
        "SESSIONS",
        "ALERTS",
        "SLOW QUERIES",
        "RECENT REQUESTS",
        "NODE EVENTS",
    ):
        assert f"── {section} " in out
    # pre-restart history is served after Database.open
    assert "select" in out
    assert "node00" in out
    assert "alerts_firing=" in out


def test_history_survives_failover_heal_and_restart(tmp_path, capsys):
    """A database that went through load -> query -> mover -> failover
    and heal -> restart: the snapshot serves the pre-restart history,
    and the reopened database serves ``dc_node_events`` /
    ``dc_tuple_mover`` out of the recovered rings."""
    reset_all()
    path = str(tmp_path / "db")
    db = Database(path, node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)]
        ),
        sort_order=["k"],
    )
    db.sql("INSERT INTO t VALUES (1, 10), (2, 20)")
    db.sql("SELECT v FROM t WHERE k = 1")
    db.cluster.run_tuple_movers()
    db.cluster.fail_node(1)
    db.cluster.supervisor.run_until_converged()
    assert db.cluster.membership.is_up(1)
    del db

    assert main(["--db", path, "--snapshot"]) == 0
    out = capsys.readouterr().out
    for section in ("NODES", "ALERTS", "RECENT REQUESTS", "NODE EVENTS"):
        assert f"── {section} " in out
    assert "select" in out, "pre-restart history not served"

    db = Database.open(path)
    columns = "SELECT kind, node_index, detail FROM v_monitor."
    failovers = db.sql(columns + "dc_node_events")
    assert failovers, "failover history lost across the restart"
    assert any(row["detail"] == "UP->DOWN" for row in failovers), failovers
    assert db.sql(
        "SELECT rows_in FROM v_monitor.dc_tuple_mover WHERE kind = 'moveout'"
    ), "pre-restart moveout not served after the restart"


def test_snapshot_shows_firing_alerts_first(db_path):
    db = Database.open(db_path)
    # force one warning alert to fire deterministically
    from repro.monitor import METRICS

    METRICS.inc("storage.crc_failures", 100)
    out = render(db, db_path)
    assert "alerts_firing=1 (crc_failures)" in out
    alerts = out.split("── ALERTS ")[1].splitlines()
    first_row = alerts[3]  # header, rule line, then rows
    assert "crc_failures" in first_row
    assert "firing" in first_row


def test_live_mode_reopens_database_each_frame(db_path, monkeypatch, capsys):
    """Live mode must track the on-disk state: every frame re-opens the
    database instead of re-rendering one stale in-process instance."""
    from repro.core.database import Database as Db

    real_open = Db.open.__func__
    opens = []

    def counting_open(cls, path, *args, **kwargs):
        opens.append(path)
        return real_open(cls, path, *args, **kwargs)

    monkeypatch.setattr(Db, "open", classmethod(counting_open))

    sleeps = []

    def interrupting_sleep(_interval):
        sleeps.append(1)
        if len(sleeps) >= 2:
            raise KeyboardInterrupt

    monkeypatch.setattr("repro.console.time.sleep", interrupting_sleep)

    assert main(["--db", db_path, "--interval", "0"]) == 0
    assert opens == [db_path, db_path]  # one fresh open per frame
    out = capsys.readouterr().out
    assert out.count("repro console — Data Collector dashboard") == 2


def test_missing_db_argument_is_an_error():
    with pytest.raises(SystemExit):
        main(["--snapshot"])


def test_long_cells_truncated(db_path):
    db = Database.open(db_path)
    db.sql("SELECT k, v FROM t WHERE k = 1 OR k = 3 OR k = 5 OR k = 7")
    wide = "SELECT k FROM t WHERE " + " OR ".join(
        f"k = {i}" for i in range(40)
    )
    db.sql(wide)
    out = render(db, db_path)
    for line in out.splitlines():
        assert len(line) < 400  # one wide SQL cannot wreck the layout
    assert "…" in out
