"""Counts, not timings: a scrub pass verifies every container once.

On a fresh 3-node K=1 cluster, ``Cluster.scrub()`` checks each live ROS
container of every copy on every up node exactly once, finds nothing
to repair, and leaves every row readable — also after a DELETE's
delete vectors reached disk.
"""

from repro.storage import ROSContainer
from storage_helpers import kv_rows


def test_a_fresh_cluster_scrubs_clean(kv_database, monkeypatch):
    _, make = kv_database
    db = make(node_count=3, k_safety=1)
    cluster = db.cluster
    cluster.commit_dml({"t": kv_rows(range(64))}, [], 0, direct_to_ros=True)
    verified = []
    verify = ROSContainer.verify

    def counting(self):
        verified.append(self.path)
        return verify(self)

    monkeypatch.setattr(ROSContainer, "verify", counting)

    for deleted in (0, 8):
        verified.clear()
        report = cluster.scrub()
        assert report.clean(), report
        held = [
            container.path
            for node in cluster.nodes
            for name in node.manager.projection_names()
            for container in node.manager.storage(name).containers.values()
        ]
        assert held and sorted(verified) == sorted(held)
        assert db.sql("SELECT count(*) AS n FROM t") == [{"n": 64 - deleted}]
        db.sql("DELETE FROM t WHERE k < 8")
        cluster.run_tuple_movers()  # the delete vectors go to disk
