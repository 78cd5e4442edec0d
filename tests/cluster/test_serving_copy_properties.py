"""``Cluster.serving_copy`` against the three choosers it replaced.

For 1–4 nodes at K = 0, 1 and 2, a segmented and a replicated table, and
any set of up nodes, the one function must pick the copy the old code
picked — or fail where it failed:

* ``scan_sources`` is the old per-segment loop (``reference_sources``);
* ``resolve_sources``, the executor's pass, is that loop for a segmented
  family and the old replicated-scan rule for every fragment ``base``
  of a replicated one, and it refuses exactly when some family's loop
  did;
* with ``excluding`` = the node being rebuilt, it is recovery's buddy
  lookup for every copy on every node, down (recovery) or up (scrub
  repair).

``REPRO_FUZZ_SEEDS`` (``tools/check.sh``) adds seeded runs.
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import ColumnDef, TableDefinition, types
from repro.cluster import Cluster
from repro.errors import DataUnavailableError
from repro.projections import HashSegmentation, Replicated

import reference_sources as oracle

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]
SHAPES = [(n, k) for n in range(1, 5) for k in range(3) if k < n or k == 0]
PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
UNAVAILABLE = "unavailable"


@pytest.fixture(scope="module")
def clusters(tmp_path_factory):
    """(nodes, K) -> a cluster holding a segmented and a replicated table."""
    made = {}
    for node_count, k_safety in SHAPES:
        cluster = Cluster(
            str(tmp_path_factory.mktemp(f"n{node_count}k{k_safety}")),
            node_count=node_count,
            k_safety=k_safety,
        )
        for name, segmentation in (
            ("seg", HashSegmentation(("k",))),
            ("rep", Replicated()),
        ):
            cluster.create_table(
                TableDefinition(name, [ColumnDef("k", types.INTEGER)]),
                segmentation=segmentation,
            )
        made[node_count, k_safety] = cluster
    return made


def outcome(choose):
    try:
        return choose()
    except DataUnavailableError:
        return UNAVAILABLE


def check_one_chooser(cluster):
    nodes = range(cluster.node_count)
    families = cluster.catalog.families
    expected_pass = {}
    for name, family in families.items():
        assert outcome(lambda: cluster.scan_sources(family)) == outcome(
            lambda: oracle.scan_sources(cluster, family)
        )
        if family.primary.segmentation.replicated:
            expected_pass[name] = [
                outcome(lambda: oracle.replicated_scan_source(cluster, family, base))
                for base in nodes
            ]
        else:
            expected_pass[name] = outcome(lambda: oracle.scan_sources(cluster, family))
        for copy in family.all_copies:
            for node_index in nodes:
                segment = copy.segmentation.range_for_node(node_index, len(nodes))
                assert outcome(
                    lambda: cluster.serving_copy(family, segment, excluding=node_index)
                ) == outcome(
                    lambda: oracle.buddy_source(cluster, family, node_index, copy)
                ), (copy.name, node_index)
    refused = any(
        sources == UNAVAILABLE or UNAVAILABLE in sources
        for sources in expected_pass.values()
    )
    assert outcome(cluster.resolve_sources) == (UNAVAILABLE if refused else expected_pass)
    assert cluster.check_data_available() is not refused


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_one_function_chooses_as_the_three_did(clusters, seed_index):
    @PROPERTY
    @given(st.sampled_from(SHAPES), st.data())
    def run(shape, data):
        cluster = clusters[shape]
        up = data.draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
        cluster.membership.up = {node for node, is_up in enumerate(up) if is_up}
        check_one_chooser(cluster)

    (seed(EXTRA_SEEDS[seed_index - 1])(run) if seed_index else run)()
