"""The three choosers a segment's serving copy used to have, kept as the
oracle for ``Cluster.serving_copy``.

Before one function answered "which live copy serves ring segment *b*",
the choice was written out three times: the scan-source loop over every
segment, the executor's rule for a replicated scan beside fragment
``base``, and recovery's buddy lookup for a node being rebuilt.  They
are copied here as they were, minus the reads they fed; each returns
``(node, projection copy)`` or raises ``DataUnavailableError``.
"""

from repro.errors import DataUnavailableError


def scan_sources(cluster, family):
    """(node, copy) pairs covering the family's rows from up nodes."""
    primary = family.primary
    if primary.segmentation.replicated:
        up = cluster.membership.up_nodes()
        if not up:
            raise DataUnavailableError(f"no node up for {primary.name}")
        return [(up[0], primary.name)]
    sources = []
    for base in range(cluster.node_count):
        chosen = None
        for copy in family.all_copies:
            host = copy.segmentation.node_for_range(base, cluster.node_count)
            if cluster.membership.is_up(host):
                chosen = (host, copy.name)
                break
        if chosen is None:
            raise DataUnavailableError(f"segment {base} of {primary.name}")
        sources.append(chosen)
    return sources


def replicated_scan_source(cluster, family, base):
    """The copy a replicated scan beside fragment ``base`` reads."""
    up = cluster.membership.up_nodes()
    if not up:
        raise DataUnavailableError(f"no node up for {family.primary.name}")
    return (base if base in up else up[0]), family.primary.name


def buddy_source(cluster, family, node_index, copy):
    """The copy recovery and scrub repair read ``copy`` on
    ``node_index`` back from."""
    if copy.segmentation.replicated:
        for source in cluster.membership.up_nodes():
            if source != node_index:
                return source, copy.name
        raise DataUnavailableError(f"no live source for {copy.name}")
    base = copy.segmentation.range_for_node(node_index, cluster.node_count)
    for other in family.all_copies:
        if other.name == copy.name:
            continue
        host = other.segmentation.node_for_range(base, cluster.node_count)
        if cluster.membership.is_up(host):
            return host, other.name
    raise DataUnavailableError(f"no live buddy for segment {base} of {copy.name}")
