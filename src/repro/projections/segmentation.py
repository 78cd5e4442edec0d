"""Cluster segmentation: the ring that maps tuples to nodes.

Section 3.6: projections are either *replicated* (every node stores
every tuple) or *segmented* (each tuple lives on exactly one node,
chosen by an integral segmentation expression mapped through a classic
ring of ``N`` equal ranges over ``[0, C_MAX)`` with ``C_MAX = 2**64``).

Buddy projections (section 5.2) reuse the same ring shifted by an
offset, which guarantees no row is stored on the same node by both
buddies — the property K-safety needs.

Within a node, tuples are further segregated into *local segments*
(section 3.6) by subdividing the node's ring range; cluster expansion
moves whole local segments without rewriting them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing import RING_SIZE, exact_keys, hash_row
from ..monitor import METRICS


class SegmentationScheme:
    """Base class for projection placement policies."""

    #: True when every node stores a full copy.
    replicated = False

    def node_for_row(self, row: dict, node_count: int) -> int | None:
        """Index of the node that stores ``row`` (None = all nodes)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable DDL-ish description."""
        raise NotImplementedError


@dataclass(frozen=True)
class Replicated(SegmentationScheme):
    """UNSEGMENTED ALL NODES: a full copy on every node."""

    replicated = True

    def node_for_row(self, row: dict, node_count: int) -> None:
        return None

    def describe(self) -> str:
        return "UNSEGMENTED ALL NODES"


@dataclass(frozen=True)
class HashSegmentation(SegmentationScheme):
    """SEGMENTED BY HASH(col1..coln), ring-mapped, with a buddy offset.

    ``offset`` rotates the ring-to-node assignment: the tuple that the
    offset-0 projection stores on node ``i`` is stored on node
    ``(i + offset) % N`` by an offset-``offset`` buddy.
    """

    columns: tuple[str, ...]
    offset: int = 0

    def ring_position(self, row: dict) -> int:
        """The tuple's position in ``[0, 2**64)``."""
        return hash_row([row[column] for column in self.columns])

    def ring_positions(self, columns: dict[str, list]) -> list[int]:
        """:meth:`ring_position` of every row of a batch held
        column-wise, hashed once per distinct key in it (memo keyed
        type-exactly, :func:`~repro.hashing.exact_keys`).  Every copy
        of a projection family shares the result — buddies rotate the
        node, not the position — and so does local-segment assignment."""
        key_columns = [columns[name] for name in self.columns]
        keys = list(zip(*map(exact_keys, key_columns)))
        # one row per distinct key (which one is all the same to the hash)
        distinct = dict(zip(keys, zip(*key_columns)))
        position_of = {key: hash_row(row) for key, row in distinct.items()}
        METRICS.inc("storage.ring_hashes", len(position_of))
        return list(map(position_of.__getitem__, keys))

    def ring_range(self, position: int, node_count: int) -> int:
        """Which of ``node_count`` equal ring ranges holds a position —
        the same for every copy of a family."""
        return position * node_count // RING_SIZE

    def node_for_range(self, ring_range: int, node_count: int) -> int:
        """The node storing a ring range: the range's index rotated by
        the buddy offset."""
        return (ring_range + self.offset) % node_count

    def node_for_position(self, position: int, node_count: int) -> int:
        """Map a ring position to a node index (paper's range table)."""
        return self.node_for_range(self.ring_range(position, node_count), node_count)

    def node_for_row(self, row: dict, node_count: int) -> int:
        return self.node_for_position(self.ring_position(row), node_count)

    def local_segment_for_position(
        self, position: int, node_count: int, segments_per_node: int
    ) -> int:
        """Index of the local segment (within its node) for a position.

        The node's ring range is subdivided into ``segments_per_node``
        equal sub-ranges, exactly like Figure 2's three local segments.
        """
        node_range = RING_SIZE // node_count
        within = position % node_range if node_count > 1 else position
        return min(
            within * segments_per_node // node_range,
            segments_per_node - 1,
        )

    def local_segment_for_row(
        self, row: dict, node_count: int, segments_per_node: int
    ) -> int:
        return self.local_segment_for_position(
            self.ring_position(row), node_count, segments_per_node
        )

    def describe(self) -> str:
        column_list = ", ".join(self.columns)
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"SEGMENTED BY HASH({column_list}) ALL NODES{suffix}"

    def with_offset(self, offset: int) -> "HashSegmentation":
        """The same ring with a different buddy offset."""
        return HashSegmentation(self.columns, offset)


def buddy_of(scheme: SegmentationScheme, offset: int) -> SegmentationScheme:
    """Segmentation for a buddy projection at the given offset.

    Replicated projections are their own buddies (every node already
    has every row); hash segmentation gets a rotated ring.
    """
    if isinstance(scheme, HashSegmentation):
        return scheme.with_offset((scheme.offset + offset))
    return scheme
