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

This module is the one home of placement: a key's ring position
(:func:`ring_positions`), which of ``count`` ring ranges a position
falls in (:func:`split_by_range` — storage nodes, the resegmenting
Send's destinations and StorageUnion's pipelines alike), and which host
serves a ring segment of a buddy copy (:meth:`SegmentationScheme.node_for_range`
and its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing import RING_SIZE, hash_row
from ..monitor import METRICS


def ring_positions(
    key_columns: list[list], row_count: int, memo: dict | None = None
) -> list[int]:
    """The ring position of each of ``row_count`` rows of a batch whose
    key columns are ``key_columns``, hashed once per distinct key.
    Equal keys hash equally (:mod:`repro.hashing`), so the memo is keyed
    by value; pass ``memo`` to share it across the batches of one
    stream.  With no key columns every row has the empty key, so a
    keyless stream lands in one ring range."""
    keys = list(zip(*key_columns)) if key_columns else [()] * row_count
    position_of = {} if memo is None else memo
    known = len(position_of)
    for key in dict.fromkeys(keys):
        if key not in position_of:
            position_of[key] = hash_row(key)
    METRICS.inc("storage.ring_hashes", len(position_of) - known)
    return list(map(position_of.__getitem__, keys))


def ring_range(position: int, count: int) -> int:
    """Which of ``count`` equal ring ranges holds a position."""
    return position * count // RING_SIZE


def split_by_range(positions: list[int], count: int) -> dict[int, list[int]]:
    """ring range -> the indexes (ascending) of the positions in it,
    over ``count`` equal ranges."""
    range_of = {position: ring_range(position, count) for position in set(positions)}
    routed: dict[int, list[int]] = {}
    for index, position_range in enumerate(map(range_of.__getitem__, positions)):
        routed.setdefault(position_range, []).append(index)
    return routed


class SegmentationScheme:
    """Base class for projection placement policies."""

    #: True when every node stores a full copy.
    replicated = False
    #: Buddy rotation of the ring-segment-to-node assignment.
    offset = 0

    def node_for_range(self, ring_range: int, node_count: int) -> int:
        """The node storing ring segment ``ring_range`` of this copy:
        the segment's index rotated by the buddy offset."""
        return (ring_range + self.offset) % node_count

    def range_for_node(self, node: int, node_count: int) -> int:
        """The ring segment this copy stores on ``node`` (the inverse
        of :meth:`node_for_range`)."""
        return (node - self.offset) % node_count

    def describe(self) -> str:
        """Human-readable DDL-ish description."""
        raise NotImplementedError


@dataclass(frozen=True)
class Replicated(SegmentationScheme):
    """UNSEGMENTED ALL NODES: a full copy on every node."""

    replicated = True

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

    def ring_positions(self, columns: dict[str, list]) -> list[int]:
        """The ring position of every row of a batch held column-wise
        (:func:`ring_positions` of the segmentation columns).  Every
        copy of a projection family shares the result — buddies rotate
        the node, not the position — and so does local-segment
        assignment."""
        key_columns = [columns[name] for name in self.columns]
        return ring_positions(key_columns, len(key_columns[0]))

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
