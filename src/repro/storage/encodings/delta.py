"""Delta Value encoding.

    Delta Value: Data is recorded as a difference from the smallest
    value in a data block.  This type is best used for many-valued,
    unsorted integer or integer-based columns.  (section 3.4.1)

Each block stores its minimum once, then every value as an unsigned
varint offset from that minimum.  Works for INTEGER/DATE/TIMESTAMP
columns (the "integer-based" types).
"""

from __future__ import annotations

from ...types import DataType
from ..serde import read_svarint, read_uvarints, uvarint_size, uvarints_size
from ..serde import write_svarint, write_uvarints, zigzag
from .base import BlockFacts, Encoding, register


class DeltaValueEncoding(Encoding):
    """Offset-from-block-minimum varints; integers only."""

    name = "DELTAVAL"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        out = bytearray()
        if not values:
            return bytes(out)
        minimum = facts.minimum if facts else min(values)
        write_svarint(out, minimum)
        write_uvarints(out, list(map((-minimum).__add__, values)))
        return bytes(out)

    def trial(self, values: list, facts: BlockFacts) -> int:
        if not values:
            return 0
        minimum = facts.minimum
        offsets = list(map((-minimum).__add__, values))
        return uvarint_size(zigzag(minimum)) + uvarints_size(offsets)

    def decode(self, data: bytes, count: int) -> list:
        if count == 0:
            return []
        minimum, offset = read_svarint(data, 0)
        deltas, _ = read_uvarints(data, offset, count)
        return list(map(minimum.__add__, deltas))

    def supports(self, dtype: DataType, values: list, facts=None) -> bool:
        return dtype.integral and (facts or BlockFacts(values)).kinds <= {int}


DELTAVAL = register(DeltaValueEncoding())
