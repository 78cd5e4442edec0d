"""Plain (uncompressed) encoding, with an optional zlib variant.

``PLAIN`` stores every value as a self-describing record; it is the
fallback when no structured encoding applies.  ``COMPRESSED_PLAIN``
runs the plain bytes through zlib, standing in for the block-level
LZ-style compression a production column store layers under its
structured encodings.
"""

from __future__ import annotations

import zlib

from ..serde import inflate, read_values, write_values
from .base import BlockFacts, Encoding, register


class PlainEncoding(Encoding):
    """Self-describing records, one per value; applies to any type."""

    name = "PLAIN"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        facts = facts or BlockFacts(values)
        if facts.plain is None:
            out = bytearray()
            write_values(out, values, facts.kinds)
            facts.plain = bytes(out)
        return facts.plain

    def trial(self, values: list, facts: BlockFacts) -> int:
        return facts.plain_size

    def decode(self, data: bytes, count: int) -> list:
        return read_values(data, 0, count)[0]


class CompressedPlainEncoding(PlainEncoding):
    """Plain encoding with a zlib entropy stage on top."""

    name = "COMPRESSED_PLAIN"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        return zlib.compress(super().encode(values, facts), level=6)

    def trial(self, values: list, facts: BlockFacts) -> bytes:
        return self.encode(values, facts)

    def decode(self, data: bytes, count: int) -> list:
        return super().decode(inflate(data), count)


PLAIN = register(PlainEncoding())
COMPRESSED_PLAIN = register(CompressedPlainEncoding())
