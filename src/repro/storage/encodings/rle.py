"""Run-length encoding.

    RLE: Replaces sequences of identical values with a single pair that
    contains the value and number of occurrences.  This type is best
    for low cardinality columns that are sorted.  (section 3.4.1)

RLE is the encoding that makes sorted projections so effective: the
paper's meter-data experiment (section 8.2.2) compresses a few-hundred-
value ``metric`` column of 200M rows to 5 KB because, sorted, it is a
few hundred runs.  The execution engine can also aggregate directly on
runs without expanding them (section 6.1), which
:meth:`RleEncoding.iter_runs` supports.
"""

from __future__ import annotations

from ..serde import interleave, read_uvarint, read_value, record_sizes
from ..serde import uvarint_sizes, uvarints_size, write_uvarints, write_values
from .base import BlockFacts, Encoding, register


class RleEncoding(Encoding):
    """(value, run-length) pairs; applies to any type."""

    name = "RLE"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        facts = facts or BlockFacts(values)
        heads, lengths = facts.heads, facts.run_lengths
        out = bytearray()
        write_values(out, heads, facts.kinds)
        records = bytes(out)
        out.clear()
        write_uvarints(out, lengths)
        return interleave(
            records, record_sizes(heads, facts.kinds), bytes(out), uvarint_sizes(lengths)
        )

    def trial(self, values: list, facts: BlockFacts) -> int:
        # a record per run head, a varint per run length
        return facts.records_size(facts.heads) + uvarints_size(facts.run_lengths)

    @staticmethod
    def runs(values: list, facts: BlockFacts) -> list[tuple]:
        """``(value, run_length)`` pairs: neighbours share a run only if
        they decode identically (``-0.0`` ends a run of ``0.0``)."""
        return list(zip(facts.heads, facts.run_lengths))

    def decode(self, data: bytes, count: int) -> list:
        values: list = []
        for value, length in self.iter_runs(data, count):
            values.extend([value] * length)
        return values

    def iter_runs(self, data: bytes, count: int):
        """Yield ``(value, run_length)`` pairs without materializing rows.

        This is the hook that lets GroupBy and Scan operate directly on
        encoded data.
        """
        emitted = 0
        offset = 0
        while emitted < count:
            value, offset = read_value(data, offset)
            length, offset = read_uvarint(data, offset)
            emitted += length
            yield value, length


RLE = register(RleEncoding())
