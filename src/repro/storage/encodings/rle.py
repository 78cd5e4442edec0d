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

from itertools import chain, repeat

from ...errors import EncodingError
from ..serde import CONTINUING, STRINGS, interleave, read_strings, read_uvarint, read_uvarints, read_value
from ..serde import record_sizes, unzigzags, uvarint_sizes, uvarints_size, write_uvarints, write_values
from .base import BlockFacts, Encoding, register


class RleEncoding(Encoding):
    """(value, run-length) pairs; applies to any type."""

    name = "RLE"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        facts = facts or BlockFacts(values)
        heads, lengths = facts.heads, facts.run_lengths
        out = bytearray()
        write_values(out, heads, facts.kinds)
        if facts.kinds == {str}:  # the heads as one block, then the lengths
            write_uvarints(out, lengths)
            return bytes(out)
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
        heads, lengths = self._heads_and_lengths(data, count)
        return list(chain.from_iterable(map(repeat, heads, lengths)))

    def iter_runs(self, data: bytes, count: int):
        """``(value, run_length)`` pairs without materializing rows.

        This is the hook that lets GroupBy and Scan operate directly on
        encoded data.
        """
        return zip(*self._heads_and_lengths(data, count))

    @staticmethod
    def _heads_and_lengths(data: bytes, count: int) -> tuple[list, list[int]]:
        """The run heads and the run lengths of ``count`` rows.  A block of
        integers (a tag, a value and a length per run, all varints) or of
        strings (their block, then the lengths) is read whole; others run by run."""
        if data[:1] == STRINGS:
            heads, offset = read_strings(data, 0)
            lengths, offset = read_uvarints(data, offset, len(heads))
            if sum(lengths) != count or offset != len(data):
                raise EncodingError("RLE runs disagree with the block")
            return heads, lengths
        if data[:1] == b"\x01":
            words, _ = read_uvarints(data, 0, len(data.translate(None, CONTINUING)))
            tags, lengths = words[0::3], words[2::3]
            if len(words) % 3 == 0 and tags.count(1) == len(tags) and sum(lengths) == count:
                return unzigzags(words[1::3]), lengths
        heads, lengths = [], []
        emitted = offset = 0
        while emitted < count:
            value, offset = read_value(data, offset)
            length, offset = read_uvarint(data, offset)
            heads.append(value)
            lengths.append(length)
            emitted += length
        return heads, lengths


RLE = register(RleEncoding())
