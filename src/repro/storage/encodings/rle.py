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

from itertools import groupby

from ..serde import read_uvarint, read_value, write_uvarint, write_value
from .base import BlockFacts, Encoding, register
from .plain import PLAIN


class RleEncoding(Encoding):
    """(value, run-length) pairs; applies to any type."""

    name = "RLE"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        return self._payload(self.runs(values, facts or BlockFacts(values)))

    def trial(self, values: list, facts: BlockFacts) -> bytes | int:
        runs = self.runs(values, facts)
        if len(runs) < len(values):
            return self._payload(runs)
        # no two neighbours alike: PLAIN's records, a length byte each
        return len(PLAIN.encode(values, facts)) + len(values)

    @staticmethod
    def _payload(runs: list) -> bytes:
        out = bytearray()
        for value, length in runs:
            write_value(out, value)
            write_uvarint(out, length)
        return bytes(out)

    @staticmethod
    def runs(values: list, facts: BlockFacts) -> list[tuple]:
        """``(value, run_length)`` pairs: neighbours share a run only if
        they decode identically (``-0.0`` ends a run of ``0.0``)."""
        grouped = groupby(facts.keys(values))
        runs = [(key, len(list(group))) for key, group in grouped]
        return runs if facts.exact else [(key[0], length) for key, length in runs]

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
