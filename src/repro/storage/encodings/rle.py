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

from ..serde import read_uvarint, read_value, write_uvarint, write_value
from .base import Encoding, register


class RleEncoding(Encoding):
    """(value, run-length) pairs; applies to any type."""

    name = "RLE"

    def encode(self, values: list) -> bytes:
        out = bytearray()
        index = 0
        total = len(values)
        while index < total:
            value = values[index]
            run = index + 1
            while run < total and values[run] == value:
                run += 1
            write_value(out, value)
            write_uvarint(out, run - index)
            index = run
        return bytes(out)

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

    @staticmethod
    def run_count(values: list) -> int:
        """Number of runs in ``values`` (the encoded size driver)."""
        runs = 0
        previous = object()
        for value in values:
            if value != previous:
                runs += 1
                previous = value
        return runs


RLE = register(RleEncoding())
