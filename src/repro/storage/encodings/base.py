"""Encoding interface and registry.

Each column in each projection has a specific encoding scheme
(section 3.4).  An :class:`Encoding` turns a block of non-NULL values
into bytes and back.  NULL handling lives one layer up (the block
writer strips NULLs into a presence bitmap before encoding), so
encodings only ever see concrete values.

Encodings are registered by name in :data:`ENCODINGS`; the ``AUTO``
pseudo-encoding picks the cheapest applicable one per column by
empirical trial (the same mechanism the Database Designer's storage
optimization phase uses, section 6.3): an exact size where arithmetic
over the block's :class:`BlockFacts` gives one, a built payload where
only a zlib stage can tell.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from itertools import compress, count, filterfalse
from operator import ne, sub

from ...errors import EncodingError
from ...types import DataType
from ..serde import values_size


class BlockFacts:
    """What the candidates ask about a block's non-NULL ``values``,
    each fact worked out once per block, on its first ask, and handed
    to every ``supports`` / ``trial`` / ``encode``.

    The closed-form candidates' sizes are arithmetic over these (run
    starts, the dictionary, the minimum, record sizes), so AUTO learns
    what PLAIN, RLE, DELTAVAL and BLOCK_DICT would write without
    writing it."""

    def __init__(self, values: list[object]):
        self.values = values
        #: The set of the values' types.
        self.kinds = kinds = set(map(type, values))
        #: Whether ``==`` tells the values apart exactly: one type and,
        #: for floats, no NaN (equal to nothing, itself included) and
        #: not both zeros (``-0.0 == 0.0``).
        self.exact = len(kinds) <= 1 and not (
            float in kinds
            and (
                any(map(ne, values, values))
                or len(set(map(repr, filterfalse(None, values)))) > 1
            )
        )
        #: PLAIN's bytes for the block, once something has built them.
        self.plain: bytes | None = None

    @cached_property
    def keys(self) -> list:
        """What runs and dictionary entries are found by: the values
        when ``==`` is exact, else tuples (value first) equal only if
        the values decode identically — a stored ``-0.0`` or ``True``
        must not come back as the ``0.0`` or ``1`` it is ``==`` to."""
        if self.exact:
            return self.values
        return [
            (v, type(v), object() if v != v else not v and repr(v))
            for v in self.values
        ]

    @cached_property
    def run_starts(self) -> list[int]:
        """The position of each run's first value: neighbours share a
        run only if they decode identically."""
        keys = self.keys
        if not keys:
            return []
        return [0, *compress(count(1), map(ne, keys[1:], keys))]

    @cached_property
    def heads(self) -> list:
        """The value each run repeats."""
        return list(map(self.values.__getitem__, self.run_starts))

    @cached_property
    def run_lengths(self) -> list[int]:
        """How many values each run holds."""
        starts = self.run_starts
        return list(map(sub, [*starts[1:], len(self.values)], starts))

    @cached_property
    def codes(self) -> dict:
        """The block's dictionary: each distinct key's code, by first
        appearance."""
        return dict(zip(dict.fromkeys(self.keys), count()))

    @cached_property
    def entries(self) -> list:
        """The dictionary's values, in code order."""
        return list(self.codes) if self.exact else [key[0] for key in self.codes]

    @cached_property
    def minimum(self):
        """The smallest value."""
        return min(self.values)

    @cached_property
    def plain_size(self) -> int:
        """The length of PLAIN's bytes for the block."""
        if self.plain is not None:
            return len(self.plain)
        return values_size(self.values, self.kinds)

    def records_size(self, values: list) -> int:
        """The length of PLAIN's records for ``values``, some of the
        block's own (its run heads, its dictionary entries)."""
        if len(values) == len(self.values):
            return self.plain_size
        return values_size(values, self.kinds)


class Encoding(ABC):
    """A reversible block codec for a list of non-NULL SQL values."""

    #: Registry / SQL name of the encoding (e.g. ``"RLE"``).
    name: str = ""

    @abstractmethod
    def encode(self, values: list[object], facts: BlockFacts | None = None) -> bytes:
        """Encode ``values`` (no NULLs) into a byte string (``facts``:
        theirs, when the caller already has them)."""

    @abstractmethod
    def decode(self, data: bytes, count: int) -> list[object]:
        """Decode ``count`` values from ``data``."""

    def trial(self, values: list[object], facts: BlockFacts) -> bytes | int:
        """What AUTO compares for ``values``: the exact length of their
        payload where arithmetic over ``facts`` gives it, else the
        payload itself (what a zlib stage makes of bytes is known only
        by running it)."""
        return self.encode(values, facts)

    def supports(
        self, dtype: DataType, values: list[object], facts: BlockFacts | None = None
    ) -> bool:
        """Whether this encoding can represent ``values`` of ``dtype``.

        Encodings with structural restrictions (integers only, must
        have few distinct values, ...) override this.  ``values`` may
        be a sample.
        """
        return True

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Encoding {self.name}>"


#: name -> Encoding instance, populated by :func:`register`.
ENCODINGS: dict[str, Encoding] = {}  # concurrency: immutable


def register(encoding: Encoding) -> Encoding:
    """Add ``encoding`` to the global registry (module-import time)."""
    if not encoding.name:
        raise EncodingError(f"{type(encoding).__name__} has no name")
    if encoding.name in ENCODINGS:
        raise EncodingError(f"duplicate encoding {encoding.name!r}")
    ENCODINGS[encoding.name] = encoding
    return encoding


def encoding_by_name(name: str) -> Encoding:
    """Look up a registered encoding by case-insensitive name."""
    try:
        return ENCODINGS[name.upper()]
    except KeyError:
        raise EncodingError(f"unknown encoding {name!r}") from None
