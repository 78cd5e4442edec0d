"""Encoding interface and registry.

Each column in each projection has a specific encoding scheme
(section 3.4).  An :class:`Encoding` turns a block of non-NULL values
into bytes and back.  NULL handling lives one layer up (the block
writer strips NULLs into a presence bitmap before encoding), so
encodings only ever see concrete values.

Encodings are registered by name in :data:`ENCODINGS`; the ``AUTO``
pseudo-encoding picks the cheapest applicable one per column by
empirical trial (the same mechanism the Database Designer's storage
optimization phase uses, section 6.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import filterfalse
from operator import ne

from ...errors import EncodingError
from ...types import DataType


class BlockFacts:
    """What every candidate asks about a block's non-NULL values,
    answered once per block and handed to each ``supports`` / ``encode``."""

    __slots__ = ("kinds", "exact", "plain")

    def __init__(self, values: list[object]):
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

    def keys(self, values: list[object]) -> list:
        """What runs and dictionary entries are found by: the values
        when ``==`` is exact, else tuples (value first) equal only if
        the values decode identically — a stored ``-0.0`` or ``True``
        must not come back as the ``0.0`` or ``1`` it is ``==`` to."""
        if self.exact:
            return values
        return [(v, type(v), object() if v != v else not v and repr(v)) for v in values]


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
        """What AUTO compares: the payload of ``values`` — or, where
        arithmetic shows it larger than PLAIN's, a size it is at least."""
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
