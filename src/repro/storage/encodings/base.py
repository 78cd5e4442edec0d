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

from ...errors import EncodingError
from ...types import DataType


class Encoding(ABC):
    """A reversible block codec for a list of non-NULL SQL values."""

    #: Registry / SQL name of the encoding (e.g. ``"RLE"``).
    name: str = ""

    @abstractmethod
    def encode(self, values: list[object]) -> bytes:
        """Encode ``values`` (no NULLs) into a byte string."""

    @abstractmethod
    def decode(self, data: bytes, count: int) -> list[object]:
        """Decode ``count`` values from ``data``."""

    def supports(self, dtype: DataType, values: list[object]) -> bool:
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


def values_are_integral(values: list[object]) -> bool:
    """True when every value is an int (and not a bool)."""
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def values_are_float(values: list[object]) -> bool:
    """True when every value is a float."""
    return all(isinstance(v, float) for v in values)
