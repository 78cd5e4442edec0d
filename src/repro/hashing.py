"""Deterministic 64-bit hashing for segmentation.

Projection segmentation (section 3.6) maps each tuple to a node through
``HASH(col1..coln)`` evaluated into the ring ``[0, 2**64)``.  The hash
must be stable across processes and runs — Python's built-in ``hash``
is salted for strings, so we implement FNV-1a over a canonical byte
representation of each value.

Values that compare equal hash equally: a ``bool`` and an integral
``float`` within int64 hash as the ``int`` they equal (``-0.0`` as
``0``), so an INTEGER key and a FLOAT key holding the same number land
on the same node, and a memo of positions may be keyed by value.
"""

from __future__ import annotations

import struct

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63

#: Size of the segmentation ring: hash values lie in ``[0, RING_SIZE)``.
RING_SIZE = 1 << 64


def fnv1a_64(data: bytes) -> int:
    """FNV-1a hash of ``data`` into ``[0, 2**64)``."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _value_bytes(value) -> bytes:
    """Canonical byte representation of a single SQL value; equal
    values get equal bytes."""
    if value is None:
        return b"\x00N"
    if isinstance(value, str):
        return b"\x04" + value.encode("utf-8")
    if isinstance(value, float):
        if not (value.is_integer() and _INT64_MIN <= value < _INT64_END):
            return b"\x03" + struct.pack("<d", value)
        value = int(value)
    if isinstance(value, int):  # a bool is the int it equals
        return b"\x02" + value.to_bytes(8, "little", signed=True)
    raise TypeError(f"unhashable SQL value {value!r}")


def hash_row(values) -> int:
    """Hash a tuple of SQL values into the segmentation ring.

    This is the ``HASH(col1..coln)`` of the paper: values are combined
    in order with a separator so ``(1, 23)`` and ``(12, 3)`` differ.
    """
    parts = bytearray()
    for value in values:
        part = _value_bytes(value)
        parts += len(part).to_bytes(4, "little")
        parts += part
    return fnv1a_64(bytes(parts))
