"""Deterministic 64-bit hashing for segmentation.

Projection segmentation (section 3.6) maps each tuple to a node through
``HASH(col1..coln)`` evaluated into the ring ``[0, 2**64)``.  The hash
must be stable across processes and runs — Python's built-in ``hash``
is salted for strings, so we implement FNV-1a over a canonical byte
representation of each value.
"""

from __future__ import annotations

import struct

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

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
    """Canonical byte representation of a single SQL value."""
    if value is None:
        return b"\x00N"
    if isinstance(value, bool):
        return b"\x01T" if value else b"\x01F"
    if isinstance(value, int):
        return b"\x02" + value.to_bytes(8, "little", signed=True)
    if isinstance(value, float):
        return b"\x03" + struct.pack("<d", value)
    if isinstance(value, str):
        return b"\x04" + value.encode("utf-8")
    raise TypeError(f"unhashable SQL value {value!r}")


def exact_keys(values: list) -> list:
    """A memo key per value, equal exactly when the values' canonical
    bytes are: ``-0.0`` / ``0.0`` and ``1`` / ``True`` / ``1.0`` are
    ``==`` yet hash apart, so a hash memo cannot be keyed by value.
    A column of one non-float type keys itself, floats key by their
    bit patterns, anything else (a NULL, mixed types) by its bytes."""
    kinds = set(map(type, values))
    if kinds in ({str}, {int}, {bool}):
        return values
    if kinds == {float}:
        count = len(values)
        return list(struct.unpack(f"<{count}q", struct.pack(f"<{count}d", *values)))
    return list(map(_value_bytes, values))


def hash_value(value) -> int:
    """Hash a single SQL value into the segmentation ring."""
    return fnv1a_64(_value_bytes(value))


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
