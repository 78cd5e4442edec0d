"""The write path as it was before a run became columns — the oracle
the byte-identity property holds the product to.

Everything here is value-at-a-time and row-at-a-time, as the product
was up to PR 21: encoders that loop over values calling the scalar
``serde`` writers, a chooser that trial-encodes every candidate and
then encodes the winner *again*, a column writer that appends one value
at a time, a container writer that reads ``row[name]`` per row and
column, ``write_run`` grouping rows by hashing each one and sorting with
a key tuple per row, and mergeout as a ``heapq.merge`` of row records.
One thing differs from that parent, as it does in the product: RLE
runs and dictionary entries are told apart type-exactly (``-0.0`` is
not ``0.0``, NaN is nothing's equal), so only a block holding both
zeros encodes differently from what the parent wrote.

Unchanged product pieces are reused: the scalar ``serde`` functions,
``BlockInfo``, ``ContainerMeta``, ``fsio`` and ``plan_merges``.
"""

from __future__ import annotations

import heapq
import os
import struct
import zlib

from repro.hashing import hash_row
from repro.projections import HashSegmentation
from repro.storage import fsio
from repro.storage.block import BLOCK_ROWS, BlockInfo, value_bounds
from repro.storage.ros import ContainerMeta
from repro.storage.serde import (
    bit_width_for,
    pack_bits,
    write_svarint,
    write_uvarint,
    write_value,
)
from repro.tuple_mover.strata import plan_merges
from repro.types import INTEGER
from storage_helpers import partition_key_of

CANDIDATE_NAMES = (
    "RLE",
    "COMMONDELTA_COMP",
    "DELTARANGE_COMP",
    "DELTAVAL",
    "BLOCK_DICT",
    "COMPRESSED_PLAIN",
    "PLAIN",
)
SAMPLE_SIZE = 4096


# -- encoders, one value at a time --------------------------------------


def _identical(a, b) -> bool:
    """Whether two values decode to the same thing."""
    return a == b and type(a) is type(b) and repr(a) == repr(b)


def encode_plain(values: list) -> bytes:
    out = bytearray()
    for value in values:
        write_value(out, value)
    return bytes(out)


def encode_compressed_plain(values: list) -> bytes:
    return zlib.compress(encode_plain(values), level=6)


def encode_rle(values: list) -> bytes:
    out = bytearray()
    index = 0
    total = len(values)
    while index < total:
        value = values[index]
        run = index + 1
        while run < total and _identical(values[run], value):
            run += 1
        write_value(out, value)
        write_uvarint(out, run - index)
        index = run
    return bytes(out)


def encode_deltaval(values: list) -> bytes:
    out = bytearray()
    if not values:
        return bytes(out)
    minimum = min(values)
    write_svarint(out, minimum)
    for value in values:
        write_uvarint(out, value - minimum)
    return bytes(out)


def encode_block_dict(values: list) -> bytes:
    codes = []
    dictionary: dict = {}
    entries: list = []
    for value in values:
        # a NaN is nothing's equal: every one gets its own entry
        key = object() if value != value else (type(value), repr(value))
        code = dictionary.get(key)
        if code is None:
            code = len(entries)
            dictionary[key] = code
            entries.append(value)
        codes.append(code)
    out = bytearray()
    write_uvarint(out, len(entries))
    for entry in entries:
        write_value(out, entry)
    width = bit_width_for(max(len(entries) - 1, 0))
    write_uvarint(out, width)
    out += pack_bits(codes, width)
    return bytes(out)


def _float_to_ordered_int(value: float) -> int:
    raw = struct.unpack("<q", struct.pack("<d", value))[0]
    return raw if raw >= 0 else raw ^ 0x7FFFFFFFFFFFFFFF


def encode_deltarange(values: list) -> bytes:
    out = bytearray()
    if values and isinstance(values[0], float):
        out.append(1)
        stream = (_float_to_ordered_int(value) for value in values)
    else:
        out.append(0)
        stream = iter(values)
    previous = 0
    for value in stream:
        write_svarint(out, value - previous)
        previous = value
    return zlib.compress(bytes(out), level=6)


def encode_commondelta(values: list) -> bytes:
    out = bytearray()
    write_svarint(out, values[0] if values else 0)
    deltas = [values[i] - values[i - 1] for i in range(1, len(values))]
    dictionary: dict[int, int] = {}
    entries: list[int] = []
    codes = []
    for delta in deltas:
        code = dictionary.get(delta)
        if code is None:
            code = len(entries)
            dictionary[delta] = code
            entries.append(delta)
        codes.append(code)
    write_uvarint(out, len(entries))
    for entry in entries:
        write_svarint(out, entry)
    width = bit_width_for(max(len(entries) - 1, 0))
    write_uvarint(out, width)
    out += pack_bits(codes, width)
    return zlib.compress(bytes(out), level=6)


ENCODERS = {
    "PLAIN": encode_plain,
    "COMPRESSED_PLAIN": encode_compressed_plain,
    "RLE": encode_rle,
    "DELTAVAL": encode_deltaval,
    "BLOCK_DICT": encode_block_dict,
    "DELTARANGE_COMP": encode_deltarange,
    "COMMONDELTA_COMP": encode_commondelta,
}


def _integral(values: list) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def supports(name: str, dtype, values: list) -> bool:
    """The candidates' applicability rules, each scanning the sample."""
    if name in ("DELTAVAL", "COMMONDELTA_COMP"):
        return dtype.integral and _integral(values)
    if name == "DELTARANGE_COMP":
        if dtype.integral:
            return _integral(values)
        return all(isinstance(v, float) for v in values) or _integral(values)
    if name == "BLOCK_DICT":
        return len(set(values[:4097])) <= 4096
    return True


def choose_encoding(dtype, values: list) -> str:
    """Smallest trial output over the sample; every trial is thrown away."""
    sample = [v for v in values[:SAMPLE_SIZE] if v is not None]
    if not sample:
        return "PLAIN"
    best = "PLAIN"
    best_size = None
    for name in CANDIDATE_NAMES:
        if not supports(name, dtype, sample):
            continue
        size = len(ENCODERS[name](sample))
        if best_size is None or size < best_size:
            best = name
            best_size = size
    return best


# -- blocks and column files ---------------------------------------------


def encode_block(values, dtype, encoding, start_position, file_offset):
    non_nulls = [value for value in values if value is not None]
    null_count = len(values) - len(non_nulls)
    if encoding is None:
        encoding = choose_encoding(dtype, non_nulls)
    payload = ENCODERS[encoding](non_nulls)
    if null_count:
        bitmap = bytearray((len(values) + 7) // 8)
        for index, value in enumerate(values):
            if value is not None:
                bitmap[index >> 3] |= 1 << (index & 7)
        payload = bytes(bitmap) + payload
    min_value, max_value = value_bounds(non_nulls)
    info = BlockInfo(
        start_position=start_position,
        row_count=len(values),
        null_count=null_count,
        encoding=encoding,
        offset=file_offset,
        length=len(payload),
        min_value=min_value,
        max_value=max_value,
    )
    return payload, info


class ColumnWriter:
    """One value at a time; a block is flushed when it fills."""

    def __init__(self, dtype, encoding="AUTO", block_rows=BLOCK_ROWS):
        self.dtype = dtype
        self.block_rows = block_rows
        auto = encoding is None or encoding.upper() == "AUTO"
        self._encoding = None if auto else encoding.upper()
        self._pending: list = []
        self._data = bytearray()
        self._infos: list[BlockInfo] = []
        self._row_count = 0

    def append(self, value) -> None:
        self._pending.append(value)
        if len(self._pending) >= self.block_rows:
            self._flush_block()

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def _flush_block(self) -> None:
        if not self._pending:
            return
        payload, info = encode_block(
            self._pending, self.dtype, self._encoding,
            start_position=self._row_count, file_offset=len(self._data),
        )
        self._data += payload
        self._infos.append(info)
        self._row_count += len(self._pending)
        self._pending = []

    def finish(self) -> tuple[bytes, bytes]:
        self._flush_block()
        index = bytearray()
        write_uvarint(index, len(self._infos))
        for info in self._infos:
            info.serialize(index)
        return bytes(self._data), bytes(index)


# -- containers and delete vectors -----------------------------------------


def write_container(
    path, container_id, projection, rows, epochs,
    partition_key=None, local_segment=0, column_groups=None, merged_from=None,
) -> None:
    """The container directory ``ROSContainer.write`` publishes, built
    from row dicts."""
    keys = [projection.sort_key_for(row) for row in rows]
    assert not any(keys[i] > keys[i + 1] for i in range(len(keys) - 1))
    os.makedirs(path)
    checksums: dict[str, int] = {}

    def column_files(name, writer):
        data, index = writer.finish()
        for suffix, payload in ((".dat", data), (".pidx", index)):
            checksums[name + suffix] = fsio.write_bytes(
                os.path.join(path, name + suffix), payload
            )

    column_groups = column_groups or []
    grouped = {name for group in column_groups for name in group}
    for column in projection.columns:
        if column.name in grouped:
            continue
        writer = ColumnWriter(column.dtype, column.encoding)
        writer.extend(row[column.name] for row in rows)
        column_files(column.name, writer)
    for index, group in enumerate(column_groups):
        out = bytearray()
        for row in rows:
            for name in group:
                write_value(out, row[name])
        checksums[f"_group{index}.dat"] = fsio.write_bytes(
            os.path.join(path, f"_group{index}.dat"), bytes(out)
        )
    epoch_writer = ColumnWriter(INTEGER, "RLE")
    epoch_writer.extend(epochs)
    column_files("_epoch", epoch_writer)
    meta = ContainerMeta(
        container_id=container_id,
        projection=projection.name,
        row_count=len(rows),
        partition_key=partition_key,
        local_segment=local_segment,
        min_epoch=min(epochs) if epochs else 0,
        max_epoch=max(epochs) if epochs else 0,
        columns=[column.name for column in projection.columns],
        column_groups=column_groups,
        checksums=checksums,
        merged_from=sorted(merged_from or []),
    )
    fsio.write_json(os.path.join(path, "meta.json"), meta.to_json())


def write_delete_vector(path, container_id, positions, epochs) -> None:
    """The DVROS directory ``DeleteVector.write`` publishes."""
    os.makedirs(path)
    crcs = []
    for name, encoding, values in (
        ("positions", "COMMONDELTA_COMP", positions),
        ("epochs", "RLE", epochs),
    ):
        writer = ColumnWriter(INTEGER, encoding)
        writer.extend(values)
        data, index = writer.finish()
        crcs.append(fsio.write_bytes(os.path.join(path, f"{name}.dat"), data))
        crcs.append(fsio.write_bytes(os.path.join(path, f"{name}.pidx"), index))
    fsio.write_text(
        os.path.join(path, "target.txt"),
        " ".join([str(container_id), *(f"{crc:08x}" for crc in crcs)]),
    )


class ReferenceStorage:
    """One projection copy on one node, written row by row: what
    ``StorageManager.load_history`` and ``TupleMover.mergeout`` leave
    under ``<root>/<projection>/``."""

    def __init__(self, root, table, projection, node_count=1, segments_per_node=1):
        self.directory = os.path.join(root, projection.name)
        os.makedirs(self.directory)
        self.table = table
        self.projection = projection
        self.node_count = node_count
        self.segments_per_node = segments_per_node
        self.next_container_id = 1
        self.dv_seq = 0
        #: container id -> (records, partition key, local segment)
        self.containers: dict[int, tuple] = {}

    def _local_segment_of(self, row) -> int:
        scheme = self.projection.segmentation
        if self.segments_per_node <= 1 or not isinstance(scheme, HashSegmentation):
            return 0
        position = hash_row([row[column] for column in scheme.columns])
        return scheme.local_segment_for_position(
            position, self.node_count, self.segments_per_node
        )

    def _add_container(self, records, partition_key, local_segment, merged_from=None):
        container_id = self.next_container_id
        self.next_container_id += 1
        deleted = [p for p, record in enumerate(records) if record[2] is not None]
        if deleted:
            write_delete_vector(
                os.path.join(
                    self.directory, f"dv_{container_id:06d}_{self.dv_seq:06d}"
                ),
                container_id, deleted, [records[p][2] for p in deleted],
            )
            self.dv_seq += 1
        write_container(
            os.path.join(self.directory, f"ros_{container_id:06d}"),
            container_id, self.projection,
            [row for row, _, _ in records], [epoch for _, epoch, _ in records],
            partition_key=partition_key, local_segment=local_segment,
            merged_from=merged_from,
        )
        self.containers[container_id] = (records, partition_key, local_segment)
        return container_id

    def load_history(self, records) -> list[int]:
        groups: dict[tuple, list[int]] = {}
        for index, (row, _, _) in enumerate(records):
            key = (partition_key_of(self.table, row), self._local_segment_of(row))
            groups.setdefault(key, []).append(index)
        created = []
        for (partition_key, local_segment), indexes in sorted(
            groups.items(), key=lambda item: repr(item[0])
        ):
            ordered = sorted(
                indexes, key=lambda i: self.projection.sort_key_for(records[i][0])
            )
            created.append(
                self._add_container(
                    [records[i] for i in ordered], partition_key, local_segment
                )
            )
        return created

    def _size_bytes(self, container_id) -> int:
        path = os.path.join(self.directory, f"ros_{container_id:06d}")
        return sum(
            os.path.getsize(os.path.join(path, entry))
            for entry in os.listdir(path)
            if entry != "meta.json"
        )

    def _remove(self, container_id) -> None:
        import shutil

        del self.containers[container_id]
        shutil.rmtree(os.path.join(self.directory, f"ros_{container_id:06d}"))
        for entry in os.listdir(self.directory):
            if entry.startswith(f"dv_{container_id:06d}_"):
                shutil.rmtree(os.path.join(self.directory, entry))

    def mergeout(self, policy, ahm=0) -> list[int]:
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for container_id, (_, partition_key, local_segment) in self.containers.items():
            groups.setdefault((repr(partition_key), local_segment), []).append(
                (container_id, self._size_bytes(container_id))
            )
        created = []
        for key in sorted(groups):
            for merge_ids in plan_merges(groups[key], policy):
                _, partition_key, local_segment = self.containers[merge_ids[0]]
                merged = [
                    record
                    for record in heapq.merge(
                        *(self.containers[cid][0] for cid in merge_ids),
                        key=lambda record: self.projection.sort_key_for(record[0]),
                    )
                    if record[2] is None or record[2] > ahm
                ]
                created.append(
                    self._add_container(
                        merged, partition_key, local_segment, merged_from=merge_ids
                    )
                )
                for container_id in merge_ids:
                    self._remove(container_id)
        return created
