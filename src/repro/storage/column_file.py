"""Column files: one data file + one position index per column.

    Vertica stores two files per column within a ROS container: one
    with the actual column data, and one with a position index. [...]
    Data is identified within each ROS container by a position which is
    simply its ordinal position within the file.  Positions are
    implicit and are never stored explicitly.  (section 3.7)

:class:`ColumnWriter` produces the two byte streams; :class:`ColumnReader`
serves a column — a column file's, or a row-grouped column's decoded
values — block by block: values or encoded vectors by position, and
position ranges pruned by the index's min/max, so fetching position *p*
("fast tuple reconstruction") touches one block, never the whole file.
"""

from __future__ import annotations

from ..columnar.selection import Selection
from ..columnar.vectors import DictVector, PlainVector, RleVector
from ..errors import CorruptContainerError, StorageError
from ..monitor import METRICS
from ..types import DataType
from .block import BLOCK_ROWS, BlockInfo, decode_block, encode_block, value_bounds
from .encodings import Encoding, encoding_by_name
from .serde import read_uvarint, write_uvarint


class ColumnWriter:
    """Accumulates values and serializes them into (data, index) bytes."""

    def __init__(
        self,
        dtype: DataType,
        encoding: str | None = "AUTO",
        block_rows: int = BLOCK_ROWS,
    ):
        self.dtype = dtype
        self.block_rows = block_rows
        if encoding is None or encoding.upper() == "AUTO":
            self._encoding: Encoding | None = None
        else:
            self._encoding = encoding_by_name(encoding)
        self._pending: list = []
        self._data = bytearray()
        self._infos: list[BlockInfo] = []
        self._row_count = 0

    def append(self, value) -> None:
        """Add one value (may be None) to the column."""
        self._pending.append(value)
        if len(self._pending) >= self.block_rows:
            self._flush_block()

    def extend(self, values) -> None:
        """Add many values to the column: every full block is cut from
        them as one slice, the rest waits for more (or ``finish``)."""
        pending = self._pending
        pending.extend(values)
        full = len(pending) - len(pending) % self.block_rows
        for start in range(0, full, self.block_rows):
            self._encode(pending[start : start + self.block_rows])
        self._pending = pending[full:]

    def _flush_block(self) -> None:
        if self._pending:
            self._encode(self._pending)
            self._pending = []

    def _encode(self, values: list) -> None:
        payload, info = encode_block(
            values,
            self.dtype,
            self._encoding,
            start_position=self._row_count,
            file_offset=len(self._data),
        )
        self._data += payload
        self._infos.append(info)
        self._row_count += len(values)

    def finish(self) -> tuple[bytes, bytes]:
        """Flush and return ``(data_bytes, position_index_bytes)``."""
        self._flush_block()
        index = bytearray()
        write_uvarint(index, len(self._infos))
        for info in self._infos:
            info.serialize(index)
        return bytes(self._data), bytes(index)

    @property
    def row_count(self) -> int:
        """Rows appended so far (including buffered ones)."""
        return self._row_count + len(self._pending)


def read_position_index(index_bytes: bytes) -> list[BlockInfo]:
    """Parse a position index byte stream into its block entries.

    Raises :class:`CorruptContainerError` on a structurally damaged
    index (torn or corrupted ``.pidx``) instead of letting arbitrary
    decode exceptions escape — the scavenger relies on this to
    quarantine rather than crash.
    """
    try:
        count, offset = read_uvarint(index_bytes, 0)
        if count > len(index_bytes):
            # every serialized BlockInfo takes at least one byte, so a
            # count beyond the stream length is garbage, not data.
            raise StorageError(f"position index claims {count} blocks")
        infos = []
        for _ in range(count):
            info, offset = BlockInfo.deserialize(index_bytes, offset)
            infos.append(info)
    except CorruptContainerError:
        raise
    except Exception as exc:
        raise CorruptContainerError(
            f"unparseable position index: {exc}"
        ) from exc
    return infos


class ColumnReader:
    """Positional access to an encoded column.

    Holds the raw data bytes and the parsed position index; decoded
    blocks are cached (most access patterns are sequential or touch a
    few hot blocks).
    """

    def __init__(self, data: bytes, index_bytes: bytes):
        self._data = data
        self.blocks = read_position_index(index_bytes)
        self._cache: dict[int, list] = {}
        self._vector_cache: dict[int, object] = {}
        self.row_count = self.blocks[-1].end_position if self.blocks else 0

    @classmethod
    def of_values(cls, values: list, cuts: list[BlockInfo]) -> "ColumnReader":
        """A reader over a column already decoded (a row-grouped one),
        cut where the blocks ``cuts`` are: each block PLAIN and cached,
        its min/max the values' own (:func:`value_bounds`)."""
        reader = cls(b"", b"\x00")  # no bytes, no blocks
        for index, cut in enumerate(cuts):
            first, count = cut.start_position, cut.row_count
            block = reader._cache[index] = values[first : first + count]
            non_nulls = [value for value in block if value is not None]
            bounds = value_bounds(non_nulls)
            nulls = count - len(non_nulls)
            reader.blocks.append(BlockInfo(first, count, nulls, "PLAIN", 0, 0, *bounds))
        reader.row_count = len(values)
        return reader

    def block_values(self, block_index: int) -> list:
        """Decode (with caching) the values of one block."""
        cached = self._cache.get(block_index)
        if cached is None:
            info = self.blocks[block_index]
            payload = self._data[info.offset : info.offset + info.length]
            cached = decode_block(payload, info)
            self._cache[block_index] = cached
            METRICS.inc("storage.blocks_decoded")
            METRICS.inc("storage.bytes_decoded", info.length)
            METRICS.inc(f"storage.bytes_decoded.{info.encoding}", info.length)
        return cached

    def block_vector(self, block_index: int):
        """The block as a :class:`ColumnVector`, preserving encoding.

        RLE blocks surface their runs and BLOCK_DICT blocks their
        (entries, codes) pair *without decoding to values* — the
        operate-on-compressed feed for execution kernels.  Blocks with
        NULLs decode plain (the presence bitmap's positions do not line
        up with run/code positions), as does every other encoding.
        """
        cached = self._vector_cache.get(block_index)
        if cached is None:
            info = self.blocks[block_index]
            if info.null_count == 0 and info.encoding in ("RLE", "BLOCK_DICT"):
                payload = self._data[info.offset : info.offset + info.length]
                encoding = encoding_by_name(info.encoding)
                if info.encoding == "RLE":
                    runs = list(encoding.iter_runs(payload, info.row_count))
                    cached = RleVector(runs, info.row_count)
                else:
                    entries, codes = encoding.decode_parts(
                        payload, info.row_count
                    )
                    cached = DictVector(codes, entries)
                METRICS.inc("storage.blocks_vectorized")
            else:
                cached = PlainVector(
                    self.block_values(block_index), info.null_count
                )
            self._vector_cache[block_index] = cached
        return cached

    def vector_for_range(self, block_index: int, start: int, end: int):
        """``block_vector`` trimmed to absolute positions [start, end)."""
        info = self.blocks[block_index]
        vector = self.block_vector(block_index)
        lo = max(start - info.start_position, 0)
        hi = min(end - info.start_position, info.row_count)
        if lo == 0 and hi == info.row_count:
            return vector
        return Selection.from_ranges([(lo, hi)], info.row_count).apply(vector)

    def read_all(self) -> list:
        """Decode the entire column in position order."""
        values: list = []
        for index in range(len(self.blocks)):
            values.extend(self.block_values(index))
        return values

    def block_index(self, position: int) -> int:
        """Index of the block holding ``position``."""
        low, high = 0, len(self.blocks) - 1
        while low <= high:
            mid = (low + high) // 2
            info = self.blocks[mid]
            if position < info.start_position:
                high = mid - 1
            elif position >= info.end_position:
                low = mid + 1
            else:
                return mid
        raise StorageError(f"position {position} out of range 0..{self.row_count}")

    def get(self, position: int):
        """Value at an ordinal position (the tuple-reconstruction path)."""
        block_index = self.block_index(position)
        info = self.blocks[block_index]
        return self.block_values(block_index)[position - info.start_position]

    def position_range_for(self, low, high) -> tuple[int, int, int]:
        """Smallest [start, end) position range covering all blocks
        that may hold values in [low, high] — pure metadata, no decode —
        and how many blocks the metadata excluded.

        The first step of the container walk: on a sorted column a
        range predicate maps to a contiguous run of blocks.  The caller
        counts the excluded blocks (``storage.blocks_pruned``).
        """
        start = None
        end = 0
        pruned = 0
        for info in self.blocks:
            if info.may_contain(low, high) or info.null_count:
                if start is None:
                    start = info.start_position
                end = info.end_position
            else:
                pruned += 1
        if start is None:
            return 0, 0, pruned
        return start, end, pruned

    def read_range(self, start: int, end: int) -> list:
        """Decode only positions [start, end) (block-aligned reads)."""
        if start >= end:
            return []
        values: list = []
        for index, info in enumerate(self.blocks):
            if info.end_position <= start:
                continue
            if info.start_position >= end:
                break
            block_values = self.block_values(index)
            lo = max(start - info.start_position, 0)
            hi = min(end - info.start_position, info.row_count)
            values.extend(block_values[lo:hi])
        return values

    def min_value(self):
        """Column-level minimum from block metadata (no decode)."""
        mins = [b.min_value for b in self.blocks if b.min_value is not None]
        return min(mins) if mins else None

    def max_value(self):
        """Column-level maximum from block metadata (no decode)."""
        maxes = [b.max_value for b in self.blocks if b.max_value is not None]
        return max(maxes) if maxes else None

    @property
    def data_size(self) -> int:
        """Size in bytes of the encoded column data."""
        return len(self._data)
