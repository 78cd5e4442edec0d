"""The columnar data storage yields and execution computes over, shared
by both: :mod:`.vectors` (one column of a block, kept encoded, and
:func:`~.vectors.seek`), :mod:`.selection` (the rows of a block kept)
and :mod:`.row_block` (:class:`~.row_block.RowBlock`, the batch a scan
yields and every operator passes on)."""

from .row_block import VECTOR_SIZE, RowBlock, blocks_to_rows
from .selection import Selection
from .vectors import ColumnVector, DictVector, PlainVector, RleVector, as_list

__all__ = [
    "VECTOR_SIZE",
    "RowBlock",
    "blocks_to_rows",
    "Selection",
    "ColumnVector",
    "DictVector",
    "PlainVector",
    "RleVector",
    "as_list",
]
