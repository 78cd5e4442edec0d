"""Physical storage layer: encodings, column files, ROS/WOS, deletes."""

from .block import BLOCK_ROWS, BlockInfo, decode_block, encode_block
from .column_file import ColumnReader, ColumnWriter, read_position_index
from .delete_vector import DeleteVector, combined_deletes
from .manager import (
    ProjectionStorage,
    QuarantinedContainer,
    ScavengeReport,
    StorageManager,
)
from .ros import EPOCH_COLUMN, ContainerMeta, HistoryRun, ROSContainer
from .wos import DEFAULT_WOS_CAPACITY, WriteOptimizedStore

__all__ = [
    "BLOCK_ROWS",
    "BlockInfo",
    "decode_block",
    "encode_block",
    "ColumnReader",
    "ColumnWriter",
    "read_position_index",
    "DeleteVector",
    "combined_deletes",
    "ProjectionStorage",
    "QuarantinedContainer",
    "ScavengeReport",
    "StorageManager",
    "EPOCH_COLUMN",
    "ContainerMeta",
    "HistoryRun",
    "ROSContainer",
    "DEFAULT_WOS_CAPACITY",
    "WriteOptimizedStore",
]
