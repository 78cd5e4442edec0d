"""Column encodings (paper section 3.4).

Importing this package registers all encodings:

* ``PLAIN`` / ``COMPRESSED_PLAIN`` — fallback storage (+ zlib stage)
* ``RLE`` — run-length, for sorted low-cardinality columns
* ``DELTAVAL`` — offset from block minimum, unsorted integers
* ``BLOCK_DICT`` — block-local dictionary, few-valued columns
* ``DELTARANGE_COMP`` — delta-from-previous + zlib, floats / ranges
* ``COMMONDELTA_COMP`` — delta dictionary + entropy coding, periodic data
* ``AUTO`` — empirical per-block chooser
"""

from .base import ENCODINGS, BlockFacts, Encoding, encoding_by_name, register
from .plain import COMPRESSED_PLAIN, PLAIN, CompressedPlainEncoding, PlainEncoding
from .rle import RLE, RleEncoding
from .delta import DELTAVAL, DeltaValueEncoding
from .dictionary import BLOCK_DICT, BlockDictionaryEncoding
from .delta_range import DELTARANGE_COMP, CompressedDeltaRangeEncoding
from .common_delta import COMMONDELTA_COMP, CompressedCommonDeltaEncoding
from .auto import AUTO, SAMPLE_SIZE, AutoEncoding, choose_encoding, encode_auto

__all__ = [
    "ENCODINGS",
    "Encoding",
    "encoding_by_name",
    "register",
    "PLAIN",
    "COMPRESSED_PLAIN",
    "PlainEncoding",
    "CompressedPlainEncoding",
    "RLE",
    "RleEncoding",
    "DELTAVAL",
    "DeltaValueEncoding",
    "BLOCK_DICT",
    "BlockDictionaryEncoding",
    "DELTARANGE_COMP",
    "CompressedDeltaRangeEncoding",
    "COMMONDELTA_COMP",
    "CompressedCommonDeltaEncoding",
    "AUTO",
    "AutoEncoding",
    "choose_encoding",
    "SAMPLE_SIZE",
]
