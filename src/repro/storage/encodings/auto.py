"""AUTO encoding selection.

    Auto: The system automatically picks the most advantageous encoding
    type based on properties of the data itself.  This type is the
    default and is used when insufficient usage examples are known.
    (section 3.4.1)

Selection is *empirical*: every applicable concrete encoding is trial-
run on (a sample of) the block and the smallest output wins.  The
paper credits exactly this empirical approach for users essentially
never overriding the Database Designer's encoding choices
(section 6.3).  Where the output's size is arithmetic over the
block's statistics (PLAIN, RLE, DELTAVAL, BLOCK_DICT) the trial is that
arithmetic and builds nothing; a zlib-staged candidate is built and
compressed.  The winner is built once.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from operator import is_not

from ...errors import EncodingError
from ...monitor import METRICS
from ...types import FLOAT, INTEGER, VARCHAR, DataType
from .base import ENCODINGS, BlockFacts, Encoding, register
from .plain import PLAIN

#: Concrete encodings AUTO chooses among, in tie-break preference order
#: (structured encodings first: they keep operate-on-encoded-data
#: opportunities that an opaque zlib blob does not).
CANDIDATE_NAMES = (
    "RLE", "COMMONDELTA_COMP", "DELTARANGE_COMP", "DELTAVAL", "BLOCK_DICT",
    "COMPRESSED_PLAIN", "PLAIN",
)

#: Trial-encode at most this many values when choosing.
SAMPLE_SIZE = 4096


def _judge(dtype: DataType, sample: list) -> tuple[Encoding, bytes | int, BlockFacts]:
    """Trial-run every applicable candidate on ``sample``: the smallest
    wins, :data:`CANDIDATE_NAMES` order breaks ties, an empty sample
    gets PLAIN.  Returns the winner, what its trial gave (its exact size
    or, from a zlib stage, its payload) and the sample's facts."""
    facts = BlockFacts(sample)
    best, best_size, output = PLAIN, None, b""
    applicable = [
        encoding for encoding in map(ENCODINGS.__getitem__, CANDIDATE_NAMES)
        if sample and encoding.supports(dtype, sample, facts)
    ]
    METRICS.inc("storage.trial_encodes", len(applicable))
    for encoding in applicable:
        trial = encoding.trial(sample, facts)
        size = trial if isinstance(trial, int) else len(trial)
        if best_size is None or size < best_size:
            best, best_size, output = encoding, size, trial
    return best, output, facts


def encode_auto(dtype: DataType, values: list) -> tuple[Encoding, bytes]:
    """Judge the first :data:`SAMPLE_SIZE` of a block's non-NULL
    ``values`` and encode the block with the winner.  Returns the winner
    and the block's payload under it: built once, and the trial's own
    output when a zlib stage won on the whole block."""
    sample = values[:SAMPLE_SIZE]
    best, output, facts = _judge(dtype, sample)
    if len(sample) < len(values):
        return best, best.encode(values)
    if isinstance(output, int):
        return best, best.encode(values, facts)
    return best, output


def choose_encoding(dtype: DataType, values: list) -> Encoding:
    """The concrete encoding (never AUTO itself) AUTO picks for
    ``values`` of ``dtype``: judged, like a block, on the first
    :data:`SAMPLE_SIZE` of its non-NULL values, and never built."""
    sample = list(islice(filter(partial(is_not, None), values), SAMPLE_SIZE))
    return _judge(dtype, sample)[0]


class AutoEncoding(Encoding):
    """Per-block empirical chooser.

    Encodes with the best concrete encoding and prefixes a tag byte so
    decode knows which one was used.  The tag is the index into
    :data:`CANDIDATE_NAMES`.
    """

    name = "AUTO"

    def encode(self, values: list, facts: BlockFacts | None = None) -> bytes:
        # the values' own type; the block writer passes the declared one
        kinds = (facts or BlockFacts(values)).kinds
        dtype = INTEGER if kinds == {int} else FLOAT if kinds == {float} else VARCHAR
        chosen, payload = encode_auto(dtype, values)
        return bytes([CANDIDATE_NAMES.index(chosen.name)]) + payload

    def decode(self, data: bytes, count: int) -> list:
        if not data or data[0] >= len(CANDIDATE_NAMES):
            raise EncodingError("AUTO payload without a valid encoding tag")
        chosen = ENCODINGS[CANDIDATE_NAMES[data[0]]]
        return chosen.decode(data[1:], count)


AUTO = register(AutoEncoding())
