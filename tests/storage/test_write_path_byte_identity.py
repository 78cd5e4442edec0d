"""Same bytes: the columnar write path against the row-at-a-time one.

The product writes a container from a columnar history run — one pivot,
a permutation sort over key columns, bulk encoders, the winning trial's
payload kept — and merges containers with one stable sort.  The parent
of that change did all of it a row and a value at a time; that code
lives on in ``tests/reference_writer.py`` and this module holds the two
to **byte-identical** output: every ``.dat`` / ``.pidx`` / ``_group*.dat``
/ ``meta.json`` / DVROS file, the container split and the container ids,
after a load and again after a mergeout.

Runs are generated from a drawn *shape* (seed, row count, cardinality,
NULL rate, ...) rather than value by value, so an example of three
blocks costs what its two writers cost and nothing else.  Columns
cover INTEGER (negatives, beyond 2**63), FLOAT (NaN, infinities, both
zeros), VARCHAR (empty, non-ASCII), BOOLEAN, NULLs anywhere and
all-NULL blocks; encodings are explicit or AUTO; tables partitioned or
not; with and without delete markers, local segments and column groups.
The FLOAT column is the last sort column, so NULLs sort before and NaNs
after its numbers in both writers; every NaN is its own object, as
parsed or decoded ones are (two references to one NaN object are
``==``-by-identity to Python's containers, which no stored value can
be).

Four planted mutations of the product each fail the property; they run
with the sanitizer off so that it is the bytes that catch them.

AUTO sizes PLAIN, RLE, DELTAVAL and BLOCK_DICT by arithmetic instead of
building them, which keeps its choices — and so the bytes — only if
the arithmetic is exact: a fourth property holds each of those trials
to the length of the payload its encoding writes, on drawn blocks of
varint edges (127/128, 16383/16384, beyond 2**63), booleans, strings
of 128 UTF-8 bytes and more, NaN and both zeros, mixed int/bool blocks,
runs of 128 and more, and one-entry dictionaries (no code bits).  Two
planted mutations of the arithmetic fail it.

``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs of each property.
"""

import builtins
import os
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from reference_writer import ReferenceStorage, write_container
from repro import types
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution import Arithmetic, CaseWhen, ColumnRef, FunctionCall, Literal, Not
from repro.lint import sanitizer
from repro.projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
)
from repro.storage import ROSContainer, StorageManager
from repro.storage.block import BLOCK_ROWS
from repro.storage.encodings import ENCODINGS, SAMPLE_SIZE, BlockFacts
from repro.tuple_mover import MergePolicy, TupleMover
from storage_helpers import run_of, run_of_records

#: Encodings a column of each type may declare.
ANY_TYPE = ["AUTO", "PLAIN", "COMPRESSED_PLAIN", "RLE", "BLOCK_DICT"]
ENCODINGS_FOR = {
    "k": ANY_TYPE + ["DELTAVAL", "DELTARANGE_COMP", "COMMONDELTA_COMP"],
    "s": ANY_TYPE,
    "f": ANY_TYPE + ["DELTARANGE_COMP"],
    "b": ANY_TYPE,
    "n": ANY_TYPE + ["DELTAVAL", "DELTARANGE_COMP", "COMMONDELTA_COMP"],
}
TYPES = {
    "k": types.INTEGER, "s": types.VARCHAR, "f": types.FLOAT,
    "b": types.BOOLEAN, "n": types.INTEGER,
}
WORDS = ["", "a", "metric_0004", "zürich", "東京", "x" * 40, "\t|\n", "0"]
SPECIAL_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), 1e-300, -2.5, 1e300]
#: one stratum whatever the sizes: a mergeout folds every group whole
MERGE_ALL = MergePolicy(base_size=1 << 40, min_inputs=2, max_inputs=16)


@dataclass(frozen=True)
class Shape:
    """What a run looks like; the rows follow from it deterministically."""

    seed: int
    rows: int
    #: distinct values of the leading sort column ``k`` (1 = one run)
    cardinality: int
    null_rate: float
    #: the share of FLOAT values drawn from NaN / inf / the two zeros
    special_rate: float
    delete_rate: float
    encodings: tuple
    partitioned: bool
    segments_per_node: int
    #: segmentation columns of the projection
    segmented_by: tuple
    #: how many loads (containers per group) precede the mergeout
    batches: int = 1
    ahm: int = 0


def make_records(shape: Shape, batch: int = 0) -> list[tuple]:
    """``(row, insert_epoch, delete_epoch)`` records, unsorted."""
    rng = random.Random(shape.seed * 31 + batch)
    huge = shape.seed % 3 == 0  # an INTEGER column of arbitrary magnitude

    def nullable(value):
        return None if rng.random() < shape.null_rate else value

    def special_float():
        if rng.random() < 0.25:
            return float("nan")  # a fresh object each time
        return rng.choice(SPECIAL_FLOATS)

    records = []
    for _ in range(shape.rows):
        k = rng.randrange(shape.cardinality) - shape.cardinality // 2
        row = {
            "k": nullable(k),
            "s": nullable(rng.choice(WORDS) + str(rng.randrange(3))),
            "f": nullable(
                special_float()
                if rng.random() < shape.special_rate
                else rng.choice([float(k % 7), rng.uniform(-1e6, 1e6)])
            ),
            "b": nullable(rng.random() < 0.5),
            "n": nullable(
                rng.randrange(-(2**70), 2**70) if huge else rng.randrange(-50, 5000)
            ),
        }
        epoch = rng.randrange(1, 6)
        deleted = None
        if rng.random() < shape.delete_rate:
            deleted = epoch + rng.randrange(0, 4)
        records.append((row, epoch, deleted))
    return records


#: Up to seven partition keys: three for ``b`` (TRUE, FALSE, NULL) times
#: the parity of ``LENGTH(s)``, and NULL where ``s`` is NULL.
PARTITION_BY = CaseWhen(
    [(ColumnRef("b"), Literal(4)), (Not(ColumnRef("b")), Literal(2))], Literal(0)
) + Arithmetic("%", FunctionCall("LENGTH", ColumnRef("s")), Literal(2))


def make_schema(shape: Shape):
    table = TableDefinition(
        "t",
        [ColumnDef(name, dtype) for name, dtype in TYPES.items()],
        partition_by=PARTITION_BY if shape.partitioned else None,
    )
    projection = ProjectionDefinition(
        name="t_super",
        anchor_table="t",
        columns=[
            ProjectionColumn(name, TYPES[name], encoding)
            for name, encoding in zip(TYPES, shape.encodings)
        ],
        sort_order=["k", "s", "b", "f"],
        segmentation=HashSegmentation(shape.segmented_by),
    )
    return table, projection


def tree(directory: str) -> dict[str, bytes]:
    """relative path -> bytes of every file under ``directory``."""
    files = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, directory)] = handle.read()
    return files


def assert_same_tree(product_dir: str, reference_dir: str, when: str) -> None:
    product, reference = tree(product_dir), tree(reference_dir)
    assert sorted(product) == sorted(reference), f"{when}: different files"
    for name in sorted(product):
        assert product[name] == reference[name], f"{when}: {name} differs"


def check_storage(shape: Shape, root: str) -> None:
    """Loads, then a mergeout, through the storage manager and through
    the reference: the projection directories must match after each."""
    table, projection = make_schema(shape)
    manager = StorageManager(
        os.path.join(root, "product"), node_count=3,
        segments_per_node=shape.segments_per_node,
    )
    manager.register_projection(projection, table)
    reference = ReferenceStorage(
        os.path.join(root, "reference"), table, projection,
        node_count=3, segments_per_node=shape.segments_per_node,
    )
    product_dir = os.path.join(manager.root, projection.name)
    for batch in range(shape.batches):
        records = make_records(shape, batch)
        assert manager.load_history(
            projection.name, run_of_records(projection, records)
        ) == reference.load_history(records), "different container ids"
        assert_same_tree(product_dir, reference.directory, f"load {batch}")
    if shape.batches > 1:
        merged = TupleMover(manager, MERGE_ALL).mergeout(projection.name, shape.ahm)
        assert merged.new_containers == reference.mergeout(MERGE_ALL, shape.ahm)
        assert_same_tree(product_dir, reference.directory, "mergeout")


def check_container(shape: Shape, root: str, column_groups) -> None:
    """One sorted run straight into ``ROSContainer.write`` — the only
    way to a row-grouped container — and into the reference."""
    _, projection = make_schema(shape)
    records = sorted(
        make_records(shape), key=lambda record: projection.sort_key_for(record[0])
    )
    rows = [row for row, _, _ in records]
    epochs = [epoch for _, epoch, _ in records]
    options = dict(
        partition_key=(2012, "q3"), local_segment=2,
        column_groups=column_groups, merged_from=[9, 4],
    )
    ROSContainer.write(
        os.path.join(root, "product"), 7, projection,
        run_of(projection, rows, epochs), **options,
    )
    write_container(
        os.path.join(root, "reference"), 7, projection, rows, epochs, **options
    )
    assert_same_tree(
        os.path.join(root, "product"), os.path.join(root, "reference"), "write"
    )


# -- the properties ---------------------------------------------------------

row_counts = st.one_of(
    st.integers(0, 300),
    st.sampled_from(
        [SAMPLE_SIZE - 1, SAMPLE_SIZE, SAMPLE_SIZE + 1, BLOCK_ROWS, BLOCK_ROWS + 1]
    ),
    st.integers(0, 3 * BLOCK_ROWS),
)
shapes = st.builds(
    Shape,
    seed=st.integers(0, 2**20),
    rows=row_counts,
    cardinality=st.sampled_from([1, 2, 9, 500, 10**6]),
    null_rate=st.sampled_from([0.0, 0.0, 0.02, 0.6, 1.0]),
    special_rate=st.sampled_from([0.0, 0.05, 0.9]),
    delete_rate=st.sampled_from([0.0, 0.0, 0.1, 1.0]),
    encodings=st.tuples(*(st.sampled_from(ENCODINGS_FOR[name]) for name in TYPES)),
    partitioned=st.booleans(),
    segments_per_node=st.sampled_from([1, 1, 3, 16]),
    segmented_by=st.sampled_from([("k",), ("f",), ("s", "b"), ("f", "k", "s")]),
)
PROPERTY = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


def _loaded_runs(tmp_path_factory):
    @PROPERTY
    @given(shapes)
    def run(shape):
        check_storage(shape, str(tmp_path_factory.mktemp("identity")))

    return run


def _merged_runs(tmp_path_factory):
    @PROPERTY
    @given(shapes, st.integers(2, 5), st.integers(0, 7))
    def run(shape, batches, ahm):
        # duplicate keys across the inputs: a narrow key domain, and a
        # few thousand rows at most so five inputs stay quick
        shape = replace(
            shape, rows=shape.rows % 3000, batches=batches, ahm=ahm,
            cardinality=min(shape.cardinality, 9),
        )
        check_storage(shape, str(tmp_path_factory.mktemp("identity")))

    return run


def _written_containers(tmp_path_factory):
    @PROPERTY
    @given(
        shapes,
        st.sampled_from([None, [["f"]], [["n", "s"], ["f"]], [["k", "s", "f", "b", "n"]]]),
    )
    def run(shape, column_groups):
        check_container(
            shape, str(tmp_path_factory.mktemp("identity")), column_groups
        )

    return run


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
@pytest.mark.parametrize(
    "build", [_loaded_runs, _merged_runs, _written_containers],
    ids=["load", "mergeout", "container"],
)
def test_columnar_writer_matches_the_row_writer_byte_for_byte(
    build, seed_index, tmp_path_factory
):
    run = build(tmp_path_factory)
    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


# -- planted mutations --------------------------------------------------------

#: AUTO columns in blocks over SAMPLE_SIZE, ties on the sort key, both
#: zeros among the segmentation keys — the FLOAT first: FNV-1a's top
#: bits, which pick the segment, barely see a key's last bytes.
BIG = Shape(
    seed=5, rows=2 * BLOCK_ROWS + 77, cardinality=9, null_rate=0.02,
    special_rate=0.3, delete_rate=0.1, encodings=("AUTO",) * 5,
    partitioned=False, segments_per_node=1, segmented_by=("f", "k"),
)


def mutate_compressed_plain_shares_plains_bytes(monkeypatch):
    """PLAIN's bytes shared the wrong way round: COMPRESSED_PLAIN hands
    them on as its own."""
    from repro.storage.encodings.plain import CompressedPlainEncoding, PlainEncoding

    monkeypatch.setattr(CompressedPlainEncoding, "encode", PlainEncoding.encode)


def mutate_trial_payload_kept_for_a_larger_block(monkeypatch):
    """The sample's payload published as the block's."""
    from repro.storage import block
    from repro.storage.encodings import encode_auto

    monkeypatch.setattr(
        block, "encode_auto",
        lambda dtype, values: encode_auto(dtype, values[:SAMPLE_SIZE]),
    )


def mutate_unstable_sort(monkeypatch):
    """Ties come out in the opposite of input order: in the groups of a
    load, and in the permutation a mergeout sorts by."""
    from repro import types
    from repro.storage import manager, ros

    def unstable(iterable, key=None):
        ordered = builtins.sorted(iterable, key=key, reverse=True)
        ordered.reverse()
        return ordered

    def unstable_permutation(columns, descending=None):
        keys = types.ordering_keys(columns)
        return unstable(range(len(columns[0])), key=keys.__getitem__)

    monkeypatch.setattr(manager, "sorted", unstable, raising=False)
    monkeypatch.setattr(ros, "sort_permutation", unstable_permutation)


def mutate_last_partial_block_dropped(monkeypatch):
    """``ColumnWriter`` forgets the slice that did not fill a block."""
    from repro.storage.column_file import ColumnWriter

    finish = ColumnWriter.finish

    def lossy(self):
        self._pending = []
        return finish(self)

    monkeypatch.setattr(ColumnWriter, "finish", lossy)


@pytest.mark.parametrize(
    "mutate, shape",
    [
        (mutate_compressed_plain_shares_plains_bytes, BIG),
        (mutate_trial_payload_kept_for_a_larger_block, BIG),
        (mutate_unstable_sort, BIG),
        (mutate_unstable_sort, replace(BIG, rows=900, batches=3)),
        (mutate_last_partial_block_dropped, BIG),
    ],
    ids=lambda value: getattr(value, "__name__", "").removeprefix("mutate_")
    or f"{value.batches}-loads-{value.segments_per_node}-segments",
)
def test_planted_mutation_fails_the_property(mutate, shape, tmp_path, monkeypatch):
    with sanitizer.override(False):
        check_storage(shape, str(tmp_path / "clean"))
        mutate(monkeypatch)
        with pytest.raises(AssertionError, match="differs|different"):
            check_storage(shape, str(tmp_path / "mutant"))


# -- exact sizes --------------------------------------------------------------

#: The candidates AUTO sizes by arithmetic.
CLOSED_FORM = ("PLAIN", "RLE", "DELTAVAL", "BLOCK_DICT")
INT_EDGES = [
    0, 1, -1, 63, 64, -64, -65, 127, 128, -128, 8191, 8192, 16383, 16384,
    -16384, 2**21, 2**63 - 1, 2**63, -(2**63), 2**64, 2**70, -(2**70), 2**300,
]
STRING_EDGES = ["", "a", "zürich", "x" * 127, "x" * 128, "é" * 64, "東京" * 50, "y" * 20000]
FLOAT_EDGES = [0.0, -0.0, float("inf"), float("-inf"), 1.5, -2.5e300]
run_lengths = st.one_of(
    st.integers(1, 4), st.sampled_from([127, 128, 129, 300, 16383, 16384])
)
block_values = st.sampled_from(
    [
        st.one_of(st.sampled_from(INT_EDGES), st.integers(-(2**80), 2**80)),
        st.booleans(),
        st.one_of(st.sampled_from(STRING_EDGES), st.text(max_size=150)),
        # each NaN drawn is its own object, as a parsed one is
        st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(), st.just("nan")).map(
            lambda value: float(value) if value == "nan" else value
        ),
        st.one_of(st.integers(-200, 200), st.booleans()),  # mixed kinds
    ]
).flatmap(
    lambda values: st.one_of(
        # runs of one value: RLE's lengths, one-entry dictionaries
        st.lists(st.tuples(values, run_lengths), max_size=12).map(
            lambda runs: [value for value, length in runs for _ in range(length)][
                : 2 * BLOCK_ROWS
            ]
        ),
        # no runs to speak of: dictionaries of up to 2**13 codes
        st.lists(values, max_size=300),
        st.integers(1, 5000).map(lambda count: list(range(-count // 2, count - count // 2))),
    )
)
#: Blocks every run of the property checks, whatever is drawn; each
#: planted mutation fails on one of them.
SIZE_CORPUS = [
    [7] * 300 + [8] * 3,
    ["é" * 64] * 130 + ["a"],
    list(range(-70, 70)),
    [True] * 3 + [1] * 2 + [False],
    [float("nan"), 0.0, -0.0, 0.0, float("nan")],
    ["one entry"] * 9,
]


def check_sizes(values: list) -> None:
    """Each closed-form candidate that applies: its trial is exactly the
    length of the payload its encoding writes."""
    kinds = set(map(type, values))
    dtype = types.INTEGER if kinds <= {int} else types.VARCHAR
    for name in CLOSED_FORM:
        encoding = ENCODINGS[name]
        if not encoding.supports(dtype, values, BlockFacts(values)):
            continue
        size = encoding.trial(values, BlockFacts(values))
        payload = encoding.encode(values, BlockFacts(values))
        assert isinstance(size, int), f"{name}: the trial built bytes"
        assert size == len(payload), f"{name}: trial size {size} != {len(payload)}"
        assert list(map(repr, encoding.decode(payload, len(values)))) == list(
            map(repr, values)
        ), f"{name}: round trip"


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_a_closed_form_trial_is_its_payload_length(seed_index):
    for block in SIZE_CORPUS:
        check_sizes(block)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(block_values)
    def run(values):
        check_sizes(values)

    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


def mutate_rle_lengths_one_byte_each(monkeypatch):
    """A run length of 128 or more counted as one byte."""
    from repro.storage.encodings import rle

    monkeypatch.setattr(rle, "uvarints_size", len)


def mutate_dictionary_codes_rounded_down(monkeypatch):
    """The packed codes sized ``floor(n * w / 8)``."""
    from repro.storage.encodings import dictionary

    monkeypatch.setattr(
        dictionary, "packed_size", lambda count, bit_width: count * bit_width // 8
    )


@pytest.mark.parametrize(
    "mutate", [mutate_rle_lengths_one_byte_each, mutate_dictionary_codes_rounded_down]
)
def test_planted_size_mutation_fails_the_property(mutate, monkeypatch):
    for block in SIZE_CORPUS:
        check_sizes(block)
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match="trial size"):
        for block in SIZE_CORPUS:
            check_sizes(block)
