"""COPY parses a column at a time and rejects exactly what the per-line
loop rejected.

The product splits COPY's lines once, transposes them and parses each
column in one bulk call; only the lines a column rejects (and dict
records, and lines with the wrong field count) go through the per-line
path.  The oracle below is the loop COPY ran before: every record on its
own.  Hypothesis draws line lists full of the fields that tell the two
apart — NULL spellings, padded and underscored numbers, ``nan`` /
``inf`` / ``1e400``, integers past 64 bits, wrong field counts, dict
records with bad values or extra keys, field lists — and the
``CopyResult`` (rows loaded; line, text and message of every rejected
record) and the stored rows, compared by ``repr``, must equal the
oracle's.  ``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import LoadError, SqlAnalysisError
from storage_helpers import read_table

COLUMNS = [
    ColumnDef("k", types.INTEGER),
    ColumnDef("v", types.FLOAT),
    ColumnDef("s", types.VARCHAR),
    ColumnDef("b", types.BOOLEAN),
    ColumnDef("d", types.DATE),
]
EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


def copy_per_line(table, columns, copy_rows):
    """The oracle: ``(good rows, rejected)`` of COPY into ``table`` with
    the column list ``columns`` (None: every column), one record at a
    time — a dict record type-checked value by value, a line's fields
    parsed one by one, anything that raises a rejected record."""
    columns = columns or table.column_names
    good: list[dict] = []
    rejected: list[tuple[int, str, str]] = []
    for line_number, record in enumerate(copy_rows, start=1):
        try:
            if isinstance(record, dict):
                row = {name: None for name in table.column_names}
                row.update(record)
                if set(row) != set(table.column_names):
                    raise SqlAnalysisError(
                        f"row columns {sorted(row)} do not match table "
                        f"{table.name!r} columns {sorted(table.column_names)}"
                    )
                row = {c.name: c.dtype.validate(row[c.name]) for c in table.columns}
            else:
                fields = record.split("|") if isinstance(record, str) else list(record)
                if len(fields) != len(columns):
                    raise LoadError(f"expected {len(columns)} fields, got {len(fields)}")
                row = {name: None for name in table.column_names}
                for name, field_text in zip(columns, fields):
                    row[name] = table.column(name).dtype.parse_text(str(field_text))
            good.append(row)
        except Exception as exc:  # rejected record, keep loading
            rejected.append((line_number, str(record)[:80], str(exc)))
    return good, rejected


def make_db(path) -> Database:
    db = Database(str(path), node_count=1, durable=False)
    db.create_table(TableDefinition("t", list(COLUMNS)), sort_order=["k"])
    return db


def stored(db) -> list[str]:
    return [repr(row) for row in read_table(db.cluster, "t", db.latest_epoch)]


def test_an_out_of_range_integer_rejects_its_line_not_the_copy(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1, durable=False)
    db.sql("CREATE TABLE t (k INTEGER, v FLOAT, s VARCHAR)")
    result = db.sql(
        "COPY t FROM STDIN",
        copy_rows=["1|2.5|a", "9" * 25 + "|1|b", f"{2**63 - 1}|3|c"],
    )
    assert result.loaded == 2
    assert result.rejected == [
        (2, "9" * 25 + "|1|b", f"'{'9' * 25}' out of 64-bit range for INTEGER")
    ]
    assert db.sql("SELECT k, s FROM t ORDER BY k") == [
        {"k": 1, "s": "a"},
        {"k": 2**63 - 1, "s": "c"},
    ]


#: Fields every line of a column may hold with the column still parsed
#: by one bulk call: no NULL, nothing rejected.
CLEAN = {
    "k": st.integers(-(2**63), 2**63 - 1).map(str),
    "v": st.floats().map(repr),
    "s": st.text(alphabet="ab ß", min_size=1, max_size=3),
    "b": st.sampled_from(["t", "f", "true", "FALSE", "1"]),
    "d": st.dates().map(lambda day: day.isoformat()),
}
#: The rest: NULL spellings, fields ``int`` / ``float`` read but a
#: stricter parser would not (or the reverse), and fields rejected.
ODD = {
    "k": ["", "NULL", "null", " 9 ", "1_0", "+4", "x", "2.0", "9" * 25,
          str(2**63), str(-(2**63) - 1), "True"],
    "v": ["", "NULL", "Null", "nan", "-inf", "1e400", "True", " 2.5 ", "1_0.5", "x"],
    "s": ["", "NULL", "null", " NULL", "NULLS", "None"],
    "b": [" Yes ", "no", "maybe", "", "NULL"],
    "d": [" 2000-01-01 ", "2000-13-01", "", "NULL", "x"],
}
FIELDS = {name: st.one_of(CLEAN[name], st.sampled_from(ODD[name])) for name in CLEAN}
VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([2**63, 1.5, float("nan"), True, "a", "2000-01-01"]),
)
COLUMN_LISTS = [None, ["k", "s"], ["s", "d", "k", "v"]]


@st.composite
def copies(draw):
    """``(column list, records)`` of one COPY: any records, or clean
    lines with a few others dropped in among them."""
    columns = draw(st.sampled_from(COLUMN_LISTS))
    names = columns or [column.name for column in COLUMNS]
    line = st.tuples(*(FIELDS[name] for name in names)).map(list)
    record = st.one_of(
        line.map("|".join),
        line.map("|".join),
        line.map("|".join),
        # a field too many or too few
        line.map(lambda fields: "|".join(fields + ["1"])),
        line.map(lambda fields: "|".join(fields[:-1])),
        # a field list, values not (all) text
        st.tuples(*(st.one_of(FIELDS[name], VALUES) for name in names)).map(list),
        # a dict record: any subset of the columns, maybe one too many
        st.dictionaries(st.sampled_from(["k", "v", "s", "b", "d", "extra"]), VALUES),
    )
    if not draw(st.booleans()):
        return columns, draw(st.lists(record, max_size=14))
    clean = st.tuples(*(CLEAN[name] for name in names)).map("|".join)
    records = draw(st.lists(clean, max_size=14))
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), draw(record))
    return columns, records


def check_copy(tmp_path_factory, case):
    columns, records = case
    product = make_db(tmp_path_factory.mktemp("copy") / "db")
    oracle = make_db(tmp_path_factory.mktemp("oracle") / "db")
    text = f"COPY t ({', '.join(columns)}) FROM STDIN" if columns else "COPY t FROM STDIN"
    result = product.sql(text, copy_rows=records)
    table = oracle.cluster.catalog.table("t")
    good, rejected = copy_per_line(table, columns, records)
    oracle.load("t", good, direct_to_ros=len(good) > 10000)
    assert (result.loaded, result.rejected) == (len(good), rejected)
    assert stored(product) == stored(oracle)


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_column_copy_equals_the_per_line_loop(tmp_path_factory, seed_index):
    @PROPERTY
    @given(copies())
    def run(case):
        check_copy(tmp_path_factory, case)

    if seed_index:  # tools/check.sh: pinned + git-derived
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


def test_good_records_keep_their_line_order(tmp_path):
    """Dict records and clean lines interleaved: one run in line order,
    whatever path each record took."""
    db = make_db(tmp_path / "db")  # sorted on k: equal keys keep load order
    records = [
        f"0|{i}.5|s{i}|t|2000-01-0{i % 9 + 1}" if i % 3 else {"k": 0, "s": f"s{i}"}
        for i in range(12)
    ]
    records.insert(5, "bad|1|x|t|2000-01-01")
    result = db.sql("COPY t FROM STDIN", copy_rows=records)
    assert (result.loaded, [line for line, _, _ in result.rejected]) == (12, [6])
    assert [row["s"] for row in read_table(db.cluster, "t", db.latest_epoch)] == [
        f"s{i}" for i in range(12)
    ]
