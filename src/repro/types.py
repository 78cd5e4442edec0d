"""SQL type system.

Vertica (like C-Store before it) is a typed relational engine; the paper
calls out multi-type support (FLOAT, VARCHAR, NULLs, 64-bit integers) as
one of the features added on the road from prototype to product
(section 8.1).  This module defines the supported SQL types, their value
domains, text parsing for the bulk loader, and NULL semantics.

Values are represented with plain Python objects:

* ``INTEGER``   -> ``int`` (64-bit range enforced)
* ``FLOAT``     -> ``float``
* ``VARCHAR``   -> ``str``
* ``BOOLEAN``   -> ``bool``
* ``DATE``      -> ``int`` days since 2000-01-01 (cheap, orderable)
* ``TIMESTAMP`` -> ``int`` seconds since 2000-01-01

SQL NULL is represented as Python ``None`` everywhere.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter, ne
from typing import Sequence

from .errors import LoadError, SqlAnalysisError

#: Minimum / maximum of Vertica's 64-bit integer domain.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
_NULL_TYPE = type(None)

_DATE_ORIGIN = _dt.date(2000, 1, 1)
_TS_ORIGIN = _dt.datetime(2000, 1, 1)


def date_to_days(value: _dt.date) -> int:
    """Convert a :class:`datetime.date` to the internal day number."""
    return (value - _DATE_ORIGIN).days


def days_to_date(days: int) -> _dt.date:
    """Convert an internal day number back to a :class:`datetime.date`."""
    return _DATE_ORIGIN + _dt.timedelta(days=days)


def timestamp_to_seconds(value: _dt.datetime) -> int:
    """Convert a :class:`datetime.datetime` to internal epoch seconds."""
    return int((value - _TS_ORIGIN).total_seconds())


def seconds_to_timestamp(seconds: int) -> _dt.datetime:
    """Convert internal epoch seconds back to a datetime."""
    return _TS_ORIGIN + _dt.timedelta(seconds=seconds)


@dataclass(frozen=True)
class DataType:
    """A SQL data type.

    Instances are interned module-level singletons (``INTEGER``,
    ``FLOAT``, ...); compare them with ``is`` or ``==``.
    """

    name: str
    #: Python classes a non-NULL value of this type may have.
    python_types: tuple[type, ...]
    #: True for types stored as integers on disk (delta encodings apply).
    integral: bool

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def validate(self, value: object) -> object:
        """Check ``value`` is in this type's domain; return it unchanged.

        ``None`` (SQL NULL) is always accepted.  Raises
        :class:`SqlAnalysisError` otherwise.
        """
        if value is None:
            return None
        if self is BOOLEAN:
            if isinstance(value, bool):
                return value
            raise SqlAnalysisError(f"expected BOOLEAN, got {value!r}")
        if self is FLOAT:
            if isinstance(value, bool):
                raise SqlAnalysisError(f"expected FLOAT, got {value!r}")
            if isinstance(value, (int, float)):
                return float(value)
            raise SqlAnalysisError(f"expected FLOAT, got {value!r}")
        if not isinstance(value, self.python_types) or isinstance(value, bool):
            raise SqlAnalysisError(f"expected {self.name}, got {value!r}")
        if self.integral and not INT64_MIN <= value <= INT64_MAX:
            raise SqlAnalysisError(f"{value} out of 64-bit range for {self.name}")
        return value

    def validate_column(self, values: list) -> list:
        """:meth:`validate` over a column: the checked values, or the
        error of the first bad one.  A column holding only NULLs and
        values of this type's own class is settled by the set of its
        value types and, for an integral type, one ``min`` / ``max``,
        and comes back as it is; anything else (an int bound for a
        FLOAT column, a bool, a string) goes value by value."""
        kinds = set(map(type, values))
        if kinds <= {self.python_types[0], _NULL_TYPE}:
            if not self.integral:
                return values
            # filter(None) drops NULLs (and zeros, which are in range)
            known = list(filter(None, values)) if _NULL_TYPE in kinds else values
            if not known or INT64_MIN <= min(known) and max(known) <= INT64_MAX:
                return values
        return list(map(self.validate, values))

    def parse_text(self, text: str) -> object:
        """Parse a CSV field into a value of this type (bulk loader path).

        An empty string parses to NULL, matching common CSV conventions.
        Raises :class:`LoadError` for unparseable fields — an integral
        one outside the 64-bit domain included — so the loader can
        reject the record (section 7, "Bulk Loading and Rejected
        Records").
        """
        if text == "" or text.upper() == "NULL":
            return None
        try:
            if self is INTEGER:
                value = int(text)
            elif self is FLOAT:
                return float(text)
            elif self is BOOLEAN:
                lowered = text.strip().lower()
                if lowered in ("t", "true", "1", "yes"):
                    return True
                if lowered in ("f", "false", "0", "no"):
                    return False
                raise ValueError(text)
            elif self is DATE:
                value = date_to_days(_dt.date.fromisoformat(text.strip()))
            elif self is TIMESTAMP:
                value = timestamp_to_seconds(_dt.datetime.fromisoformat(text.strip()))
            else:
                return text
        except ValueError as exc:
            raise LoadError(f"cannot parse {text!r} as {self.name}") from exc
        if not INT64_MIN <= value <= INT64_MAX:
            raise LoadError(f"{text!r} out of 64-bit range for {self.name}")
        return value

    def parse_column(self, texts: Sequence[str]) -> tuple[list, list[int]]:
        """:meth:`parse_text` over a column of fields: the values, and
        the indexes of the fields it rejects (their values are None).

        A clean column is one bulk call of what ``parse_text`` applies —
        ``int``, ``float``, the text itself, or ``parse_text`` mapped for
        the other types — and, for INTEGER, one ``min`` / ``max``.  Only
        a column holding a NULL (INTEGER, FLOAT, VARCHAR) or a field the
        type rejects is parsed again a field at a time."""
        values = self._parse_clean(texts)
        if values is not None:
            return values, []
        values, rejected = [], []
        for index, text in enumerate(texts):
            try:
                values.append(self.parse_text(text))
            except Exception:  # rejected: the same catch as a COPY line's
                values.append(None)
                rejected.append(index)
        return values, rejected

    def _parse_clean(self, texts: Sequence[str]) -> list | None:
        """The column parsed in one bulk call, or None when it is not
        clean (see :meth:`parse_column`)."""
        try:
            if self is INTEGER:
                values = list(map(int, texts))
                if not values or INT64_MIN <= min(values) and max(values) <= INT64_MAX:
                    return values
                return None
            if self is FLOAT:
                return list(map(float, texts))
            if self is VARCHAR:
                if "" in texts or "NULL" in map(str.upper, texts):
                    return None
                return list(texts)
            return list(map(self.parse_text, texts))
        except Exception:  # a field parse_text rejects, whatever it raises
            return None


INTEGER = DataType("INTEGER", (int,), integral=True)
FLOAT = DataType("FLOAT", (float,), integral=False)
VARCHAR = DataType("VARCHAR", (str,), integral=False)
BOOLEAN = DataType("BOOLEAN", (bool,), integral=False)
DATE = DataType("DATE", (int,), integral=True)
TIMESTAMP = DataType("TIMESTAMP", (int,), integral=True)

#: All supported types, keyed by their SQL names (plus common aliases).
TYPES_BY_NAME = {
    "INTEGER": INTEGER,
    "INT": INTEGER,
    "BIGINT": INTEGER,
    "FLOAT": FLOAT,
    "DOUBLE": FLOAT,
    "REAL": FLOAT,
    "VARCHAR": VARCHAR,
    "TEXT": VARCHAR,
    "CHAR": VARCHAR,
    "BOOLEAN": BOOLEAN,
    "BOOL": BOOLEAN,
    "DATE": DATE,
    "TIMESTAMP": TIMESTAMP,
}


def type_from_name(name: str) -> DataType:
    """Look up a :class:`DataType` by SQL name (case-insensitive)."""
    try:
        return TYPES_BY_NAME[name.upper()]
    except KeyError:
        raise SqlAnalysisError(f"unknown type {name!r}") from None


class _NullOrdering:
    """Sentinel that sorts before every non-NULL value.

    Vertica sorts NULLs first in ascending order; using a dedicated
    minimal sentinel lets heterogeneous columns with NULLs be sorted
    with plain tuple comparison.
    """

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, _NullOrdering)

    def __gt__(self, other: object) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullOrdering)

    def __hash__(self) -> int:
        return hash("__repro_null__")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NULL_FIRST"


#: Singleton used as the sort key for SQL NULL.
NULL_FIRST = _NullOrdering()


class _NanOrdering:
    """Sentinel that sorts after every number and is equal to itself:
    the sort key of a float NaN, which compares false with everything,
    itself included, and so would leave a sort in whatever order its
    comparisons happened to run."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _NanOrdering)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NanOrdering)

    def __hash__(self) -> int:
        return hash("__repro_nan__")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NAN_LAST"


#: Singleton used as the sort key for a float NaN.
NAN_LAST = _NanOrdering()


# -- the ordering rule ---------------------------------------------------
#
# Every sort in the system orders by the rule below, written only here:
# NULL before every value, NaN after every number, all NULLs (and all
# NaNs) equal to each other, ties kept in input order.  Column-wise
# callers (the write path, the operators, v_monitor) use
# ``sort_permutation`` / ``ordering_keys``; ``sort_key`` is the same rule
# for one value.


def sort_key(value: object) -> object:
    """Return a sort key where NULL orders before any other value and a
    NaN after every number."""
    if value is None:
        return NULL_FIRST
    return NAN_LAST if value != value else value


def any_nan(scalars) -> bool:
    """Whether a NaN is among ``scalars`` (a sequence): only a NaN differs
    from itself.  Machine numbers are settled by one ``sum``; anything
    else (a NULL, a string, an integer past a float) by comparing — text
    at once, not after ``sum`` has raised on it."""
    if scalars and isinstance(scalars[0], str):
        return any(map(ne, scalars, scalars))
    try:
        total = sum(scalars)
        if total == total:  # one NaN would have poisoned the sum
            return False
    except (TypeError, OverflowError):  # not (only) machine numbers
        pass
    return any(map(ne, scalars, scalars))


def _keyed(values: list) -> list:
    """One column as sort keys: the list itself unless a NULL or a NaN
    is in it (two C-level passes decide that)."""
    if None in values or any_nan(values):
        return list(map(sort_key, values))
    return values


def ordering_keys(columns: list[list]) -> list:
    """One sort key per row of ``columns`` (equal-length lists, major
    first): a single column's keys, tuples across several.  Keys compare
    with ``<`` / ``==`` under the ordering rule."""
    keyed = list(map(_keyed, columns))
    return keyed[0] if len(keyed) == 1 else list(zip(*keyed))


def sort_permutation(
    columns: list[list], descending: list[bool] | None = None
) -> list[int]:
    """The stable permutation that orders the rows of ``columns`` (major
    first; at least one) under the ordering rule, term ``i`` descending
    where ``descending[i]``.

    A sort is this permutation followed by a gather.  All-ascending keys
    sort in one pass over key tuples (``ordering_keys``: a caller sorting
    several subsets of one run by the same columns builds them once and
    sorts each subset by them); otherwise every run of terms of one
    direction is a stable pass, least significant first, DESC ones with
    ``reverse=True`` (which keeps ties in input order)."""
    order = list(range(len(columns[0])))
    terms = zip(columns, descending or repeat(False))
    passes = [
        (reverse, [values for values, _ in run])
        for reverse, run in groupby(terms, key=itemgetter(1))
    ]
    for reverse, run in reversed(passes):
        keys = ordering_keys(run)
        order.sort(key=keys.__getitem__, reverse=reverse)
    return order
