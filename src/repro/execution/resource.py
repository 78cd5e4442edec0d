"""Execution resource management (section 6.1).

    During query compile time, each operator is given a memory budget
    based on the resources available given a user defined workload
    policy and what each operator is going to do.  All operators are
    capable of handling arbitrary sized inputs, regardless of the
    memory allocated, by externalizing their buffers to disk.

Budgets are expressed in *rows* (a proxy for bytes that keeps the
simulation deterministic).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field

from ..columnar.row_block import RowBlock
from ..columnar.vectors import as_list
from ..types import any_nan


@dataclass
class WorkloadPolicy:
    """User-facing resource knobs for a session's queries."""

    #: Total rows' worth of working memory a query may pin at once.
    query_memory_rows: int = 1_000_000
    #: Fraction of the query budget any single operator may take.
    per_operator_fraction: float = 0.5


@dataclass
class ResourcePool:
    """One query's memory budget: what each operator may hold before it
    externalizes, and how many times one did."""

    policy: WorkloadPolicy = field(default_factory=WorkloadPolicy)
    #: Count of spill events (observability for tests/benches).
    spills: int = 0

    def operator_budget(self) -> int:
        """Default per-operator grant size."""
        return max(
            int(self.policy.query_memory_rows * self.policy.per_operator_fraction),
            1,
        )

    def note_spill(self) -> None:
        """Record that an operator externalized to disk."""
        self.spills += 1


class SpillFile:
    """A temp file of blocks, for externalizing operators: the one spill
    format (Sort's sorted runs, GroupBy's partials and overflow rows).
    A block is written as its plain column lists, so an encoded vector
    comes back decoded and nothing it was cut from rides along.

    A block comes back holding the values it was written with — a NaN
    the very object, which is all that tells two NaNs apart to a dict
    (the join key rule) and which pickling would replace: the file keeps
    the NaNs it writes, and their positions, in memory."""

    def __init__(self):
        self._handle = tempfile.NamedTemporaryFile(
            mode="w+b", suffix=".spill", delete=False
        )
        #: per block written: column name -> [(position, NaN)]
        self._nans: list[dict] = []

    def write_block(self, block: RowBlock) -> None:
        """Append one block."""
        columns = {name: as_list(values) for name, values in block.columns.items()}
        pickle.dump((columns, block.row_count), self._handle)
        self._nans.append({
            name: [(i, value) for i, value in enumerate(values) if value != value]
            for name, values in columns.items()
            if any_nan(values)
        })

    def read_blocks(self):
        """Yield the blocks back in write order."""
        self._handle.flush()
        self._handle.seek(0)
        for nans in self._nans:
            columns, row_count = pickle.load(self._handle)
            for name, found in nans.items():
                for position, value in found:
                    columns[name][position] = value
            yield RowBlock(columns, row_count)

    def close(self) -> None:
        """Close and remove the backing file."""
        name = self._handle.name
        self._handle.close()
        try:
            os.unlink(name)
        except OSError:  # pragma: no cover - best effort cleanup
            pass
