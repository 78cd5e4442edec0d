"""Statistics for cost-based optimization.

V2Opt "incorporated many of the best practices developed over the past
30 years of optimizer research such as using equi-height histograms to
calculate selectivity [and] applying sample-based estimates of the
number of distinct values" (section 6.2, citing Haas et al. [16]).
This module implements both, collected from live projection data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..types import sort_key


@dataclass
class Histogram:
    """Equi-height histogram over a sample of one column."""

    #: Bucket upper bounds (inclusive), ascending; len = bucket count.
    bounds: list = field(default_factory=list)
    #: Rows represented per bucket (equal by construction, modulo
    #: rounding in the last bucket).
    rows_per_bucket: float = 0.0
    total_rows: int = 0
    null_fraction: float = 0.0

    @classmethod
    def build(cls, values: list, buckets: int = 20) -> "Histogram":
        """Build from (a sample of) column values."""
        concrete = sorted(
            (value for value in values if value is not None), key=sort_key
        )
        total = len(values)
        if not concrete:
            return cls(total_rows=total, null_fraction=1.0 if total else 0.0)
        buckets = min(buckets, len(concrete))
        bounds = []
        for bucket in range(1, buckets + 1):
            index = min(len(concrete) - 1, bucket * len(concrete) // buckets - 1)
            bounds.append(concrete[index])
        return cls(
            bounds=bounds,
            rows_per_bucket=len(concrete) / buckets,
            total_rows=total,
            null_fraction=(total - len(concrete)) / total if total else 0.0,
        )

    def selectivity_range(self, low, high) -> float:
        """Estimated fraction of rows with low <= value <= high
        (``None`` bound = open).  A bucket of numbers the range cuts
        counts the share of its span the range covers (:func:`_covered`)."""
        if not self.bounds or self.total_rows == 0:
            return 1.0
        concrete_fraction = 1.0 - self.null_fraction
        matched_buckets = 0.0
        previous = None
        for bound in self.bounds:
            bucket_low = previous
            bucket_high = bound
            previous = bound
            if low is not None and sort_key(bucket_high) < sort_key(low):
                continue
            if high is not None and bucket_low is not None and sort_key(
                bucket_low
            ) > sort_key(high):
                continue
            matched_buckets += _covered(bucket_low, bucket_high, low, high)
        return max(
            min(concrete_fraction * matched_buckets / len(self.bounds), 1.0),
            0.0,
        )

    def selectivity_equals(self, ndv: float) -> float:
        """Estimated fraction for an equality predicate given the
        column's distinct-value estimate."""
        if ndv <= 0:
            return 1.0
        return min((1.0 - self.null_fraction) / ndv, 1.0)


def _covered(bucket_low, bucket_high, low, high) -> float:
    """The share of the bucket ``(bucket_low, bucket_high]`` that the
    range ``low .. high`` covers, the bucket's values spread evenly over
    its span.  A bucket without a lower end, or whose ends or the
    range's are not all numbers, counts whole."""
    low = bucket_low if low is None else low
    high = bucket_high if high is None else high
    ends = (bucket_low, bucket_high, low, high)
    if not all(type(end) in (int, float) and end == end for end in ends):
        return 1.0
    if bucket_low >= bucket_high:  # one value, repeated
        return 1.0
    if all(type(end) is int for end in ends):  # it holds bucket_low + 1 .. bucket_high
        covered = min(high, bucket_high) - max(low, bucket_low + 1) + 1
    else:
        covered = min(high, bucket_high) - max(low, bucket_low)
    return min(max(covered / (bucket_high - bucket_low), 0.0), 1.0)


def estimate_ndv(sample: list, total_rows: int) -> float:
    """Sample-based distinct-value estimate.

    A simplified Haas et al. [16] first-order jackknife: scale the
    sample's distinct count by the inverse fraction of singletons.
    """
    concrete = [value for value in sample if value is not None]
    if not concrete:
        return 0.0
    sample_size = len(concrete)
    from collections import Counter

    frequencies = Counter(concrete)
    distinct = len(frequencies)
    singletons = sum(1 for count in frequencies.values() if count == 1)
    if sample_size >= total_rows:
        return float(distinct)
    # jackknife: D_hat = d / (1 - (1 - q) * f1 / d_times_... ) simplified
    q = sample_size / max(total_rows, 1)
    denominator = max(1.0 - (1.0 - q) * singletons / sample_size, q)
    return min(distinct / denominator, float(total_rows))


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    name: str
    min_value: object = None
    max_value: object = None
    ndv: float = 0.0
    histogram: Histogram = field(default_factory=Histogram)
    #: Average encoded bytes per value (compression-aware cost input).
    avg_encoded_bytes: float = 8.0


@dataclass
class TableStats:
    """Statistics for one table (gathered from its super projection)."""

    table: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns.get(name) or ColumnStats(name)


#: Rows sampled per table when collecting statistics.
SAMPLE_ROWS = 10_000


def collect_table_stats(cluster, table_name: str, epoch: int, seed: int = 17) -> TableStats:
    """Gather statistics for a table from its live data, read a column
    at a time (:meth:`Cluster.read_columns`); the sample is one list of
    row positions every column is gathered at."""
    columns = cluster.read_columns(table_name, epoch)
    row_count = len(next(iter(columns.values()), ()))
    stats = TableStats(table=table_name, row_count=row_count)
    if not row_count:
        for name in columns:
            stats.columns[name] = ColumnStats(name)
        return stats
    sample = None
    if row_count > SAMPLE_ROWS:
        sample = random.Random(seed).sample(range(row_count), SAMPLE_ROWS)
    family = cluster.catalog.super_projection_for(table_name)
    encoded = _encoded_bytes_per_column(cluster, family)
    for name, values in columns.items():
        if sample is not None:
            values = list(map(values.__getitem__, sample))
        concrete = [value for value in values if value is not None]
        stats.columns[name] = ColumnStats(
            name=name,
            min_value=min(concrete, default=None),
            max_value=max(concrete, default=None),
            ndv=estimate_ndv(values, row_count),
            histogram=Histogram.build(values),
            avg_encoded_bytes=encoded.get(name, 8.0),
        )
    return stats


def _encoded_bytes_per_column(cluster, family) -> dict[str, float]:
    """Average on-disk encoded bytes per value, per column — measured
    from real containers, which is what makes the cost model
    *compression aware* (section 6.2)."""
    totals: dict[str, list[float]] = {}
    for node_index, projection_name in cluster.scan_sources(family):
        manager = cluster.nodes[node_index].manager
        state = manager.storage(projection_name)
        for container in state.containers.values():
            if container.row_count == 0:
                continue
            for name in container.meta.columns:
                if container._group_of(name) is not None:
                    continue
                try:
                    reader = container.column_reader(name)
                except Exception:  # pragma: no cover - defensive
                    continue
                totals.setdefault(name, []).append(
                    reader.data_size / container.row_count
                )
    return {
        name: sum(values) / len(values) for name, values in totals.items() if values
    }


@dataclass
class StatsCatalog:
    """Per-table statistics cache used by the optimizers."""

    tables: dict[str, TableStats] = field(default_factory=dict)
    #: projection family name -> {column: avg encoded bytes/value};
    #: what makes projection choice compression-aware.
    family_bytes: dict[str, dict[str, float]] = field(default_factory=dict)

    def get(self, table_name: str) -> TableStats:
        return self.tables.get(table_name) or TableStats(table_name)

    def put(self, stats: TableStats) -> None:
        self.tables[stats.table] = stats

    def bytes_for(self, family_name: str, column: str) -> float:
        return self.family_bytes.get(family_name, {}).get(column, 8.0)

    def refresh(self, cluster, epoch: int) -> None:
        """Re-collect statistics for every table and projection."""
        for table_name in cluster.catalog.table_names():
            self.put(collect_table_stats(cluster, table_name, epoch))
        for name, family in cluster.catalog.families.items():
            try:
                self.family_bytes[name] = _encoded_bytes_per_column(
                    cluster, family
                )
            except Exception:  # pragma: no cover - down nodes etc.
                self.family_bytes.setdefault(name, {})
