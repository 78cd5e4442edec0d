"""Tuple mover: moveout, mergeout and strata planning (section 4)."""

from .mover import CycleMemo, MergeResult, TupleMover, TupleMoverStats
from .strata import MergePolicy, plan_merges

__all__ = [
    "CycleMemo",
    "MergeResult",
    "TupleMover",
    "TupleMoverStats",
    "MergePolicy",
    "plan_merges",
]
