"""The Vertica-style vectorized, pull-model execution engine (section 6)."""

from ..columnar import (
    VECTOR_SIZE,
    ColumnVector,
    DictVector,
    PlainVector,
    RleVector,
    RowBlock,
    Selection,
    as_list,
    blocks_to_rows,
)
from .aggregates import AggregateSpec
from .expressions import (
    And,
    Arithmetic,
    Between,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    column_range_from_predicate,
)
from .operators import *  # noqa: F401,F403 - re-export operator set
from .operators import __all__ as _operators_all
from .resource import ResourcePool, SpillFile, WorkloadPolicy
from .sip import SipFilter

__all__ = [
    "AggregateSpec",
    "And",
    "Arithmetic",
    "Between",
    "CaseWhen",
    "ColumnRef",
    "Comparison",
    "Expr",
    "FunctionCall",
    "InList",
    "IsNull",
    "Like",
    "Literal",
    "Not",
    "Or",
    "column_range_from_predicate",
    "ColumnVector",
    "DictVector",
    "PlainVector",
    "RleVector",
    "Selection",
    "as_list",
    "ResourcePool",
    "SpillFile",
    "WorkloadPolicy",
    "VECTOR_SIZE",
    "RowBlock",
    "blocks_to_rows",
    "SipFilter",
    *_operators_all,
]
