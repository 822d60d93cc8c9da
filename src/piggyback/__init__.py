"""Piggybacking erasure codes with low single-node repair bandwidth.

The package provides two n x (s+1) array-code layouts over GF(2^w) built
from systematic MDS instances, exact repair-bandwidth accounting, recovery
from multi-node failures, closed-form bandwidth/overhead evaluators with
LRC and OOP baselines, and a shard-file CLI (``piggyback.cli``).
"""

from . import analysis, design1, design2, stripe
from .errors import (
    DataError,
    DecodeError,
    InsufficientDataError,
    ParameterError,
    PiggybackError,
    RepairError,
    UnsupportedPatternError,
)
from .field import Field, field, parity_vectors
from .mds import MdsCheck, MdsCode, mds_code
from .params import (
    CodeParams,
    ReadTracker,
    RepairReport,
    SymbolGrid,
    Variant,
    grid_reader,
)

__all__ = [
    "analysis",
    "design1",
    "design2",
    "stripe",
    "CodeParams",
    "DataError",
    "DecodeError",
    "Field",
    "InsufficientDataError",
    "MdsCheck",
    "MdsCode",
    "ParameterError",
    "PiggybackError",
    "ReadTracker",
    "RepairError",
    "RepairReport",
    "SymbolGrid",
    "UnsupportedPatternError",
    "Variant",
    "field",
    "grid_reader",
    "mds_code",
    "parity_vectors",
]

__version__ = "0.1.0"
