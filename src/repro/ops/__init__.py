"""Operator library.

Importing this package registers all built-in operators (the submodules
register at import time, like Relay's TOPI registration).
"""

from repro.ops.registry import (
    OpDef,
    OpPattern,
    ShapeFuncMode,
    all_op_names,
    get_op_def,
    has_op,
    register_op,
)

# Registration side effects — order matters only for readability.
from repro.ops import tensor_ops  # noqa: F401
from repro.ops import nn  # noqa: F401
from repro.ops import transform  # noqa: F401
from repro.ops import dynamic  # noqa: F401
from repro.ops import dialect  # noqa: F401

from repro.ops.dialect import DIALECT_OPS
from repro.ops import api

__all__ = [
    "OpDef",
    "OpPattern",
    "ShapeFuncMode",
    "all_op_names",
    "get_op_def",
    "has_op",
    "register_op",
    "DIALECT_OPS",
    "api",
]

