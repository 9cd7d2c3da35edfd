"""The dynamic type system: inference, unification, sub-shaping (§4.1)."""

from repro.core.typing.unify import check_subtype, join_types, unify_types
from repro.core.typing.infer import InferType, infer_expr_type, infer_types
from repro.core.typing.subshape import any_dim_groups
from repro.core.typing.bind import (
    bind_any_dims,
    collect_any_tokens,
    collect_shape_bindings,
)

__all__ = [
    "check_subtype",
    "join_types",
    "unify_types",
    "InferType",
    "infer_expr_type",
    "infer_types",
    "any_dim_groups",
    "bind_any_dims",
    "collect_any_tokens",
    "collect_shape_bindings",
]
