"""Shared type-relation helpers (§4.1).

Type relations compute output types from input types, propagating ``Any``
per the paper's rules. Because ``Any`` makes some static checks
undecidable, relations *relax* constraints involving ``Any`` and leave the
residual check to runtime shape functions (gradual typing).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import TypeInferenceError
from repro.ir.types import Any, Dim, TensorType, TupleType, Type, same_dim


def expect_tensor(ty: Type, what: str) -> TensorType:
    if not isinstance(ty, TensorType):
        raise TypeInferenceError(f"{what}: expected a tensor type, got {ty!r}")
    return ty


def broadcast_dim(a: Dim, b: Dim) -> Dim:
    """The paper's broadcast rules over one dimension pair:

    ``(Any, 1) -> Any``;  ``(Any, d) -> d`` for d > 1;  ``(Any, Any) -> Any``
    (token-preserving when the two Anys are provably identical, enabling
    sub-shaping); static dims follow NumPy broadcasting.
    """
    if isinstance(a, Any) and isinstance(b, Any):
        # Sub-shaping: identical tokens stay identical in the output.
        return a if same_dim(a, b) else Any()
    if isinstance(a, Any):
        return a if b == 1 else b
    if isinstance(b, Any):
        return b if a == 1 else a
    if a == b:
        return a
    if a == 1:
        return b
    if b == 1:
        return a
    raise TypeInferenceError(f"cannot broadcast dimensions {a} and {b}")


def broadcast_shapes(sa: Sequence[Dim], sb: Sequence[Dim]) -> tuple:
    out: List[Dim] = []
    la, lb = len(sa), len(sb)
    for i in range(max(la, lb)):
        da = sa[la - 1 - i] if i < la else 1
        db = sb[lb - 1 - i] if i < lb else 1
        out.append(broadcast_dim(da, db))
    return tuple(reversed(out))


def broadcast_rel(arg_types: Sequence[Type], attrs: dict) -> Type:
    """Binary broadcasting ops (add, multiply, comparisons, ...)."""
    lhs = expect_tensor(arg_types[0], "broadcast lhs")
    rhs = expect_tensor(arg_types[1], "broadcast rhs")
    if lhs.dtype != rhs.dtype:
        raise TypeInferenceError(
            f"broadcast dtype mismatch: {lhs.dtype} vs {rhs.dtype}"
        )
    out_dtype = attrs.get("out_dtype", lhs.dtype)
    return TensorType(broadcast_shapes(lhs.shape, rhs.shape), out_dtype)


def identity_rel(arg_types: Sequence[Type], attrs: dict) -> Type:
    """Unary elementwise ops keep their input type."""
    return expect_tensor(arg_types[0], "elementwise input")


def unify_dim(a: Dim, b: Dim, what: str) -> Dim:
    """Require two dims to agree; ``Any`` unifies with anything, preferring
    the more specific side (static int wins over Any)."""
    if isinstance(a, Any) and isinstance(b, Any):
        return a if same_dim(a, b) else Any()
    if isinstance(a, Any):
        return b
    if isinstance(b, Any):
        return a
    if a != b:
        raise TypeInferenceError(f"{what}: dimension mismatch {a} vs {b}")
    return a
