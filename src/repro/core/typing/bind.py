"""Binding ``Any`` dimensions to concrete values (shape specialization).

The sub-shaping analysis (§4.1) gives every ``Any`` an identity token;
specializing a module to one concrete input shape is then a pure *type*
substitution: replace every ``Any`` carrying a bound token with its
integer value, everywhere it occurs. Re-running type inference over the
substituted module propagates the now-static dims through every operator,
so downstream passes (manifest allocation, memory planning) see static
extents and emit none of the dynamic-shape machinery.

Helpers living here:

* :func:`collect_shape_bindings` — walk a parameter annotation against a
  concrete shape spec, producing the ``{token: value}`` binding (and
  validating rank/static-dim agreement);
* :func:`bind_any_dims` — apply a binding to a type, recursively;
* :func:`collect_any_tokens` — a type's tokens in first-occurrence order.

A binding never leaves the process it was made in: tokens leave by
position (:mod:`repro.ir.codec`), and a module restored from a payload
is specialized from ``shapes``, which name dims by position too.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import TypeInferenceError
from repro.ir.types import Any, FuncType, TensorType, TupleType, Type, TypeCall

Binding = Dict[int, int]


def collect_shape_bindings(
    ty: Type,
    shape_spec,
    binding: Optional[Binding] = None,
    what: str = "specialization",
) -> Binding:
    """Match *shape_spec* against annotation *ty*, binding ``Any`` tokens.

    ``shape_spec`` mirrors the type structure: a sequence of dims for a
    :class:`TensorType`, a sequence of per-field specs for a
    :class:`TupleType`, or ``None`` to leave that subtree dynamic. A
    tensor dim may itself be ``None`` — a *partial* spec: that dim stays
    unbound (dynamic), so one specialized variant can cover a family of
    exact shapes (the serving layer guards the bound dims at entry).
    Static dims in the annotation must agree with the spec; a token
    bound twice must agree both times.
    """
    binding = binding if binding is not None else {}
    if shape_spec is None:
        return binding
    if isinstance(ty, TensorType):
        shape = tuple(None if d is None else int(d) for d in shape_spec)
        if len(shape) != ty.ndim:
            raise TypeInferenceError(
                f"{what}: shape {shape} has rank {len(shape)} but the "
                f"annotation {ty!r} has rank {ty.ndim}"
            )
        for dim, value in zip(ty.shape, shape):
            if value is None:
                continue  # partial spec: this dim stays dynamic
            if value < 0:
                raise TypeInferenceError(f"{what}: negative dimension {value}")
            if isinstance(dim, Any):
                bound = binding.get(dim.token)
                if bound is not None and bound != value:
                    raise TypeInferenceError(
                        f"{what}: Any token bound to both {bound} and {value}"
                    )
                binding[dim.token] = value
            elif dim != value:
                raise TypeInferenceError(
                    f"{what}: static dim {dim} of {ty!r} cannot be "
                    f"specialized to {value}"
                )
        return binding
    if isinstance(ty, TupleType):
        fields = list(shape_spec)
        if len(fields) != len(ty.fields):
            raise TypeInferenceError(
                f"{what}: spec has {len(fields)} fields for tuple type {ty!r}"
            )
        for field_ty, field_spec in zip(ty.fields, fields):
            collect_shape_bindings(field_ty, field_spec, binding, what)
        return binding
    raise TypeInferenceError(f"{what}: cannot bind shapes into {ty!r}")


def batch_type(ty: Type, batch: int, what: str = "batch specialization") -> Type:
    """Stack a (fully static) type's leading dimension *batch* times.

    This is the leading-dim binding behind batch-granularity
    specialization: the batched executable's value for a tensor of member
    shape ``(d0, rest...)`` is the axis-0 concatenation of the ``batch``
    member values, of shape ``(batch * d0, rest...)``. Rank-0 tensors are
    shared across members (all members of a batch-specialized bucket have
    the same exact shape, so scalars — loop counters, shape reads — are
    member-independent) and pass through unchanged.
    """
    if batch < 1:
        raise TypeInferenceError(f"{what}: batch must be >= 1, got {batch}")
    if isinstance(ty, TensorType):
        if ty.ndim == 0:
            return ty
        lead = ty.shape[0]
        if isinstance(lead, Any):
            raise TypeInferenceError(
                f"{what}: cannot stack dynamic leading dim of {ty!r}; "
                f"specialize the shape first"
            )
        return TensorType((batch * int(lead),) + tuple(ty.shape[1:]), ty.dtype)
    if isinstance(ty, TupleType):
        return TupleType([batch_type(f, batch, what) for f in ty.fields])
    raise TypeInferenceError(f"{what}: cannot stack a batch dim into {ty!r}")


def collect_any_tokens(ty: Optional[Type], out: Optional[List[int]] = None) -> List[int]:
    """Every ``Any`` token in *ty*, in first-occurrence (depth-first)
    order, each token once."""
    out = out if out is not None else []
    if isinstance(ty, TensorType):
        for dim in ty.shape:
            if isinstance(dim, Any) and dim.token not in out:
                out.append(dim.token)
        return out
    if isinstance(ty, TupleType):
        for field in ty.fields:
            collect_any_tokens(field, out)
        return out
    if isinstance(ty, FuncType):
        for arg in ty.arg_types:
            collect_any_tokens(arg, out)
        collect_any_tokens(ty.ret_type, out)
        return out
    if isinstance(ty, TypeCall):
        for arg in ty.args:
            collect_any_tokens(arg, out)
        return out
    return out


def bind_any_dims(ty: Type, binding: Binding) -> Type:
    """Replace every ``Any`` whose token is in *binding* with its value.

    Unbound tokens survive unchanged (they stay dynamic); the input type
    is returned as-is when nothing inside it is bound.
    """
    if not binding:
        return ty
    if isinstance(ty, TensorType):
        changed = False
        dims = []
        for dim in ty.shape:
            if isinstance(dim, Any) and dim.token in binding:
                dims.append(binding[dim.token])
                changed = True
            else:
                dims.append(dim)
        return TensorType(dims, ty.dtype) if changed else ty
    if isinstance(ty, TupleType):
        fields = [bind_any_dims(f, binding) for f in ty.fields]
        if all(n is o for n, o in zip(fields, ty.fields)):
            return ty
        return TupleType(fields)
    if isinstance(ty, FuncType):
        args = [bind_any_dims(a, binding) for a in ty.arg_types]
        ret = bind_any_dims(ty.ret_type, binding)
        if ret is ty.ret_type and all(n is o for n, o in zip(args, ty.arg_types)):
            return ty
        return FuncType(args, ret)
    if isinstance(ty, TypeCall):
        args = [bind_any_dims(a, binding) for a in ty.args]
        if all(n is o for n, o in zip(args, ty.args)):
            return ty
        return TypeCall(ty.func, args)
    return ty
