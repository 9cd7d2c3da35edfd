"""Batch rules: how an operator runs on ``batch`` stacked members.

``SpecializeBatch`` (``repro.passes.specialize``) rewrites a static module
so one execution serves ``batch`` members of one shape: a batched tensor
is the axis-0 concatenation of its members, a shared value one value all
members see. ``OpDef.batch_rule`` says how an op keeps member i's rows
member i's: a function from a :class:`BatchCall` to the rewritten call
and its batchedness. :func:`elementwise` and :func:`row_wise` are shared;
ops that change form declare their own beside their registration. An op
without a rule is refused, never guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

from repro.errors import BatchSpecializeError
from repro.ir.expr import Call, Expr, Tuple as IRTuple
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, TupleType, Type, has_any_dim
from repro.ops.shape_funcs import normalize_axis

# Batchedness of a value: a bool for tensors, a tuple of flags for
# tuple-typed values. True means the rewritten expression holds the axis-0
# concatenation of the `batch` member values; False means one shared value
# (identical for every member).
Flags = Union[bool, Tuple]


def flags_of(ty: Type, what: str) -> Flags:
    if isinstance(ty, TensorType):
        return ty.ndim >= 1
    if isinstance(ty, TupleType):
        return tuple(flags_of(f, what) for f in ty.fields)
    raise BatchSpecializeError(f"{what}: cannot batch a value of type {ty!r}")


def static_shape(ty: Type, what: str) -> Tuple[int, ...]:
    if not isinstance(ty, TensorType) or has_any_dim(ty):
        raise BatchSpecializeError(f"{what}: expected a static tensor, got {ty!r}")
    return tuple(int(d) for d in ty.shape)


def coerce(expr: Expr, have: Flags, want: Flags, member_ty: Type, batch: int, what: str) -> Expr:
    """*expr* with batchedness *want*: a shared tensor is tiled along axis 0."""
    if have == want:
        return expr
    if want is True and have is False:
        if not isinstance(member_ty, TensorType) or member_ty.ndim == 0:
            raise BatchSpecializeError(f"{what}: cannot tile {member_ty!r}")
        return Call(Op.get("concatenate"), [expr] * batch, {"axis": 0})
    if isinstance(want, tuple) and isinstance(member_ty, TupleType) and isinstance(expr, IRTuple):
        have_t = have if isinstance(have, tuple) else (have,) * len(want)
        return IRTuple([coerce(f, h, w, t, batch, what)
                        for f, h, w, t in zip(expr.fields, have_t, want, member_ty.fields)])
    raise BatchSpecializeError(f"{what}: cannot coerce batchedness {have!r} -> {want!r}")


def broadcast_safe(shared_ty: Type, member_ty: Type) -> bool:
    """May a shared operand broadcast against a *stacked* batched one
    exactly as it would against each member? Yes when it aligns to
    trailing dims only, or its leading dim is 1 (a size-1 dim stretches
    to any extent, so each member row sees the same value)."""
    if not isinstance(shared_ty, TensorType) or not isinstance(member_ty, TensorType):
        return False
    if shared_ty.ndim == 0 or shared_ty.ndim < member_ty.ndim:
        return True
    lead = shared_ty.shape[0]
    return shared_ty.ndim == member_ty.ndim and not isinstance(lead, Any) and int(lead) == 1


def canonical(expr: Expr, member_out: Tuple[int, ...], batch: int) -> Expr:
    """Reshape a flat-correct result to the canonical stacked shape
    ``(batch * member_out[0], *member_out[1:])``."""
    newshape = (batch * member_out[0],) + tuple(member_out[1:])
    return Call(Op.get("reshape"), [expr], {"newshape": newshape})


@dataclass
class BatchCall:
    """One op call with a batched operand, as its rule sees it: the
    member-typed ``call``, its rewritten ``args`` and their ``flags``,
    and the member types of the operands and the result."""

    call: Call
    args: List[Expr]
    flags: List[Flags]
    member_tys: List[Type]
    out_ty: Type
    batch: int

    @property
    def name(self) -> str:
        return self.call.op.name

    def axis(self, default: int) -> int:
        return normalize_axis(self.call.attrs.get("axis", default), self.member_tys[0].ndim)

    def tiled(self) -> List[Expr]:
        """Every operand batched, the shared ones tiled."""
        return [coerce(a, f, True, t, self.batch, self.name)
                for a, f, t in zip(self.args, self.flags, self.member_tys)]

    def lift(self, attrs: dict) -> Expr:
        """The op over an explicit leading batch axis: reshape
        ``(B·d0, rest)`` → ``(B, d0, rest)``, run it with *attrs* (its
        axes shifted past the batch dim), reshape back to canonical form."""
        member_in = static_shape(self.member_tys[0], self.name)
        unstacked = Call(Op.get("reshape"), [self.args[0]], {"newshape": (self.batch,) + member_in})
        return canonical(Call(self.call.op, [unstacked], attrs),
                         static_shape(self.out_ty, self.name), self.batch)


BatchRule = Callable[[BatchCall], Tuple[Expr, Flags]]


def elementwise(c: BatchCall) -> Tuple[Expr, Flags]:
    """N-ary row-wise op: batched operands must agree on member shape
    (their stacked row blocks then align member-by-member); shared
    operands either broadcast safely against the stacked value or are
    tiled."""
    batched = {static_shape(t, c.name) for t, f in zip(c.member_tys, c.flags) if f is True}
    if len(batched) > 1:
        raise BatchSpecializeError(
            f"{c.name}: batched operands with unequal member shapes {sorted(batched)}")
    (member,) = batched
    out_args = []
    for a, f, t in zip(c.args, c.flags, c.member_tys):
        if f is True or broadcast_safe(t, TensorType(member, "float32")):
            out_args.append(a)
            continue
        # A shared operand that is not broadcast-safe can only be tiled
        # when its leading dim equals the batched member's — i.e.
        # member-wise the op does NOT broadcast along axis 0. A lead that
        # broadcasts the members *up* (shared (4, H) against member
        # (1, H)) has no stacked equivalent: tiling would emit an
        # ill-typed op, so refuse and let callers fall back.
        shape = static_shape(t, c.name)
        if len(shape) != len(member) or shape[0] != member[0]:
            raise BatchSpecializeError(
                f"{c.name}: shared operand of shape {shape} would broadcast "
                f"members of shape {member} along the stacked axis")
        out_args.append(coerce(a, f, True, t, c.batch, c.name))
    return Call(c.call.op, out_args, c.call.attrs), True


def row_wise(default_axis: int = -1, shared: Sequence[int] = (), tile: bool = False,
             lifts: bool = False) -> BatchRule:
    """The rule of an op along one axis (attr ``axis``, else
    *default_axis*) of its first operand. Along any axis but 0 each
    member's rows stay its own, so the op runs on the stacked value as
    is. The operands at *shared* (bias, gamma, beta) must be shared;
    *tile* tiles shared operands instead. Along axis 0 the op is lifted
    over an explicit batch axis if it *lifts*, and refused otherwise."""

    def rule(c: BatchCall) -> Tuple[Expr, Flags]:
        if any(c.flags[i] is not False for i in shared):
            raise BatchSpecializeError(f"{c.name}: batched operand among {tuple(shared)}")
        if c.axis(default_axis) != 0:
            args = c.tiled() if tile else c.args
            return Call(c.call.op, args, c.call.attrs), flags_of(c.out_ty, c.name)
        if not lifts:
            raise BatchSpecializeError(f"{c.name} along the stacked axis")
        return c.lift({"axis": 1}), True

    return rule
