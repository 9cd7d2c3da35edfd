"""Shape specialization: bind ``Any`` dims of the entry to concrete values.

Dynamic compilation (Figure 2) pays for generality on every inference:
shape functions run on the host, allocations are sized at runtime, and
symbolic kernels carry residue dispatch. When one input shape dominates —
a hot bucket in the serving layer, or a known deployment shape — that
generality is pure overhead. :class:`SpecializeShapes` removes it at the
type level: every ``Any`` whose identity token is bound gets replaced by
its concrete value throughout the module, and re-running ``InferType``
propagates the static dims through every operator. Downstream the
standard pipeline then does the rest for free — ``ManifestAlloc`` takes
its static path (no shape functions, constant storage sizes), the memory
planner coalesces exact extents, and the code generator emits static
kernels with no residue dispatch.

The pass rebuilds the module with fresh expression nodes (stale
``checked_type`` slots from a previous inference run must not leak into
the specialized typing) while sharing constants, operators, ADT
definitions, and constructors — weights are never copied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.typing.bind import Binding, batch_type, bind_any_dims, collect_shape_bindings
from repro.errors import CompilerError
from repro.ir.expr import (
    Call,
    Clause,
    Constant,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    Tuple as IRTuple,
    TupleGetItem,
    Var,
)
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, TupleType, Type, has_any_dim
from repro.passes.pass_manager import Pass


class _Specializer:
    """Deep-copies a function body, substituting bound ``Any`` dims in
    every type annotation. Every interior node is rebuilt so no
    ``checked_type`` from the dynamic module survives into the
    specialized one."""

    def __init__(self, binding: Binding, gv_map: Dict[GlobalVar, GlobalVar]) -> None:
        self.binding = binding
        self.gv_map = gv_map
        self._memo: Dict[int, Expr] = {}

    def _sub(self, ty: Optional[Type]) -> Optional[Type]:
        return None if ty is None else bind_any_dims(ty, self.binding)

    def visit(self, expr: Expr) -> Expr:
        key = id(expr)
        found = self._memo.get(key)
        if found is not None:
            return found
        result = self._copy(expr)
        self._memo[key] = result
        return result

    def _copy(self, expr: Expr) -> Expr:
        if isinstance(expr, Var):
            return Var(expr.name_hint, self._sub(expr.type_annotation))
        if isinstance(expr, GlobalVar):
            return self.gv_map.get(expr, expr)
        if isinstance(expr, Let):
            # Iterative over the chain (ANF bodies are thousands deep).
            bindings: List[Tuple[Var, Expr]] = []
            node: Expr = expr
            while isinstance(node, Let):
                var = self.visit(node.var)
                if not isinstance(var, Var):
                    raise CompilerError("let binder must remain a Var")
                bindings.append((var, self.visit(node.value)))
                node = node.body
            out = self.visit(node)
            for var, value in reversed(bindings):
                out = Let(var, value, out)
            self._memo[id(expr)] = out
            return out
        if isinstance(expr, Call):
            return Call(
                self.visit(expr.op), [self.visit(a) for a in expr.args], expr.attrs
            )
        if isinstance(expr, Function):
            return Function(
                [self.visit(p) for p in expr.params],
                self.visit(expr.body),
                self._sub(expr.ret_type),
                expr.attrs,
            )
        if isinstance(expr, IRTuple):
            return IRTuple([self.visit(f) for f in expr.fields])
        if isinstance(expr, TupleGetItem):
            return TupleGetItem(self.visit(expr.tuple_value), expr.index)
        if isinstance(expr, If):
            return If(
                self.visit(expr.cond),
                self.visit(expr.true_branch),
                self.visit(expr.false_branch),
            )
        if isinstance(expr, Match):
            return Match(
                self.visit(expr.data),
                [
                    Clause(self._copy_pattern(c.pattern), self.visit(c.rhs))
                    for c in expr.clauses
                ],
                expr.complete,
            )
        # Constants, operators, and constructors are shared: their types
        # are input-independent and constructors are identity-interned.
        return expr

    def _copy_pattern(self, pattern):
        from repro.ir.expr import PatternConstructor, PatternVar

        if isinstance(pattern, PatternVar):
            var = self.visit(pattern.var)
            assert isinstance(var, Var)
            return PatternVar(var)
        if isinstance(pattern, PatternConstructor):
            return PatternConstructor(
                pattern.constructor,
                [self._copy_pattern(p) for p in pattern.patterns],
            )
        return pattern


def _summarize_shape(ty: Optional[Type]):
    if isinstance(ty, TensorType):
        return tuple(None if isinstance(d, Any) else int(d) for d in ty.shape)
    if isinstance(ty, TupleType):
        return tuple(_summarize_shape(f) for f in ty.fields)
    return None


def bound_entry_shapes(func: Function, binding: Binding):
    """The ``specialized_shapes`` marker for *binding*: per entry param,
    a tuple of dims (None for a dim left dynamic) for a tensor, nested
    tuples for a tuple, None for an ADT or function.

    The artifact store keys executables by (module, platform, shape
    binding, batch); the serving layer must derive that key *before*
    deciding whether to compile at all — a store hit replaces the whole
    compile — so this substitutes the binding into the entry's parameter
    annotations only. :class:`SpecializeShapes` stamps its marker with
    this same function, so the key and the marker cannot drift."""
    return tuple(
        _summarize_shape(
            bind_any_dims(p.type_annotation, binding)
            if p.type_annotation is not None
            else None
        )
        for p in func.params
    )


class SpecializeShapes(Pass):
    """Bind the entry function's ``Any`` dims and rewrite the module.

    Construct with either ``shapes`` — one concrete shape spec per entry
    parameter (ints for tensor params, nested sequences for tuple params,
    ``None`` to leave a param dynamic) — or a pre-computed ``binding`` of
    ``Any`` identity tokens to values (the serving layer's specialization
    manager derives one from its bucketer). After :meth:`run`,
    ``bound_shapes`` records the entry parameter shapes the module was
    specialized to.
    """

    name = "SpecializeShapes"

    def __init__(
        self,
        shapes: Optional[Sequence] = None,
        binding: Optional[Binding] = None,
        entry: str = "main",
    ) -> None:
        self.shapes = shapes
        self.binding = dict(binding) if binding else {}
        self.entry = entry
        self.bound_shapes = None

    def run(self, mod: IRModule) -> IRModule:
        # Reset on entry, not just set on success: ``bound_shapes`` is
        # how callers read the pass result, and a reused instance whose
        # second run raises mid-way must not report the *previous*
        # module's shapes as if they belonged to this one.
        self.bound_shapes = None
        if self.entry not in mod:
            raise CompilerError(f"module has no entry function {self.entry!r}")
        entry_fn = mod[self.entry]
        binding: Binding = dict(self.binding)
        if self.shapes is not None:
            if len(self.shapes) != len(entry_fn.params):
                raise CompilerError(
                    f"specialize: {len(self.shapes)} shapes for "
                    f"{len(entry_fn.params)} entry parameters"
                )
            for param, spec in zip(entry_fn.params, self.shapes):
                if param.type_annotation is None:
                    raise CompilerError(
                        f"specialize: entry parameter %{param.name_hint} "
                        f"has no type annotation"
                    )
                collect_shape_bindings(
                    param.type_annotation, spec, binding,
                    what=f"specializing %{param.name_hint}",
                )

        out = IRModule()
        # ADTs are shared: constructors and global type vars are
        # identity-interned and their field types carry no entry tokens.
        out.type_data = dict(mod.type_data)
        out._global_type_vars = dict(mod._global_type_vars)
        gv_map = {gv: out.get_global_var(gv.name_hint) for gv in mod.functions}
        rewriter = _Specializer(binding, gv_map)
        for gv, func in mod.functions.items():
            new_func = rewriter.visit(func)
            assert isinstance(new_func, Function)
            out[gv_map[gv]] = new_func
        self.bound_shapes = bound_entry_shapes(entry_fn, binding)
        return out


# ---------------------------------------------------------------------------
# Batch-granularity specialization
# ---------------------------------------------------------------------------


class BatchSpecializeError(CompilerError):
    """The module cannot be rewritten at batch granularity (unsupported
    op, ADT/closure entry, residual dynamism). Callers fall back to the
    member-wise static tier."""


# Batchedness of a value: a bool for tensors, a tuple of flags for
# tuple-typed values. True means the rewritten expression holds the axis-0
# concatenation of the `batch` member values; False means one shared value
# (identical for every member).
Flags = Union[bool, Tuple]


def _flags_of(ty: Optional[Type], what: str) -> Flags:
    if isinstance(ty, TensorType):
        return ty.ndim >= 1
    if isinstance(ty, TupleType):
        return tuple(_flags_of(f, what) for f in ty.fields)
    raise BatchSpecializeError(f"{what}: cannot batch a value of type {ty!r}")


def _shared_flags(ty: Optional[Type]) -> Flags:
    if isinstance(ty, TupleType):
        return tuple(_shared_flags(f) for f in ty.fields)
    return False


def _any_batched(flags) -> bool:
    if isinstance(flags, tuple):
        return any(_any_batched(f) for f in flags)
    return flags is True


def _member_type(expr: Expr, what: str) -> Type:
    ty = expr.checked_type
    if ty is None:
        raise BatchSpecializeError(f"{what}: expression is missing a checked type")
    return ty


def _static_shape(ty: Type, what: str) -> Tuple[int, ...]:
    if not isinstance(ty, TensorType) or has_any_dim(ty):
        raise BatchSpecializeError(f"{what}: expected a static tensor, got {ty!r}")
    return tuple(int(d) for d in ty.shape)


class _BatchRewriter:
    """Rebuilds one function at batch granularity.

    The invariant: a batched tensor's flat (C-order) layout equals the
    concatenation of its members' flat layouts, member 0 first. Row-wise
    ops (dense epilogues, elementwise math, last-axis normalizations)
    therefore apply directly to the stacked value; GEMMs become one
    ``nn.batch_dense``; layout ops that would mix members across the
    leading axis are lifted through an explicit ``(batch, *member)``
    reshape. Scalars stay shared — every member of a batch-specialized
    bucket has the same exact shape, so all shape-derived control flow is
    member-independent.
    """

    def __init__(
        self,
        batch: int,
        gv_map: Dict[GlobalVar, GlobalVar],
        signatures: Dict[GlobalVar, Tuple[Tuple[Flags, ...], Flags]],
    ) -> None:
        self.batch = batch
        self.gv_map = gv_map
        self.signatures = signatures
        self._memo: Dict[int, Tuple[Expr, Flags]] = {}

    # ------------------------------------------------------------- utilities
    def _promote(self, expr: Expr, member_ty: Type, what: str) -> Expr:
        """Shared → batched: tile the member value along axis 0."""
        if not isinstance(member_ty, TensorType) or member_ty.ndim == 0:
            raise BatchSpecializeError(f"{what}: cannot tile {member_ty!r}")
        return Call(Op.get("concatenate"), [expr] * self.batch, {"axis": 0})

    def _coerce(self, expr: Expr, have: Flags, want: Flags, member_ty: Type, what: str):
        if have == want:
            return expr
        if want is True and have is False:
            return self._promote(expr, member_ty, what)
        if isinstance(want, tuple) and isinstance(member_ty, TupleType):
            have_t = have if isinstance(have, tuple) else (have,) * len(want)
            if isinstance(expr, IRTuple):
                fields = [
                    self._coerce(f, h, w, t, what)
                    for f, h, w, t in zip(expr.fields, have_t, want, member_ty.fields)
                ]
                return IRTuple(fields)
        raise BatchSpecializeError(
            f"{what}: cannot coerce batchedness {have!r} -> {want!r}"
        )

    @staticmethod
    def _broadcast_safe(shared_ty: Type, member_ty: Type) -> bool:
        """May a shared operand broadcast against a *stacked* batched one
        exactly as it would against each member? Yes when it aligns to
        trailing dims only, or its leading dim is 1 (a size-1 dim
        stretches to any extent, so each member row sees the same
        value)."""
        if not isinstance(shared_ty, TensorType):
            return False
        if not isinstance(member_ty, TensorType):
            return False
        if shared_ty.ndim == 0 or shared_ty.ndim < member_ty.ndim:
            return True
        if shared_ty.ndim == member_ty.ndim:
            lead = shared_ty.shape[0]
            return not isinstance(lead, Any) and int(lead) == 1
        return False

    def _reshape(self, expr: Expr, newshape: Tuple[int, ...]) -> Expr:
        return Call(Op.get("reshape"), [expr], {"newshape": tuple(newshape)})

    def _canonical(self, expr: Expr, member_out: Tuple[int, ...]) -> Expr:
        """Reshape a flat-correct result to the canonical stacked shape
        ``(batch * member_out[0], *member_out[1:])``."""
        return self._reshape(
            expr, (self.batch * member_out[0],) + tuple(member_out[1:])
        )

    def _lift(self, data: Expr, member_in: Tuple[int, ...], op: Op, attrs: dict,
              member_out: Tuple[int, ...]) -> Expr:
        """Apply a member-wise op over an explicit leading batch axis:
        reshape ``(B·d0, rest)`` → ``(B, d0, rest)``, run the op with its
        axes shifted past the batch dim, reshape back to canonical form."""
        unstacked = self._reshape(data, (self.batch,) + tuple(member_in))
        applied = Call(op, [unstacked], attrs)
        return self._canonical(applied, member_out)

    # --------------------------------------------------------------- visitor
    def visit(self, expr: Expr) -> Tuple[Expr, Flags]:
        key = id(expr)
        found = self._memo.get(key)
        if found is not None:
            return found
        result = self._rewrite(expr)
        self._memo[key] = result
        return result

    def _rewrite(self, expr: Expr) -> Tuple[Expr, Flags]:
        if isinstance(expr, (Constant, Op)):
            return expr, False
        if isinstance(expr, GlobalVar):
            return self.gv_map.get(expr, expr), False
        if isinstance(expr, Var):
            raise BatchSpecializeError(
                f"batch specialization: free variable %{expr.name_hint}"
            )
        if isinstance(expr, Let):
            bindings: List[Tuple[Var, Expr]] = []
            node: Expr = expr
            while isinstance(node, Let):
                value, flags = self.visit(node.value)
                new_var = Var(node.var.name_hint)
                self._memo[id(node.var)] = (new_var, flags)
                bindings.append((new_var, value))
                node = node.body
            out, out_flags = self.visit(node)
            for var, value in reversed(bindings):
                out = Let(var, value, out)
            return out, out_flags
        if isinstance(expr, IRTuple):
            pairs = [self.visit(f) for f in expr.fields]
            return IRTuple([e for e, _ in pairs]), tuple(f for _, f in pairs)
        if isinstance(expr, TupleGetItem):
            value, flags = self.visit(expr.tuple_value)
            field_flags = (
                flags[expr.index] if isinstance(flags, tuple) else flags
            )
            return TupleGetItem(value, expr.index), field_flags
        if isinstance(expr, If):
            cond, cond_flags = self.visit(expr.cond)
            if cond_flags is not False:
                raise BatchSpecializeError(
                    "batch specialization: member-dependent branch condition"
                )
            true_b, tf = self.visit(expr.true_branch)
            false_b, ff = self.visit(expr.false_branch)
            if tf != ff:
                member = _member_type(expr, "if")
                false_b = self._coerce(false_b, ff, tf, member, "if branch")
            return If(cond, true_b, false_b), tf
        if isinstance(expr, Call):
            return self._rewrite_call(expr)
        if isinstance(expr, (Match, Function)):
            raise BatchSpecializeError(
                f"batch specialization does not support {type(expr).__name__} values"
            )
        raise BatchSpecializeError(
            f"batch specialization: cannot rewrite {type(expr).__name__}"
        )

    # ------------------------------------------------------------------ calls
    def _rewrite_call(self, call: Call) -> Tuple[Expr, Flags]:
        if isinstance(call.op, GlobalVar):
            param_flags, ret_flags = self.signatures[call.op]
            new_args = []
            for arg, want in zip(call.args, param_flags):
                new_arg, have = self.visit(arg)
                member = _member_type(arg, f"call to @{call.op.name_hint}")
                new_args.append(
                    self._coerce(new_arg, have, want, member,
                                 f"call to @{call.op.name_hint}")
                )
            return Call(self.gv_map[call.op], new_args, call.attrs), ret_flags
        if not isinstance(call.op, Op):
            raise BatchSpecializeError(
                "batch specialization: only operator and global calls supported"
            )
        return self._rewrite_op_call(call)

    def _rewrite_op_call(self, call: Call) -> Tuple[Expr, Flags]:
        from repro.ops.registry import OpPattern, get_op_def, has_op
        from repro.ops.shape_funcs import normalize_axis

        name = call.op.name
        B = self.batch
        pairs = [self.visit(a) for a in call.args]
        args = [e for e, _ in pairs]
        flags = [f for _, f in pairs]
        out_ty = _member_type(call, name)

        if not any(_any_batched(f) for f in flags):
            # Every input shared: the op is member-independent and runs
            # once, shared (zeros/ones, scalar arithmetic, shape reads).
            return Call(call.op, args, call.attrs), _shared_flags(out_ty)

        member_tys = [_member_type(a, name) for a in call.args]

        if name == "vm.shape_of":
            # Static module: the member shape is a compile-time constant.
            shape = _static_shape(member_tys[0], name)
            from repro.tensor.ndarray import array as make_array

            return Constant(make_array(np.asarray(shape, dtype=np.int64))), False

        if name == "nn.dense":
            if flags[1] is not False:
                raise BatchSpecializeError("batch_dense: batched weights")
            data_shape = _static_shape(member_tys[0], name)
            if len(data_shape) != 2:
                raise BatchSpecializeError(
                    f"batch_dense: rank-{len(data_shape)} dense data"
                )
            return (
                Call(Op.get("nn.batch_dense"), [args[0], args[1]], {"batch": B}),
                True,
            )

        if name == "nn.batch_matmul":
            coerced = [
                self._coerce(a, f, True, t, name)
                for a, f, t in zip(args, flags, member_tys)
            ]
            return Call(call.op, coerced, call.attrs), True

        if name == "nn.bias_add":
            if flags[1] is not False:
                raise BatchSpecializeError("bias_add: batched bias")
            ndim = member_tys[0].ndim
            axis = normalize_axis(call.attrs.get("axis", -1), ndim)
            if axis == 0:
                raise BatchSpecializeError("bias_add along the stacked axis")
            return Call(call.op, args, call.attrs), True

        if name in ("nn.softmax", "nn.log_softmax"):
            ndim = member_tys[0].ndim
            axis = normalize_axis(call.attrs.get("axis", -1), ndim)
            if ndim >= 2 and axis != 0:
                return Call(call.op, args, call.attrs), True
            member_in = _static_shape(member_tys[0], name)
            member_out = _static_shape(out_ty, name)
            return (
                self._lift(args[0], member_in, call.op, {"axis": axis + 1},
                           member_out),
                True,
            )

        if name == "nn.layer_norm":
            if flags[1] is not False or flags[2] is not False:
                raise BatchSpecializeError("layer_norm: batched gamma/beta")
            ndim = member_tys[0].ndim
            axis = normalize_axis(call.attrs.get("axis", -1), ndim)
            if axis == 0:
                raise BatchSpecializeError("layer_norm along the stacked axis")
            return Call(call.op, args, call.attrs), True

        if name == "reshape":
            member_out = _static_shape(out_ty, name)
            if not member_out:
                raise BatchSpecializeError("reshape to a member scalar")
            return self._canonical(args[0], member_out), True

        if name == "transpose":
            member_in = _static_shape(member_tys[0], name)
            member_out = _static_shape(out_ty, name)
            axes = call.attrs.get("axes")
            if axes is None:
                axes = tuple(reversed(range(len(member_in))))
            lifted = {"axes": (0,) + tuple(a + 1 for a in axes)}
            return (
                self._lift(args[0], member_in, call.op, lifted, member_out),
                True,
            )

        if name == "take":
            return self._rewrite_take(call, args, flags, member_tys, out_ty)

        if name == "concatenate":
            axis = normalize_axis(
                call.attrs.get("axis", 0), member_tys[0].ndim
            )
            if axis == 0:
                raise BatchSpecializeError("concatenate along the stacked axis")
            leads = set()
            coerced = []
            for a, f, t in zip(args, flags, member_tys):
                coerced.append(self._coerce(a, f, True, t, name))
                leads.add(_static_shape(t, name)[0])
            if len(leads) != 1:
                raise BatchSpecializeError(
                    "concatenate: members with unequal leading dims"
                )
            return Call(call.op, coerced, call.attrs), True

        if name == "split":
            axis = normalize_axis(
                call.attrs.get("axis", 0), member_tys[0].ndim
            )
            if axis == 0:
                raise BatchSpecializeError("split along the stacked axis")
            return Call(call.op, args, call.attrs), _flags_of(out_ty, name)

        if has_op(name) and get_op_def(name).pattern in (
            OpPattern.ELEMWISE, OpPattern.BROADCAST
        ):
            return self._rewrite_elemwise(call, args, flags, member_tys)

        raise BatchSpecializeError(
            f"batch specialization does not support operator {name!r}"
        )

    def _rewrite_elemwise(self, call, args, flags, member_tys) -> Tuple[Expr, Flags]:
        """N-ary row-wise op: batched operands must agree on member shape
        (their stacked row blocks then align member-by-member); shared
        operands either broadcast safely against the stacked value or are
        tiled."""
        name = call.op.name
        batched_shapes = {
            _static_shape(t, name)
            for t, f in zip(member_tys, flags)
            if f is True and isinstance(t, TensorType) and t.ndim >= 1
        }
        if len(batched_shapes) > 1:
            raise BatchSpecializeError(
                f"{name}: batched operands with unequal member shapes "
                f"{sorted(batched_shapes)}"
            )
        member = next(iter(batched_shapes), None)
        out_args = []
        for a, f, t in zip(args, flags, member_tys):
            shared_ok = f is False and (
                member is None
                or self._broadcast_safe(t, TensorType(member, "float32"))
            )
            if f is True or shared_ok:
                out_args.append(a)
                continue
            # A shared operand that is not broadcast-safe can only be
            # tiled when its leading dim equals the batched member's —
            # i.e. member-wise the op does NOT broadcast along axis 0. A
            # lead that broadcasts the members *up* (shared (4, H) against
            # member (1, H)) has no stacked equivalent: tiling would emit
            # an ill-typed op, so refuse and let callers fall back.
            shape = (
                _static_shape(t, name) if isinstance(t, TensorType) else None
            )
            if (
                f is False
                and shape is not None
                and member is not None
                and len(shape) == len(member)
                and shape[0] == member[0]
            ):
                out_args.append(self._coerce(a, f, True, t, name))
            else:
                raise BatchSpecializeError(
                    f"{name}: shared operand of shape {shape} would "
                    f"broadcast members of shape {member} along the "
                    f"stacked axis"
                )
        return Call(call.op, out_args, call.attrs), True

    def _rewrite_take(self, call, args, flags, member_tys, out_ty) -> Tuple[Expr, Flags]:
        from repro.ops.shape_funcs import normalize_axis
        from repro.tensor.ndarray import array as make_array

        data_f, idx_f = flags
        axis = call.attrs.get("axis")
        if data_f is False and idx_f is not False:
            # Gather from a shared table with stacked indices (embedding
            # lookup): member-wise by construction for axis-0/flat gathers.
            if axis is None or normalize_axis(axis, member_tys[0].ndim) == 0:
                return Call(call.op, args, call.attrs), True
            raise BatchSpecializeError("take: stacked indices on an inner axis")
        if data_f is not True:
            raise BatchSpecializeError("take: unsupported operand batching")
        if axis is None:
            raise BatchSpecializeError("take: flat gather from a batched value")
        data_shape = _static_shape(member_tys[0], "take")
        axis = normalize_axis(axis, len(data_shape))
        if axis != 0:
            if idx_f is not False:
                raise BatchSpecializeError("take: batched indices on an inner axis")
            return Call(call.op, args, call.attrs), True
        if idx_f is not False or member_tys[1].ndim != 0:
            raise BatchSpecializeError("take: unsupported axis-0 index shape")
        member_out = _static_shape(out_ty, "take")
        if not member_out:
            raise BatchSpecializeError("take: member-scalar gather")
        # Row r of each member is row r + i*member_rows of the stack:
        # gather every member's row in one kernel with offset indices. A
        # negative index wraps within the *member* (take's own
        # convention), so it must be normalized before the offsets are
        # added — raw `i*rows + (-1)` would wrap within the whole stack
        # and hand member i another member's row. The normalization folds
        # to a constant for constant indices.
        lead = np.int64(data_shape[0])
        zero = Constant(make_array(np.int64(0)))
        wrapped = Call(
            Op.get("add"), [args[1], Constant(make_array(lead))], None
        )
        is_negative = Call(Op.get("less"), [args[1], zero], None)
        normalized = Call(
            Op.get("where"), [is_negative, wrapped, args[1]], None
        )
        offsets = Constant(
            make_array(np.arange(self.batch, dtype=np.int64) * lead)
        )
        indices = Call(Op.get("add"), [offsets, normalized], None)
        gathered = Call(call.op, [args[0], indices], {"axis": 0})
        return self._canonical(gathered, member_out), True


class SpecializeBatch(Pass):
    """Rewrite a fully static module to run ``batch`` identical-shape
    members in one execution (§"batch-granularity specialized kernels").

    The entry signature is stacked along a new leading-dim binding
    (:func:`repro.core.typing.bind.batch_type`): every rank≥1 tensor
    parameter of member shape ``(d0, rest...)`` becomes
    ``(batch·d0, rest...)``, holding the axis-0 concatenation of the
    members. GEMMs compile to one ``nn.batch_dense`` / stacked
    ``nn.batch_matmul`` per site — the batched-GEMM amortization.

    **The bit-identity invariant.** The serving layer routes one request
    stream across three tiers (dynamic / member-specialized /
    batch-specialized) and promises the tier is unobservable in the
    outputs, so the rewrite must be bit-exact, not merely numerically
    close. Two rules enforce that:

    1. *Member-sliced reference numerics.* BLAS GEMM is not row-stable
       across M — stacking B members into one ``(B·L, K) @ (K, N)`` call
       can flip last bits vs. B separate ``(L, K)`` calls — so
       ``nn.batch_dense`` is **priced** as a single batched launch (that
       is the whole throughput win) while its reference numerics slice
       the stacked input back into members and run exactly the
       member-wise computation (see ``ops/nn._batch_dense_compute``).
       Bit-identity with the member tiers then holds by construction.
    2. *No cross-member mixing.* Every rewritten op must map member i's
       rows to member i's rows: row-wise ops apply to the stacked value
       directly, layout ops that would mix members across the leading
       axis are lifted over an explicit ``(batch, *member)`` reshape,
       axis-0 gathers get per-member offset indices (with negative
       indices normalized *within* the member before offsetting), and
       scalars stay shared — all members of a batch-specialized bucket
       have the same exact shape, so shape-derived control flow is
       member-independent. Anything that cannot satisfy the rule raises
       rather than approximates.

    Raises :class:`BatchSpecializeError` on modules it cannot batch
    (ADT/control structures over member-dependent data, unsupported
    layout ops); the serving layer treats that as "member-wise tiers
    only". ``tests/test_differential.py`` fuzzes the invariant: all
    three tiers bitwise-equal over randomized shapes, batches, seeds.
    """

    name = "SpecializeBatch"

    def __init__(self, batch: int, entry: str = "main") -> None:
        if batch < 1:
            raise CompilerError(f"batch must be >= 1, got {batch}")
        self.batch = batch
        self.entry = entry

    def run(self, mod: IRModule) -> IRModule:
        from repro.core.typing import infer_types
        from repro.errors import TypeInferenceError

        if self.entry not in mod:
            raise CompilerError(f"module has no entry function {self.entry!r}")
        if self.batch == 1:
            return mod
        typed = infer_types(mod)
        entry_fn = typed[self.entry]

        def has_scalar_leaf(ty: Optional[Type]) -> bool:
            if isinstance(ty, TensorType):
                return ty.ndim == 0
            if isinstance(ty, TupleType):
                return any(has_scalar_leaf(f) for f in ty.fields)
            return False

        for param in entry_fn.params:
            ty = param.checked_type
            if ty is None or has_any_dim(ty):
                raise BatchSpecializeError(
                    f"batch specialization requires a fully static entry; "
                    f"%{param.name_hint}: {ty!r}"
                )
            # Rank-0 *entry* params carry per-member data but have no axis
            # to stack along — treating them as shared would silently feed
            # member 0's value to every member. (Rank-0 params of inner
            # functions are fine: they are derived from shared state.)
            if has_scalar_leaf(ty):
                raise BatchSpecializeError(
                    f"batch specialization: entry parameter "
                    f"%{param.name_hint} is rank-0 ({ty!r}) — per-member "
                    f"scalars cannot stack"
                )
        # The entry's outputs must stack too: a rank-0 output leaf has no
        # axis for the caller to split back into members, so it would
        # compile fine and then crash the serving worker at run time.
        entry_ret = entry_fn.ret_type
        if entry_ret is None or has_any_dim(entry_ret):
            entry_ret = entry_fn.body.checked_type
        if has_scalar_leaf(entry_ret):
            raise BatchSpecializeError(
                f"batch specialization: entry output contains a rank-0 "
                f"leaf ({entry_ret!r}) — per-member scalars cannot split"
            )

        out = IRModule()
        out.type_data = dict(typed.type_data)
        out._global_type_vars = dict(typed._global_type_vars)
        gv_map = {gv: out.get_global_var(gv.name_hint) for gv in typed.functions}

        # First pass: batched signatures (param/return flags and stacked
        # annotations) for every function, so recursive calls line up.
        signatures: Dict[GlobalVar, Tuple[Tuple[Flags, ...], Flags]] = {}
        stacked_params: Dict[GlobalVar, List[Var]] = {}
        stacked_rets: Dict[GlobalVar, Type] = {}
        for gv, func in typed.functions.items():
            flags = []
            params = []
            for p in func.params:
                ty = p.checked_type or p.type_annotation
                what = f"@{gv.name_hint} parameter %{p.name_hint}"
                if ty is None or has_any_dim(ty):
                    raise BatchSpecializeError(f"{what}: not statically typed")
                flags.append(_flags_of(ty, what))
                try:
                    params.append(Var(p.name_hint, batch_type(ty, self.batch, what)))
                except TypeInferenceError as err:
                    raise BatchSpecializeError(str(err)) from None
            # Builders may declare the return with a *fresh* Any token the
            # shape binding never touches; the inferred body type is the
            # authoritative (static) one.
            ret_ty = func.ret_type
            if ret_ty is None or has_any_dim(ret_ty):
                ret_ty = func.body.checked_type
            what = f"@{gv.name_hint} return"
            if ret_ty is None or has_any_dim(ret_ty):
                raise BatchSpecializeError(f"{what}: not statically typed")
            try:
                stacked_rets[gv] = batch_type(ret_ty, self.batch, what)
            except TypeInferenceError as err:
                raise BatchSpecializeError(str(err)) from None
            signatures[gv] = (tuple(flags), _flags_of(ret_ty, what))
            stacked_params[gv] = params

        for gv, func in typed.functions.items():
            rewriter = _BatchRewriter(self.batch, gv_map, signatures)
            for i, (p, new_p) in enumerate(zip(func.params, stacked_params[gv])):
                rewriter._memo[id(p)] = (new_p, signatures[gv][0][i])
            body, body_flags = rewriter.visit(func.body)
            want = signatures[gv][1]
            if body_flags != want:
                ret_member = func.body.checked_type
                body = rewriter._coerce(
                    body, body_flags, want, ret_member, f"@{gv.name_hint} return"
                )
            out[gv_map[gv]] = Function(
                stacked_params[gv], body, stacked_rets[gv], func.attrs
            )
        return out
