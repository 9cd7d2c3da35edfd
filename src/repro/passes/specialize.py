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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.typing.bind import Binding, batch_type, bind_any_dims, collect_shape_bindings
from repro.errors import BatchSpecializeError, CompilerError
from repro.ir.analysis import fold_lets, let_chain
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
from repro.ops.batching import BatchCall, Flags, coerce, flags_of
from repro.ops.registry import get_op_def
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
            chain, tail = let_chain(expr)
            bindings = [(self.visit(var), self.visit(value)) for var, value in chain]
            return fold_lets(bindings, self.visit(tail))
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

    Construct with ``shapes`` — one concrete shape spec per entry
    parameter (ints for tensor params, nested sequences for tuple params,
    ``None`` to leave a param or a dim dynamic). After :meth:`run`,
    ``bound_shapes`` records the entry parameter shapes the module was
    specialized to.
    """

    name = "SpecializeShapes"

    def __init__(
        self,
        shapes: Optional[Sequence] = None,
        entry: str = "main",
    ) -> None:
        self.shapes = shapes
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
        binding: Binding = {}
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


class _BatchRewriter:
    """Rebuilds one function at batch granularity.

    The invariant: a batched tensor's flat (C-order) layout equals the
    concatenation of its members' flat layouts, member 0 first. An op
    call whose inputs are all shared runs once, shared; any other is
    rewritten by its op's ``batch_rule`` (``repro.ops.batching``), and
    an op without one is refused. Scalars stay shared — every member of
    a batch-specialized bucket has the same exact shape, so all
    shape-derived control flow is member-independent.
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
            chain, tail = let_chain(expr)
            bindings = []
            for var, value in chain:
                value, flags = self.visit(value)
                new_var = Var(var.name_hint)
                self._memo[id(var)] = (new_var, flags)
                bindings.append((new_var, value))
            out, out_flags = self.visit(tail)
            return fold_lets(bindings, out), out_flags
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
                false_b = coerce(false_b, ff, tf, member, self.batch, "if branch")
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
                new_args.append(coerce(new_arg, have, want, member, self.batch,
                                       f"call to @{call.op.name_hint}"))
            return Call(self.gv_map[call.op], new_args, call.attrs), ret_flags
        if not isinstance(call.op, Op):
            raise BatchSpecializeError(
                "batch specialization: only operator and global calls supported"
            )
        return self._rewrite_op_call(call)

    def _rewrite_op_call(self, call: Call) -> Tuple[Expr, Flags]:
        name = call.op.name
        pairs = [self.visit(a) for a in call.args]
        args = [e for e, _ in pairs]
        flags = [f for _, f in pairs]
        out_ty = _member_type(call, name)
        if not any(_any_batched(f) for f in flags):
            # Every input shared: the op is member-independent and runs
            # once, shared (zeros/ones, scalar arithmetic, shape reads).
            return Call(call.op, args, call.attrs), _shared_flags(out_ty)
        rule = get_op_def(name).batch_rule
        if rule is None:
            raise BatchSpecializeError(
                f"batch specialization does not support operator {name!r}"
            )
        member_tys = [_member_type(a, name) for a in call.args]
        return rule(BatchCall(call, args, flags, member_tys, out_ty, self.batch))


class SpecializeBatch(Pass):
    """Rewrite a fully static module to run ``batch`` identical-shape
    members in one execution (§"batch-granularity specialized kernels").

    The entry signature is stacked along a new leading-dim binding
    (:func:`repro.core.typing.bind.batch_type`): every rank≥1 tensor
    parameter of member shape ``(d0, rest...)`` becomes
    ``(batch·d0, rest...)``, holding the axis-0 concatenation of the
    members. GEMMs compile to one ``nn.dense`` cut into ``batch``
    members or one stacked ``nn.batch_matmul`` per site — the
    batched-GEMM amortization.

    **The bit-identity invariant.** The serving layer routes one request
    stream across three tiers (dynamic / member-specialized /
    batch-specialized) and promises the tier is unobservable in the
    outputs, so the rewrite must be bit-exact, not merely numerically
    close. Two rules enforce that:

    1. *Member-sliced reference numerics.* BLAS GEMM is not row-stable
       across M — stacking B members into one ``(B·L, K) @ (K, N)`` call
       can flip last bits vs. B separate ``(L, K)`` calls — so a dense
       with ``batch=B`` is **priced** as a single batched launch (that
       is the whole throughput win) while its numerics slice the
       stacked input back into members and run exactly the member-wise
       computation (see ``ops/nn._dense_compute``).
       Bit-identity with the member tiers then holds by construction.
    2. *No cross-member mixing.* Every rewritten op must map member i's
       rows to member i's rows. How an op does that is its own
       declaration, ``OpDef.batch_rule`` (``repro.ops.batching``):
       elementwise and row-wise ops apply to the stacked value directly,
       ops along the leading axis are lifted over an explicit
       ``(batch, *member)`` reshape, and ops that change form say how
       (a dense gains ``batch``; axis-0 gathers with per-member offset
       indices, negative ones normalized *within* the member first).
       Scalars stay shared — all members of a batch-specialized bucket
       have the same exact shape, so shape-derived control flow is
       member-independent.

    Raises :class:`BatchSpecializeError` on modules it cannot batch (an
    op with no rule or whose rule refuses, ADT/control structures over
    member-dependent data) — a refusal, never a guess; the serving layer
    treats it as "member-wise tiers only". ``tests/test_differential.py``
    fuzzes the invariant: all three tiers bitwise-equal over randomized
    shapes, batches, seeds.
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
                flags.append(flags_of(ty, what))
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
            signatures[gv] = (tuple(flags), flags_of(ret_ty, what))
            stacked_params[gv] = params

        for gv, func in typed.functions.items():
            rewriter = _BatchRewriter(self.batch, gv_map, signatures)
            for i, (p, new_p) in enumerate(zip(func.params, stacked_params[gv])):
                rewriter._memo[id(p)] = (new_p, signatures[gv][0][i])
            body, body_flags = rewriter.visit(func.body)
            want = signatures[gv][1]
            if body_flags != want:
                ret_member = func.body.checked_type
                body = coerce(body, body_flags, want, ret_member, self.batch,
                              f"@{gv.name_hint} return")
            out[gv_map[gv]] = Function(
                stacked_params[gv], body, stacked_rets[gv], func.attrs
            )
        return out
