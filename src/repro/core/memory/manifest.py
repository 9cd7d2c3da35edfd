"""Manifest allocation (§4.3).

Rewrites each kernel invocation from the implicit-allocation form

    let %out = prim_fn(%a, %b);

into the explicit form with the four memory constructs —

    let %sto  = memory.alloc_storage(<size>);
    let %out  = memory.alloc_tensor(%sto, 0, <shape>);
    let %_    = vm.invoke_mut(prim_fn, (%a, %b), (%out,));

— and, for dynamically-shaped outputs, inserts the shape-function
machinery first (the paper's fixed-point of "allocate for both the
compute and the necessary shape functions"):

    let %sh0  = vm.shape_of(%a);
    let %sh1  = vm.shape_of(%b);
    let %osh  = vm.shape_func(prim_fn, (%sh0, %sh1));
    let %sz   = vm.storage_size(%osh);
    let %sto  = memory.alloc_storage(%sz);
    let %out  = memory.alloc_tensor(%sto, 0, %osh);
    let %_    = vm.invoke_mut(prim_fn, (%a, %b), (%out,));

A symbolic shape is a value, computed once per scope chain. The *shape
class* of a dynamic output type is its dims with each ``Any`` replaced by
its identity token; ``%osh`` enters a table under that class, and a later
data-independent kernel of the same class allocates from ``%osh``
directly — no ``shape_of``, no shape function. A kernel whose class is
that of one of its own arguments (``layer_norm``, ``add``, ``softmax``)
needs only ``vm.shape_of(%a)``. Likewise one ``%sz`` is kept per
*symbolic byte size* (static dims x dtype bytes, times the sorted
tokens), so ``(?a, 256)`` and ``(4, ?a, 64)`` float32 outputs share one
``vm.storage_size`` — and ``MemoryPlan`` can see that their storages are
interchangeable. Entries made inside an ``if``/``match`` branch or a
closure body die with it. A class is only trusted when every token in
it names one runtime value in this function (not one drawn from a call
result, a pattern variable or an ADT element type, where one token
stands for many values) and when no argument carries a token the class
lacks (the shape function is also the runtime check of such a dim).

Data-dependent shape functions receive the input *values* instead of
``shape_of`` results; upper-bound ops additionally get a second output
carrying the actual shape, and the result is sliced with
``vm.slice_upper_bound`` (§4.2). Both always run theirs and never enter
the table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple as PyTuple

import numpy as np

from repro.errors import CompilerError
from repro.ir.analysis import _pattern_vars, fold_lets, iter_nodes, let_chain, map_nested_scopes
from repro.ir.expr import Call, Expr, Function, Let, Match, Tuple, Var, const
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import Any, StorageType, TensorType, TupleType, Type
from repro.ops.registry import ShapeFuncMode
from repro.ops.shape_funcs import prod
from repro.core.memory.prim_info import PrimFuncInfo, analyze_prim_func
from repro.core.typing.bind import collect_any_tokens
from repro.passes.pass_manager import Pass
from repro.tensor.dtype import dtype_bytes
from repro.utils.naming import NameSupply

DEFAULT_ALIGNMENT = 64


def _align(nbytes: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
    return max(alignment, (nbytes + alignment - 1) // alignment * alignment)


def static_tensor_bytes(ty: TensorType) -> int:
    n = ty.num_elements()
    if n is None:
        raise CompilerError(f"static_tensor_bytes on dynamic type {ty!r}")
    return max(1, n) * dtype_bytes(ty.dtype)


def _untrusted_tokens(func: Function) -> Set[int]:
    """``Any`` tokens that may stand for several runtime values inside
    *func*: those in the type of a call result that is not a kernel's (the
    callee's tokens, the same at every call site), of a pattern variable,
    or inside an ADT / function type (one token for every element)."""
    bad: List[int] = []

    def opaque(ty: Optional[Type]) -> None:
        if isinstance(ty, TupleType):
            for f in ty.fields:
                opaque(f)
        elif not isinstance(ty, TensorType):
            collect_any_tokens(ty, bad)

    for node in iter_nodes(func):
        if isinstance(node, Let) and isinstance(node.value, Call):
            op = node.value.op
            if not isinstance(op, Op) and not (isinstance(op, Function) and op.is_primitive):
                collect_any_tokens(node.var.checked_type, bad)
        elif isinstance(node, Match):
            for clause in node.clauses:
                for v in _pattern_vars(clause.pattern):
                    collect_any_tokens(v.checked_type, bad)
        elif isinstance(node, Function):
            for p in node.params:
                opaque(p.checked_type)
    return set(bad)


class _Manifest:
    def __init__(self, names: NameSupply, untrusted: Set[int]) -> None:
        self.names = names
        self.untrusted = untrusted
        self._prim_cache: Dict[tuple, Function] = {}
        # Scope-chain tables: shape class -> shape vector, symbolic byte
        # size -> storage_size result.
        self._shapes: Dict[tuple, Var] = {}
        self._sizes: Dict[tuple, Var] = {}

    # -- scope driver ---------------------------------------------------------
    def rewrite_scope(self, expr: Expr) -> Expr:
        bindings, tail = let_chain(expr)
        out: List[PyTuple[Var, Expr]] = []
        for var, value in bindings:
            if isinstance(value, Call) and isinstance(value.op, Function) and value.op.is_primitive:
                out.extend(self.lower_prim_call(var, value))
            else:
                # What a nested scope learns dies with it; a function
                # body starts from empty tables.
                inherit = not isinstance(value, Function)
                out.append((var, map_nested_scopes(value, lambda s: self._nested(s, inherit))))
        return fold_lets(out, tail)

    def _nested(self, scope: Expr, inherit: bool) -> Expr:
        saved = self._shapes, self._sizes
        self._shapes, self._sizes = (dict(saved[0]), dict(saved[1])) if inherit else ({}, {})
        try:
            return self.rewrite_scope(scope)
        finally:
            self._shapes, self._sizes = saved

    # -- kernel-call lowering ----------------------------------------------------
    def lower_prim_call(self, var: Var, call: Call) -> List[PyTuple[Var, Expr]]:
        prim: Function = call.op  # type: ignore[assignment]
        info = analyze_prim_func(prim)
        out_ty = var.checked_type
        if out_ty is None:
            raise CompilerError("ManifestAlloc requires a type-checked module")
        out_types = self._tensor_fields(out_ty)

        seq: List[PyTuple[Var, Expr]] = []
        if all(t.is_static for t in out_types) and not info.returns_shape:
            out_vars = [
                self._alloc_static(seq, t, hint=var.name_hint) for t in out_types
            ]
            self._invoke(seq, prim, list(call.args), out_vars)
            self._bind_result(seq, var, out_vars, out_ty)
            return seq

        # Dynamic outputs: a shape vector per output, from the table or
        # from the shape function. The outputs of data-dependent and
        # upper-bound ops neither read nor enter the tables.
        shared = info.mode is ShapeFuncMode.DATA_INDEPENDENT
        shape_vars = self._known_shapes(seq, list(call.args), out_types) if shared else None
        if shape_vars is None:
            shape_vars = self._emit_shape_func(seq, prim, info, list(call.args))
            if shared:
                for t, sh in zip(out_types, shape_vars):
                    cls = self._shape_class(t)
                    if cls is not None:
                        self._shapes.setdefault(cls, sh)
        if info.returns_shape:
            # Upper-bound op: outputs are (padded data, actual shape); the
            # result is sliced down to the actual shape by a copy kernel
            # allocated from the *actual* shape (§4.2).
            assert len(out_types) == 1, "upper-bound ops have one data output"
            data_ty = out_types[0]
            ub_var = self._alloc_dynamic(seq, shape_vars[0], data_ty, "ub", share=False)
            actual_ty = TensorType((data_ty.ndim,), "int64")
            actual_var = self._alloc_static(seq, actual_ty, hint="actual")
            self._invoke(seq, prim, list(call.args), [ub_var, actual_var])
            out = self._alloc_dynamic(seq, actual_var, data_ty, var.name_hint, share=False)
            slice_prim = self._slice_prim(data_ty)
            self._invoke(seq, slice_prim, [ub_var, actual_var], [out], kind="compute")
            seq.append((var, out))
            return seq

        out_vars = []
        for k, t in enumerate(out_types):
            if t.is_static:
                out_vars.append(self._alloc_static(seq, t, hint=var.name_hint))
            else:
                out_vars.append(
                    self._alloc_dynamic(seq, shape_vars[k], t, var.name_hint, share=shared)
                )
        self._invoke(seq, prim, list(call.args), out_vars)
        self._bind_result(seq, var, out_vars, out_ty)
        return seq

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _tensor_fields(ty: Type) -> List[TensorType]:
        if isinstance(ty, TensorType):
            return [ty]
        if isinstance(ty, TupleType):
            fields = []
            for f in ty.fields:
                if not isinstance(f, TensorType):
                    raise CompilerError(f"kernel output field is not a tensor: {f!r}")
                fields.append(f)
            return fields
        raise CompilerError(f"kernel output type unsupported: {ty!r}")

    def _alloc_static(
        self, seq: List, ty: TensorType, hint: str = "t"
    ) -> Var:
        nbytes = _align(static_tensor_bytes(ty))
        sto = Var(self.names.fresh("sto"), StorageType())
        seq.append(
            (
                sto,
                Call(
                    Op.get("memory.alloc_storage"),
                    [const(np.int64(nbytes), dtype="int64")],
                    {"alignment": DEFAULT_ALIGNMENT, "static": True},
                ),
            )
        )
        out = Var(self.names.fresh(f"{hint}_buf"), ty)
        seq.append(
            (
                out,
                Call(
                    Op.get("memory.alloc_tensor"),
                    [sto, const(np.int64(0), dtype="int64")],
                    {"ttype": ty, "const_shape": ty.shape},
                ),
            )
        )
        return out

    def _shape_class(self, ty: TensorType) -> Optional[tuple]:
        """Dims with each ``Any`` replaced by its token; None for a static
        type or one with a token that is not trusted here."""
        if ty.is_static or not self.untrusted.isdisjoint(collect_any_tokens(ty)):
            return None
        return tuple((d.token,) if isinstance(d, Any) else d for d in ty.shape)

    def _known_shapes(
        self, seq: List, args: List[Expr], out_types: List[TensorType]
    ) -> Optional[List[Optional[Var]]]:
        """The shape vector of every dynamic output of a data-independent
        kernel without running its shape function, or None when it must
        run: a class seen for the first time, or an argument dim the
        outputs do not mention (the shape function is its runtime check)."""
        classes = [self._shape_class(t) for t in out_types]
        arg_types = [a.checked_type for a in args if isinstance(a, Var)]
        mentioned = set(collect_any_tokens(TupleType(out_types)))
        if not mentioned.issuperset(collect_any_tokens(TupleType(arg_types))):
            return None
        own: Dict[Optional[tuple], Var] = {}
        for a in reversed(args):
            if isinstance(a, Var) and isinstance(a.checked_type, TensorType):
                own[self._shape_class(a.checked_type)] = a
        own.pop(None, None)
        if any(not t.is_static and cls not in self._shapes and cls not in own
               for t, cls in zip(out_types, classes)):
            return None
        for cls in classes:
            if cls in own and cls not in self._shapes:
                self._shape_of(seq, own[cls])  # the class of an argument: read it off
        return [self._shapes.get(cls) for cls in classes]

    def _shape_of(self, seq: List, arg: Expr) -> Var:
        """The shape vector of *arg*: the table's, or a ``vm.shape_of``
        that enters the table when the argument's type has a class."""
        ty = arg.checked_type if isinstance(arg, Var) else None
        cls = self._shape_class(ty) if isinstance(ty, TensorType) else None
        sh = self._shapes.get(cls)
        if sh is None:
            sh = Var(self.names.fresh("sh"), None)
            seq.append((sh, Call(Op.get("vm.shape_of"), [arg], {})))
            if cls is not None:
                self._shapes[cls] = sh
        return sh

    def _alloc_dynamic(
        self, seq: List, shape_var: Var, ty: TensorType, hint: str, share: bool
    ) -> Var:
        # Storage size is itself computed by emitted code: a tiny host
        # "kernel" over the shape vector, with a statically-allocated
        # scalar output — the fixed point of §4.3. One is kept per
        # symbolic byte size: static dims x dtype bytes, sorted tokens.
        key = None
        if share and self._shape_class(ty) is not None:
            static = prod([d for d in ty.shape if isinstance(d, int)])
            tokens = sorted(d.token for d in ty.shape if isinstance(d, Any))
            key = (static * dtype_bytes(ty.dtype), tuple(tokens))
        size = self._sizes.get(key)
        if size is None:
            size = self._alloc_static(seq, TensorType((), "int64"), hint="sz")
            size_prim = self._storage_size_prim(ty.ndim, ty.dtype)
            self._invoke(seq, size_prim, [shape_var], [size], kind="host_scalar")
            if key is not None:
                self._sizes[key] = size
        sto = Var(self.names.fresh("sto"), StorageType())
        seq.append(
            (
                sto,
                Call(
                    Op.get("memory.alloc_storage"),
                    [size],
                    {"alignment": DEFAULT_ALIGNMENT, "static": False},
                ),
            )
        )
        out = Var(self.names.fresh(f"{hint}_buf"), ty)
        seq.append(
            (
                out,
                Call(
                    Op.get("memory.alloc_tensor"),
                    [sto, const(np.int64(0), dtype="int64"), shape_var],
                    {"ttype": ty},
                ),
            )
        )
        return out

    def _emit_shape_func(
        self, seq: List, prim: Function, info: PrimFuncInfo, args: List[Expr]
    ) -> List[Var]:
        """Invoke the (compiled) shape function of *prim*: allocate its
        output shape vectors statically (rank is known), feed it either
        ``shape_of`` results (data-independent / upper-bound) or the input
        values themselves (data-dependent), §4.2."""
        if info.mode is ShapeFuncMode.DATA_DEPENDENT:
            sf_inputs: List[Expr] = list(args)  # values, not shapes
        else:
            sf_inputs = [self._shape_of(seq, arg) for arg in args]
        out_vars = [
            self._alloc_static(seq, TensorType((rank,), "int64"), hint="osh")
            for rank in info.out_ranks
        ]
        self._invoke(seq, prim, sf_inputs, out_vars, kind="shape_func")
        return out_vars

    def _invoke(
        self,
        seq: List,
        prim: Function,
        args: List[Expr],
        out_vars: List[Var],
        kind: str = "compute",
    ) -> None:
        unit = Var(self.names.fresh("u"), None)
        seq.append(
            (
                unit,
                Call(
                    Op.get("vm.invoke_mut"),
                    [prim, Tuple(args), Tuple(out_vars)],
                    {"kind": kind},
                ),
            )
        )

    # Tiny helper primitives (cached so the kernel cache dedupes them).
    def _storage_size_prim(self, ndim: int, dtype: str) -> Function:
        key = ("storage_size", ndim, dtype)
        prim = self._prim_cache.get(key)
        if prim is None:
            shp = Var("shape", TensorType((ndim,), "int64"))
            body = Call(Op.get("vm.storage_size"), [shp], {"dtype": dtype})
            prim = Function([shp], body, TensorType((), "int64"), {"primitive": True})
            self._prim_cache[key] = prim
        return prim

    def _slice_prim(self, data_ty: TensorType) -> Function:
        key = ("slice_ub", data_ty.ndim, data_ty.dtype)
        prim = self._prim_cache.get(key)
        if prim is None:
            data = Var("ub_data", TensorType(tuple(Any() for _ in data_ty.shape), data_ty.dtype))
            actual = Var("actual", TensorType((data_ty.ndim,), "int64"))
            body = Call(Op.get("vm.slice_upper_bound"), [data, actual], {})
            prim = Function(
                [data, actual],
                body,
                TensorType(tuple(Any() for _ in data_ty.shape), data_ty.dtype),
                {"primitive": True},
            )
            self._prim_cache[key] = prim
        return prim

    def _bind_result(self, seq: List, var: Var, out_vars: List[Var], out_ty: Type) -> None:
        if isinstance(out_ty, TensorType):
            # Rebind the original variable to the output buffer (a Move).
            seq.append((var, out_vars[0]))
        else:
            seq.append((var, Tuple(out_vars)))


class ManifestAlloc(Pass):
    """The explicit-allocation rewrite; run after fusion + ANF + typing."""

    name = "ManifestAlloc"

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        names = NameSupply()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            rewriter = _Manifest(names, _untrusted_tokens(func))
            out.functions[gv] = Function(
                func.params, rewriter.rewrite_scope(func.body), func.ret_type, func.attrs
            )
        return out
