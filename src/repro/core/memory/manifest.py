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

Data-dependent shape functions receive the input *values* instead of
``shape_of`` results; upper-bound ops additionally get a second output
carrying the actual shape, and the result is sliced with
``vm.slice_upper_bound`` (§4.2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple as PyTuple

import numpy as np

from repro.errors import CompilerError
from repro.ir.expr import (
    Call,
    Clause,
    Expr,
    Function,
    If,
    Let,
    Match,
    Tuple,
    Var,
    const,
)
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import Any, StorageType, TensorType, TupleType, Type
from repro.ops.registry import ShapeFuncMode
from repro.core.memory.prim_info import PrimFuncInfo, analyze_prim_func
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


class _Manifest:
    def __init__(self, names: NameSupply) -> None:
        self.names = names
        self._prim_cache: Dict[tuple, Function] = {}

    # -- scope driver ---------------------------------------------------------
    def rewrite_scope(self, expr: Expr) -> Expr:
        bindings: List[PyTuple[Var, Expr]] = []
        node: Expr = expr
        while isinstance(node, Let):
            bindings.append((node.var, node.value))
            node = node.body
        tail = node

        out: List[PyTuple[Var, Expr]] = []
        for var, value in bindings:
            if isinstance(value, Call) and isinstance(value.op, Function) and value.op.is_primitive:
                out.extend(self.lower_prim_call(var, value))
            elif isinstance(value, If):
                out.append(
                    (
                        var,
                        If(
                            value.cond,
                            self.rewrite_scope(value.true_branch),
                            self.rewrite_scope(value.false_branch),
                        ),
                    )
                )
            elif isinstance(value, Match):
                out.append(
                    (
                        var,
                        Match(
                            value.data,
                            [
                                Clause(c.pattern, self.rewrite_scope(c.rhs))
                                for c in value.clauses
                            ],
                            value.complete,
                        ),
                    )
                )
            elif isinstance(value, Function) and not value.is_primitive:
                out.append(
                    (
                        var,
                        Function(
                            value.params,
                            self.rewrite_scope(value.body),
                            value.ret_type,
                            value.attrs,
                        ),
                    )
                )
            else:
                out.append((var, value))

        result: Expr = tail
        for var, value in reversed(out):
            result = Let(var, value, result)
        return result

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

        # Dynamic outputs: run the shape function first.
        shape_vars = self._emit_shape_func(seq, prim, info, list(call.args))
        if info.returns_shape:
            # Upper-bound op: outputs are (padded data, actual shape); the
            # result is sliced down to the actual shape by a copy kernel
            # allocated from the *actual* shape (§4.2).
            assert len(out_types) == 1, "upper-bound ops have one data output"
            data_ty = out_types[0]
            ub_var = self._alloc_dynamic(seq, shape_vars[0], data_ty, hint="ub")
            actual_ty = TensorType((data_ty.ndim,), "int64")
            actual_var = self._alloc_static(seq, actual_ty, hint="actual")
            self._invoke(seq, prim, list(call.args), [ub_var, actual_var])
            out = self._alloc_dynamic(seq, actual_var, data_ty, hint=var.name_hint)
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
                    self._alloc_dynamic(seq, shape_vars[k], t, hint=var.name_hint)
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

    def _alloc_dynamic(self, seq: List, shape_var: Var, ty: TensorType, hint: str = "t") -> Var:
        # Storage size is itself computed by emitted code: a tiny host
        # "kernel" over the shape vector, with a statically-allocated
        # scalar output — the fixed point of §4.3.
        size = self._alloc_static(seq, TensorType((), "int64"), hint="sz")
        size_prim = self._storage_size_prim(ty.ndim, ty.dtype)
        self._invoke(seq, size_prim, [shape_var], [size], kind="host_scalar")
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
            sf_inputs = []
            for arg in args:
                sh = Var(self.names.fresh("sh"), None)
                seq.append((sh, Call(Op.get("vm.shape_of"), [arg], {})))
                sf_inputs.append(sh)
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
            rewriter = _Manifest(names)
            out.functions[gv] = Function(
                func.params, rewriter.rewrite_scope(func.body), func.ret_type, func.attrs
            )
        return out
