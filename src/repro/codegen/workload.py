"""Kernel workload analysis and the NumPy executor for primitive functions.

A fused kernel's cost is determined by its *workload*: FLOPs, bytes moved
across the memory hierarchy, and the resident working set. Fusion is
modeled faithfully — intermediates inside a fused group stay in registers
or cache, so only external inputs and final outputs count toward bytes
moved (that is precisely why fusion wins).
"""

from __future__ import annotations

import itertools
import linecache
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memory.prim_info import interpret_shapes
from repro.errors import CompilerError, VMError
from repro.ir.expr import Call, Constant, Expr, Function, Let, Tuple as IRTuple, TupleGetItem, Var
from repro.ir.op import Op
from repro.ir.types import TupleType
from repro.ops import get_op_def
from repro.ops.shape_funcs import prod
from repro.tensor.dtype import dtype_bytes

Shape = Tuple[int, ...]

# Ops whose cost profile is GEMM-like (compute-bound at scale). The one
# authoritative set — the kernel cost model and the profiler's GEMM
# launch counting both import it.
GEMM_OPS = frozenset(
    {"nn.dense", "nn.batch_dense", "nn.batch_matmul", "nn.conv2d"}
)


@dataclass(frozen=True)
class Workload:
    flops: float
    bytes_moved: float
    working_set: float
    is_gemm: bool
    out_shapes: Tuple[Shape, ...]


class _Tally:
    """What the workload reads off each operator call of the shape
    interpretation: its FLOPs, the bytes of the constants it reads, and
    whether any call is a GEMM."""

    def __init__(self) -> None:
        self.calls = 0
        self.flops = 0.0
        self.const_bytes = 0.0
        self.is_gemm = False

    def __call__(self, call: Call, op_def, arg_shapes, outs) -> None:
        self.calls += 1
        self.flops += op_def.flops(arg_shapes, outs, call.attrs)
        self.const_bytes += sum(a.value.nbytes for a in call.args if isinstance(a, Constant))
        self.is_gemm = self.is_gemm or call.op.name in GEMM_OPS


def _out_dtypes(func: Function, count: int) -> List[str]:
    ret = func.ret_type
    fields = ret.fields if isinstance(ret, TupleType) else [ret] * count
    return [getattr(f, "dtype", "float32") for f in fields]


def compute_workload(func: Function, in_shapes: Sequence[Shape]) -> Workload:
    """Analyze one fused kernel at concrete input shapes: the body's
    shape interpretation, tallying each call on the way."""
    tally = _Tally()
    out_shapes = tuple(interpret_shapes(func, in_shapes, tally))
    if not tally.calls:
        raise CompilerError("workload of a primitive without calls")

    # Bytes: external params in + every output out; constants embedded in
    # the body count toward both traffic and the working set.
    bytes_in = tally.const_bytes
    for p, shape in zip(func.params, in_shapes):
        ty = p.checked_type or p.type_annotation
        bytes_in += prod(shape) * dtype_bytes(getattr(ty, "dtype", "float32"))

    bytes_out = sum(
        prod(s) * dtype_bytes(dtype)
        for s, dtype in zip(out_shapes, _out_dtypes(func, len(out_shapes)))
    )

    return Workload(
        flops=tally.flops,
        bytes_moved=bytes_in + bytes_out,
        working_set=bytes_in + bytes_out,
        is_gemm=tally.is_gemm,
        out_shapes=out_shapes,
    )


class KernelProgram:
    """A primitive body compiled once to one Python function.

    ``source`` is its text. The parameters unpack into locals ``p0..``;
    each operator call is one line ``vK = op_<name>([operands], aK)``
    calling that operator's ``compute``; an IR ``Tuple`` / ``TupleGetItem``
    is an inline tuple display / subscript; a ``Constant`` is a global
    ``cK`` bound to its array by reference, so an in-place write to it is
    seen by the next run. Operands are emitted before their user, so
    nested (hand-built, non-ANF) calls run in post-order.

    ``run(inputs, outputs=None)`` is the compiled function itself: no
    step loop, recursion, ``Var`` hashing or registry lookup per launch.
    Without *outputs* it returns the list of results. With them — the
    VM's calling convention, destination passing — it checks their
    count and each one's shape against the results and writes each
    result into its buffer, raising `VMError` on a mismatch (the kernel
    named by its ops, as `KernelSet.name` is). The text is compiled
    under a file name inside this module's, registered with
    ``linecache``, so a traceback through a kernel prints the generated
    line.
    """

    __slots__ = ("source", "run")

    def __init__(self, func: Function) -> None:
        n = len(func.params)
        names: Dict[Var, str] = {p: f"p{i}" for i, p in enumerate(func.params)}
        bound: dict = {"asarray": np.asarray, "copyto": np.copyto, "CompilerError": CompilerError,
                       "output_count_error": output_count_error, "misfit_error": misfit_error,
                       "write_outputs": write_outputs}
        tuples: Dict[str, List[str]] = {}  # the fields of each tuple display
        constants = itertools.count()
        lines: List[str] = []
        ops: List[str] = []

        def lower(expr: Expr) -> str:
            """The name holding *expr*'s value, its operands emitted first."""
            if isinstance(expr, Var):
                if expr not in names:
                    raise CompilerError(f"kernel lowering: unbound variable {expr.name_hint!r}")
                return names[expr]
            if isinstance(expr, Constant):
                const = f"c{next(constants)}"
                bound[const] = expr.data
                return const
            if isinstance(expr, IRTuple):
                fields = [lower(f) for f in expr.fields]
                value = f"({', '.join(fields)}{',' if len(fields) == 1 else ''})"
                tuples[f"v{len(lines)}"] = fields
            elif isinstance(expr, TupleGetItem):
                value = f"{lower(expr.tuple_value)}[{int(expr.index)}]"
            elif isinstance(expr, Call) and isinstance(expr.op, Op):
                args = ", ".join([lower(a) for a in expr.args])
                ops.append(expr.op.name)
                fn = "op_" + expr.op.name.replace(".", "_")
                bound[fn] = get_op_def(expr.op.name).compute
                bound[f"a{len(lines)}"] = expr.attrs
                value = f"{fn}([{args}], a{len(lines)})"
            else:
                raise CompilerError(f"kernel lowering: cannot evaluate {type(expr).__name__}")
            dst = f"v{len(lines)}"
            lines.append(f"    {dst} = {value}")
            return dst

        node: Expr = func.body
        while isinstance(node, Let):
            names[node.var] = lower(node.value)
            node = node.body
        result = lower(node)
        name = bound["NAME"] = f"fused_{'+'.join(ops)}"
        fields = tuples.get(result)
        if fields is None:  # one value, unless its op made it a tuple
            lines.append(f"    if isinstance({result}, tuple): "
                         f"return write_outputs(NAME, {result}, outputs)")
            fields = [result]
        elif lines[-1].startswith(f"    {result} = "):
            lines.pop()  # the display itself: nothing after it reads it
        m = len(fields)
        lines += [
            "    if outputs is None:",
            f"        return [{', '.join(f'asarray({f})' for f in fields)}]",
            f"    if len(outputs) != {m}: raise output_count_error(NAME, {m}, len(outputs))",
            f"    ({''.join(f'o{i}, ' for i in range(m))}) = outputs",
        ]
        for i, f in enumerate(fields):
            lines += [f"    z = asarray({f})",
                      f"    if o{i}.shape != z.shape: raise misfit_error(z, o{i})",
                      f"    copyto(o{i}, z)"]
        lines[:0] = [
            "def kernel(inputs, outputs=None):",
            f"    if len(inputs) != {n}:",
            f'        raise CompilerError(f"kernel arity mismatch: {n} params, '
            '{len(inputs)} inputs")',
        ] + ([f"    {''.join(f'p{i}, ' for i in range(n))}= inputs"] if n else [])
        self.source = "\n".join(lines) + "\n"
        filename = f"{__file__}<{name}:{zlib.crc32(self.source.encode()):08x}>"
        exec(compile(self.source, filename, "exec"), bound)
        linecache.cache[filename] = (len(self.source), None, self.source.splitlines(True), filename)
        self.run = bound["kernel"]


def write_outputs(name: str, result: tuple, outputs: Optional[Sequence[np.ndarray]]):
    """A kernel whose last op returned a tuple: its results as a list,
    or written into *outputs*, each after its count and shape are
    checked."""
    results = [np.asarray(r) for r in result]
    if outputs is None:
        return results
    if len(results) != len(outputs):
        raise output_count_error(name, len(results), len(outputs))
    for out, z in zip(outputs, results):
        if out.shape != z.shape:
            raise misfit_error(z, out)
        np.copyto(out, z)


def output_count_error(name: str, produced: int, buffers: int) -> VMError:
    return VMError(f"kernel {name} produced {produced} outputs for {buffers} buffers")


def misfit_error(result: np.ndarray, out: np.ndarray) -> VMError:
    return VMError(f"kernel output shape {result.shape} does not fit buffer {out.shape}")


def run_prim_func(func: Function, inputs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Execute a primitive function body on NumPy arrays: lower, then run.

    This is the numerical ground truth for every kernel variant — symbolic,
    residue-specialized and library implementations all compute the same
    values; only their *cost* differs. ``KernelSet.run`` keeps the lowered
    program; this one-shot form lowers per call.
    """
    return KernelProgram(func).run(inputs)
