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
from repro.ir.types import TensorType, TupleType
from repro.ops import get_op_def
from repro.ops.shape_funcs import normalize_axis, prod
from repro.tensor.dtype import dtype_bytes

Shape = Tuple[int, ...]

# Ops whose cost profile is GEMM-like (compute-bound at scale). The one
# authoritative set — the kernel cost model and the profiler's GEMM
# launch counting both import it.
GEMM_OPS = frozenset({"nn.dense", "nn.batch_matmul", "nn.conv2d"})


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
    each operator call is one line: the op's ``OpDef.lower``, calling
    NumPy directly (``repro.ops.registry``), or where it has none or it
    declines, ``vK = op_<name>([operands], aK)`` calling ``compute``.
    What is not per-op is decided here:

    * ``split`` into equal sections of a static dim is one basic-slice
      view per section, emitted where a use first reads it;
    * **sibling sections share one call:** where one unary elementwise
      op reads two or more sections of one such split, the first of
      those calls is one call over the contiguous span of sections from
      the first it reads to the last, and each call is a basic-slice
      view of that result — the LSTM cell's three sigmoids are one. A
      ufunc is elementwise, so a section of the span's result is bitwise
      the call on that section. A section inside the span that the op
      does not read (the LSTM's ``g`` under the sigmoid) is computed and
      dropped; a section the op reads alone keeps its own call.

    An IR ``Tuple`` is a tuple display, emitted only where a use reads
    the tuple whole; a ``TupleGetItem`` of one (or of a split) is the
    field's name, of any other value a subscript. A ``Constant`` is a
    global ``cK`` bound to its array by reference, so an in-place write
    to it is seen by the next run.
    Operands are emitted before their user, so nested (hand-built,
    non-ANF) calls run in post-order.

    ``run(inputs, outputs=None)`` is the compiled function itself: no
    step loop, recursion, ``Var`` hashing or registry lookup per launch.
    Without *outputs* it returns the list of results. With them — the
    VM's calling convention, destination passing — it checks their
    count and each one's shape against the results and writes each
    result into its buffer, raising `VMError` on a mismatch (the kernel
    named by its ops, as `KernelSet.name` is). An output whose last op
    is a lowering with a guard operand (an elementwise op's) is written
    by that op itself (``out=oI``) if that operand has the buffer's
    shape: NumPy then rejects any result that does not fit, where a
    smaller one would otherwise broadcast into the buffer; failing the
    guard, the result is fresh and the checked copy runs. A view of a
    shared call's result is never written so: it takes the checked
    copy. The text is compiled under a file name inside this module's,
    registered with ``linecache``, so a traceback through a kernel
    prints the generated line.
    """

    __slots__ = ("source", "run")

    def __init__(self, func: Function) -> None:
        n = len(func.params)
        names: Dict[Var, str] = {p: f"p{i}" for i, p in enumerate(func.params)}
        bound: dict = {"asarray": np.asarray, "copyto": np.copyto, "CompilerError": CompilerError,
                       "output_count_error": output_count_error, "misfit_error": misfit_error,
                       "write_outputs": write_outputs, "NO_BUFFER": NO_BUFFER}
        # A tuple's fields by its key, and a split's section by its key:
        # (the split, its index, the split data's name, axis and section
        # width). A key some use reads is emitted there, once — a tuple
        # read whole as a display, a section as its view.
        tuples: Dict[str, List[str]] = {}
        sections: Dict[str, Tuple[Call, int, str, int, int]] = {}
        shown: Dict[str, str] = {}
        # Sections one unary op reads together, and each span call's name.
        siblings = _sibling_sections(func)
        spans: Dict[Tuple[int, str], str] = {}
        # A lowered line with a guard operand, which may write a buffer: (index, text, guard).
        writable: Dict[str, Tuple[int, str, str]] = {}
        constants = itertools.count()
        lines: List[str] = []
        ops: List[str] = []

        def emit(value: str) -> str:
            dst = f"v{len(lines)}"
            lines.append(f"    {dst} = {value}")
            return dst

        def display(fields: List[str]) -> str:
            key = f"t{len(tuples)}"
            tuples[key] = fields
            return key

        def whole(value: str) -> str:
            if value not in shown:
                if value in tuples:
                    fields = [whole(f) for f in tuples[value]]
                    shown[value] = emit(f"({', '.join(fields)}{',' if len(fields) == 1 else ''})")
                elif value in sections:
                    _, index, data, axis, width = sections[value]
                    shown[value] = emit(_view(data, axis, index * width, width))
            return shown.get(value, value)

        def shared(expr: Call, key: str) -> Optional[str]:
            """*expr* on the section *key* as a view of the call it shares
            with its sibling sections, or None where it has none."""
            split, index, data, axis, width = sections[key]
            group = (id(split), expr.op.name)
            if index not in siblings.get(group, ()):
                return None
            first, last = siblings[group][0], siblings[group][-1]
            if group not in spans:
                direct = get_op_def(expr.op.name).lower(
                    expr, [_view(data, axis, first * width, (last + 1 - first) * width)])
                if direct is None:
                    return None
                bound.update(direct[1])
                spans[group] = emit(direct[0])
            return emit(_view(spans[group], axis, (index - first) * width, width))

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
                return display([whole(lower(f)) for f in expr.fields])
            if isinstance(expr, TupleGetItem):
                value = lower(expr.tuple_value)
                if value in tuples:
                    return tuples[value][expr.index]
                return emit(f"{whole(value)}[{int(expr.index)}]")
            if not (isinstance(expr, Call) and isinstance(expr.op, Op)):
                raise CompilerError(f"kernel lowering: cannot evaluate {type(expr).__name__}")
            operands = [lower(a) for a in expr.args]
            name = expr.op.name
            ops.append(name)
            if len(operands) == 1 and operands[0] in sections:
                view = shared(expr, operands[0])
                if view is not None:
                    return view
            args = [whole(a) for a in operands]
            cut = _equal_sections(expr) if name == "split" else None
            if cut is not None:
                count, axis, width = cut
                keys = [f"s{len(sections) + i}" for i in range(count)]
                sections.update((k, (expr, i, args[0], axis, width)) for i, k in enumerate(keys))
                return display(keys)
            op_def = get_op_def(name)
            direct = op_def.lower(expr, args) if op_def.lower else None
            if direct is None:
                fn = "op_" + name.replace(".", "_")
                bound[fn] = op_def.compute
                bound[f"a{len(lines)}"] = expr.attrs
                return emit(f"{fn}([{', '.join(args)}], a{len(lines)})")
            text, binds, guard = direct
            bound.update(binds)
            dst = emit(text)
            if guard is not None:
                writable[dst] = (len(lines) - 1, text[:-1], args[guard])
            return dst

        node: Expr = func.body
        while isinstance(node, Let):
            names[node.var] = lower(node.value)
            node = node.body
        result = lower(node)
        name = bound["NAME"] = f"fused_{'+'.join(ops)}"
        if result in tuples:
            fields = [whole(f) for f in tuples[result]]
        else:  # one value, unless its op made it a tuple
            fields = [whole(result)]
            if fields[0] not in writable:
                lines.append(f"    if isinstance({fields[0]}, tuple): "
                             f"return write_outputs(NAME, {fields[0]}, outputs)")
        m = len(fields)
        buffers = "".join(f"o{i}, " for i in range(m))
        written: Dict[str, int] = {}  # a field its own op writes -> that buffer
        for i, f in enumerate(fields):
            if f in writable and f not in written:
                at, call, guard = writable[f]
                lines[at] = f"    {f} = {call}, out=o{i} if {guard}.shape == o{i}.shape else None)"
                written[f] = i
        if written:  # the buffers are unpacked before the ops that write them
            lines[:0] = [
                f"    if outputs is None: {buffers}= {'NO_BUFFER, ' * m}".rstrip(),
                f"    elif len(outputs) != {m}: raise output_count_error(NAME, {m}, len(outputs))",
                f"    else: {buffers}= outputs",
            ]
        lines += ["    if outputs is None:",
                  f"        return [{', '.join(f'asarray({f})' for f in fields)}]"]
        if not written:
            lines += [f"    if len(outputs) != {m}: raise output_count_error(NAME, {m}, len(outputs))",
                      f"    ({buffers}) = outputs"]
        for i, f in enumerate(fields):
            indent = "    "
            if written.get(f) == i:
                lines.append(f"    if {f} is not o{i}:")
                indent = "        "
            lines += [f"{indent}z = asarray({f})",
                      f"{indent}if o{i}.shape != z.shape: raise misfit_error(z, o{i})",
                      f"{indent}copyto(o{i}, z)"]
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


class _NoBuffer:
    """The output buffers of a kernel run without any: no result's shape
    matches one, so every op that could write a buffer returns a fresh
    result."""

    __slots__ = ()
    shape = None


NO_BUFFER = _NoBuffer()


def _equal_sections(call: Call) -> Optional[Tuple[int, int, int]]:
    """A ``split`` into equal sections of a static dim as (sections, axis,
    section width), or None when the sections are indices or the dim is
    dynamic."""
    sections = call.attrs["indices_or_sections"]
    ty = call.args[0].checked_type
    if not isinstance(sections, int) or sections <= 0 or not isinstance(ty, TensorType):
        return None
    axis = normalize_axis(call.attrs.get("axis", 0), ty.ndim)
    dim = ty.shape[axis]
    if not isinstance(dim, int) or dim % sections:
        return None
    return sections, axis, dim // sections


def _view(data: str, axis: int, start: int, width: int) -> str:
    """The basic slice of *data* holding *width* entries of *axis* from *start*."""
    return f"{data}[{':, ' * axis}{start}:{start + width}]"


def _sibling_sections(func: Function) -> Dict[Tuple[int, str], Tuple[int, ...]]:
    """Where one unary elementwise op reads two or more sections of one
    ``split`` — directly or through let-bound variables — the sections it
    reads, in order, keyed by (the split's id, the op's name)."""
    bound: Dict[Var, Expr] = {}
    calls: List[Call] = []
    seen = set()
    stack: List[Expr] = [func.body]
    while stack:
        expr = stack.pop()
        if id(expr) in seen:
            continue
        seen.add(id(expr))
        if isinstance(expr, Let):
            bound[expr.var] = expr.value
            stack += (expr.value, expr.body)
        elif isinstance(expr, Call):
            calls.append(expr)
            stack += expr.args
        elif isinstance(expr, IRTuple):
            stack += expr.fields
        elif isinstance(expr, TupleGetItem):
            stack.append(expr.tuple_value)

    def resolve(expr: Expr) -> Expr:
        while isinstance(expr, Var) and expr in bound:
            expr = bound[expr]
        return expr

    read: Dict[Tuple[int, str], set] = {}
    for call in calls:
        if not (isinstance(call.op, Op) and len(call.args) == 1
                and get_op_def(call.op.name).ufunc is not None):
            continue
        section = resolve(call.args[0])
        if isinstance(section, TupleGetItem):
            split = resolve(section.tuple_value)
            if isinstance(split, Call) and isinstance(split.op, Op) and split.op.name == "split":
                read.setdefault((id(split), call.op.name), set()).add(section.index)
    return {group: tuple(sorted(indices)) for group, indices in read.items() if len(indices) > 1}


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
