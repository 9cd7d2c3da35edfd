"""The operator registry.

Each operator couples these pieces of semantics (mirroring Relay's op
attributes, plus what Nimble adds):

* **type relation** — compile-time: input types (possibly with ``Any``
  dims) → output type (§4.1);
* **shape function** — runtime: concrete input shapes (and, for
  data-dependent ops, input *values*) → concrete output shapes (§4.2), in
  one of three modes (data-independent / data-dependent / upper-bound).
  A data-independent op has none of its own: its type relation, run on
  concrete types, is its shape function and makes the checks ``Any`` put
  off (:func:`output_shapes`). Only an op whose relation says ``Any``
  where a shape is needed declares a ``shape_func``;
* **compute** — the NumPy kernel body used by every executor; an
  elementwise op also keeps its **ufunc**, the function its compute and
  its lowering are built from;
* **lowering** — the op's line in a generated kernel, calling NumPy
  directly (:data:`Lower`); an op without one calls ``compute``;
* **fusion pattern** — how the fusion pass may combine this op (§4.2's
  fusion policy additionally forbids fusing *into* ops whose shape
  functions are data-dependent or upper-bound);
* **flops** — work estimate consumed by the hardware cost model;
* **batch rule** — how ``SpecializeBatch`` runs the op on stacked
  members (``repro.ops.batching``); an op without one is unbatchable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CompilerError, ShapeError, TypeInferenceError
from repro.ir.expr import Call, Constant, Expr
from repro.ir.op import Op
from repro.ir.types import TensorType, TupleType, Type
from repro.tensor.dtype import to_numpy_dtype


class OpPattern(enum.IntEnum):
    """Fusion patterns, ordered by generality (TVM's TOPI convention)."""

    ELEMWISE = 0
    BROADCAST = 1
    INJECTIVE = 2
    COMM_REDUCE = 3
    OUT_ELEMWISE_FUSABLE = 4
    OPAQUE = 8


class ShapeFuncMode(enum.Enum):
    """The three shape-function modes of §4.2."""

    DATA_INDEPENDENT = "data_independent"
    DATA_DEPENDENT = "data_dependent"
    UPPER_BOUND = "upper_bound"


# Signature aliases (documentation only; Python stays dynamic).
TypeRel = Callable[[Sequence[Type], dict], Type]
Compute = Callable[[Sequence[np.ndarray], dict], object]
ShapeFunc = Callable[[Sequence[Tuple[int, ...]], Sequence[Optional[np.ndarray]], dict], List[Tuple[int, ...]]]
FlopsFn = Callable[[Sequence[Tuple[int, ...]], Sequence[Tuple[int, ...]], dict], float]
Lower = Callable[[Call, List[str]], Optional[Tuple[str, dict, Optional[int]]]]


def _default_flops(in_shapes, out_shapes, attrs) -> float:
    """Default work estimate: one op per output element."""
    total = 0.0
    for shape in out_shapes:
        n = 1.0
        for d in shape:
            n *= d
        total += n
    return total


@dataclass
class OpDef:
    name: str
    type_rel: TypeRel
    compute: Compute
    shape_func: Optional[ShapeFunc] = None
    shape_func_mode: ShapeFuncMode = ShapeFuncMode.DATA_INDEPENDENT
    pattern: OpPattern = OpPattern.OPAQUE
    flops: FlopsFn = _default_flops
    # Upper-bound ops return (data..., actual_shape) from compute; the
    # runtime slices outputs down to the actual shape (§4.2).
    returns_shape: bool = False
    # Elementwise ops: the NumPy function ``compute`` is built from, with a
    # ufunc's calling convention (operands positional, an ``out=`` buffer).
    ufunc: Optional[Callable[..., object]] = None
    # A ``repro.ops.batching`` rule: the call rewritten for stacked
    # members. None refuses the batch rewrite.
    batch_rule: Optional[Callable[..., object]] = None
    # ``lower(call, args)`` -> (text, globals, operand guarding an output write), or None.
    lower: Optional[Lower] = None

    @property
    def is_dynamic_shape_func(self) -> bool:
        """True when fusing other ops *into* this op is forbidden (§4.2)."""
        return self.shape_func_mode in (
            ShapeFuncMode.DATA_DEPENDENT,
            ShapeFuncMode.UPPER_BOUND,
        )


_REGISTRY: Dict[str, OpDef] = {}


def register_op(op_def: OpDef) -> OpDef:
    if op_def.name in _REGISTRY:
        raise CompilerError(f"operator {op_def.name!r} registered twice")
    _REGISTRY[op_def.name] = op_def
    Op.get(op_def.name)  # intern the IR node
    return op_def


def get_op_def(name: str) -> OpDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CompilerError(f"unknown operator {name!r}") from None


def has_op(name: str) -> bool:
    return name in _REGISTRY


def all_op_names() -> List[str]:
    return sorted(_REGISTRY)


def output_types(op_def: OpDef, arg_types: Sequence[TensorType], values, attrs: dict) -> list:
    """The output types of one call at concrete argument types: the op's
    type relation, whose failure here is the run-time check ``Any`` put
    off (a ``ShapeError``, §4.2). An op that declares a ``shape_func``
    (data-dependent, upper-bound) has it give the shapes, from *values*
    where it reads them."""
    try:
        out = op_def.type_rel(arg_types, attrs)
    except TypeInferenceError as err:
        raise ShapeError(f"{op_def.name} runtime check failed: {err}") from err
    fields = list(out.fields) if isinstance(out, TupleType) else [out]
    if op_def.shape_func is None:
        return fields
    shapes = op_def.shape_func([t.shape for t in arg_types], values, attrs)
    return [TensorType(s, f.dtype) for s, f in zip(shapes, fields)]


def output_shapes(op_def: OpDef, arg_types: Sequence[TensorType], values, attrs: dict) -> list:
    """The output shapes of one call at concrete argument types (:func:`output_types`)."""
    return [t.shape for t in output_types(op_def, arg_types, values, attrs)]


def array_type(x: np.ndarray) -> TensorType:
    """The concrete type of an array."""
    return TensorType(x.shape, x.dtype.name)


def operand_probe(arg: Expr) -> Optional[np.ndarray]:
    """An empty array of *arg*'s dtype and rank (a constant's own, else its
    checked type's; of rank 0, one zero), or None where that type is unknown."""
    if isinstance(arg, Constant):
        return np.zeros((0,) * arg.data.ndim, arg.data.dtype)
    ty = arg.checked_type
    if not isinstance(ty, TensorType):
        return None
    return np.zeros((0,) * ty.ndim, to_numpy_dtype(ty.dtype))


def keeps_dtype(call: Call, fn) -> bool:
    """The dtype gate of a lowering that drops ``compute``'s ``.astype``: on
    zero-size operands of the call's dtypes, does *fn* return the dtype
    ``compute`` returns and the type checker declared? (``compute``'s own call needs none.)"""
    declared = call.checked_type
    probes = [operand_probe(a) for a in call.args]
    if not isinstance(declared, TensorType) or any(p is None for p in probes):
        return False
    try:
        with np.errstate(all="ignore"):  # a 0-d probe holds one zero
            got = np.asarray(fn(*probes)).dtype
            want = np.asarray(get_op_def(call.op.name).compute(probes, call.attrs)).dtype
    except (TypeError, ValueError):  # the op rejects these dtypes: compute raises at run time
        return False
    return got == want == to_numpy_dtype(declared.dtype)


def ufunc_lowering(name: str, fn) -> Lower:
    """The lowering of the elementwise op *name* built from *fn*: ``ew_<name>(a, b)``,
    its output-buffer write guarded by its first operand of the result's rank."""
    ew = "ew_" + name.replace(".", "_")

    def lower(call: Call, args: List[str]):
        if not keeps_dtype(call, fn):
            return None
        ndim = call.checked_type.ndim
        guard = next((i for i, a in enumerate(call.args) if operand_probe(a).ndim == ndim), None)
        return f"{ew}({', '.join(args)})", {ew: fn}, guard

    return lower
