"""IR expression nodes (a Relay-like functional IR).

The IR is a small functional language over tensors: variables, constants,
operator calls, functions (with recursion through module-level global
variables), ``let`` binding, ``if``, tuples, and pattern matching over
algebraic data types. Dynamic models map onto it directly: control flow
becomes ``If`` + recursive calls, dynamic data structures become ADTs, and
dynamic shapes live in the types (:mod:`repro.ir.types`).

Every expression carries a ``checked_type`` slot filled in by type
inference; compiler passes may rely on it after ``InferType`` has run.
"""

from __future__ import annotations

from typing import Any as PyAny
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CompilerError
from repro.ir.types import TensorType, Type
from repro.tensor.ndarray import NDArray, array as make_array


class Expr:
    """Base class for all IR expressions."""

    __slots__ = ("checked_type",)

    def __init__(self) -> None:
        self.checked_type: Optional[Type] = None

    @property
    def ttype(self) -> TensorType:
        """The checked type, asserted to be a TensorType."""
        if not isinstance(self.checked_type, TensorType):
            raise CompilerError(
                f"expected TensorType on {type(self).__name__}, got {self.checked_type!r}"
            )
        return self.checked_type

    def __repr__(self) -> str:
        from repro.ir.printer import pretty  # local import to avoid a cycle

        return pretty(self)


class Var(Expr):
    """A local variable. Equality is identity: two Vars with the same name
    hint are distinct binders."""

    __slots__ = ("name_hint", "type_annotation")

    def __init__(self, name_hint: str, type_annotation: Optional[Type] = None) -> None:
        super().__init__()
        self.name_hint = name_hint
        self.type_annotation = type_annotation
        if type_annotation is not None:
            self.checked_type = type_annotation

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other


class GlobalVar(Expr):
    """A reference to a module-level function; interned per name by IRModule."""

    __slots__ = ("name_hint",)

    def __init__(self, name_hint: str) -> None:
        super().__init__()
        self.name_hint = name_hint

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other


class Constant(Expr):
    """A tensor constant (weights, scalars). Holds an NDArray."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        super().__init__()
        if isinstance(value, NDArray):
            self.value = value
        else:
            self.value = make_array(value)

    @property
    def data(self) -> np.ndarray:
        return self.value.numpy()


class Tuple(Expr):
    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Expr]) -> None:
        super().__init__()
        self.fields = tuple(fields)


class TupleGetItem(Expr):
    __slots__ = ("tuple_value", "index")

    def __init__(self, tuple_value: Expr, index: int) -> None:
        super().__init__()
        self.tuple_value = tuple_value
        self.index = int(index)


class Call(Expr):
    """Application of an operator, global function, local function value, or
    fused primitive :class:`Function`."""

    __slots__ = ("op", "args", "attrs")

    def __init__(self, op: Expr, args: Sequence[Expr], attrs: Optional[Dict[str, PyAny]] = None) -> None:
        super().__init__()
        self.op = op
        self.args = tuple(args)
        self.attrs = dict(attrs) if attrs else {}


class Function(Expr):
    """A (possibly anonymous) function.

    ``attrs`` carries compiler metadata: fused groups are marked
    ``{"primitive": True}`` so downstream passes treat them as opaque
    kernels (exactly how Relay marks post-fusion functions).
    """

    __slots__ = ("params", "body", "ret_type", "attrs")

    def __init__(
        self,
        params: Sequence[Var],
        body: Expr,
        ret_type: Optional[Type] = None,
        attrs: Optional[Dict[str, PyAny]] = None,
    ) -> None:
        super().__init__()
        self.params = tuple(params)
        self.body = body
        self.ret_type = ret_type
        self.attrs = dict(attrs) if attrs else {}

    @property
    def is_primitive(self) -> bool:
        return bool(self.attrs.get("primitive"))


class Let(Expr):
    __slots__ = ("var", "value", "body")

    def __init__(self, var: Var, value: Expr, body: Expr) -> None:
        super().__init__()
        self.var = var
        self.value = value
        self.body = body


class If(Expr):
    __slots__ = ("cond", "true_branch", "false_branch")

    def __init__(self, cond: Expr, true_branch: Expr, false_branch: Expr) -> None:
        super().__init__()
        self.cond = cond
        self.true_branch = true_branch
        self.false_branch = false_branch


# --- Algebraic data types (dynamic data structures, e.g. trees) -----------


class Constructor(Expr):
    """An ADT constructor (e.g. ``Node`` / ``Leaf`` of ``Tree``).

    ``tag`` is the runtime discriminant the VM's ``GetTag`` instruction
    reads. Constructors are created by :class:`repro.ir.adt.TypeData` and
    are identity-interned through the module.
    """

    __slots__ = ("name_hint", "inputs", "belongs_to", "tag")

    def __init__(self, name_hint: str, inputs: Sequence[Type], belongs_to, tag: int) -> None:
        super().__init__()
        self.name_hint = name_hint
        self.inputs = tuple(inputs)
        self.belongs_to = belongs_to
        self.tag = tag

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:
        return self is other


class Pattern:
    """Base class for match patterns."""

    __slots__ = ()


class PatternWildcard(Pattern):
    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


class PatternVar(Pattern):
    __slots__ = ("var",)

    def __init__(self, var: Var) -> None:
        self.var = var

    def __repr__(self) -> str:
        return f"%{self.var.name_hint}"


class PatternConstructor(Pattern):
    __slots__ = ("constructor", "patterns")

    def __init__(self, constructor: Constructor, patterns: Sequence[Pattern] = ()) -> None:
        self.constructor = constructor
        self.patterns = tuple(patterns)

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.patterns))
        return f"{self.constructor.name_hint}({inner})"


class Clause:
    __slots__ = ("pattern", "rhs")

    def __init__(self, pattern: Pattern, rhs: Expr) -> None:
        self.pattern = pattern
        self.rhs = rhs


class Match(Expr):
    """Pattern match over an ADT value; lowered by the VM compiler to
    ``GetTag`` + conditional jumps + ``GetField``."""

    __slots__ = ("data", "clauses", "complete")

    def __init__(self, data: Expr, clauses: Sequence[Clause], complete: bool = True) -> None:
        super().__init__()
        self.data = data
        self.clauses = tuple(clauses)
        self.complete = complete


def const(value, dtype: Optional[str] = None) -> Constant:
    """Shorthand for building constants: ``const(1.0)``, ``const([1,2], "int64")``."""
    return Constant(make_array(value, dtype=dtype))
