"""The dynamic type system (§4.1).

The central extension over a static deep-learning IR is the :class:`Any`
dimension: a tensor type may mark some dimensions as statically unknown,
e.g. ``Tensor[(1, 10, Any), float32]``. Type relations propagate ``Any``
through operators, and checks that cannot be discharged statically are
deferred to runtime shape functions (gradual typing).

Sub-shaping (§4.1 "Type Inference") is supported by giving each ``Any`` an
optional *identity token*: two ``Any`` dims carrying the same token are
known to be equal at runtime even though their value is unknown, which the
symbolic code generator exploits to emit shape-specialized kernels.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.errors import TypeInferenceError
from repro.tensor.dtype import is_valid_dtype

_any_tokens = itertools.count()


class Type:
    """Base class of all IR types."""

    def __eq__(self, other) -> bool:  # structural equality, Any-insensitive tokens
        return type_equal(self, other)

    def __ne__(self, other) -> bool:
        return not type_equal(self, other)

    def __hash__(self) -> int:
        return type_hash(self)


class Any:
    """A statically-unknown tensor dimension.

    ``token`` identifies which runtime value this dimension refers to; two
    ``Any`` dims with the same token are provably equal (sub-shaping). A
    fresh token is drawn when none is given. Equality of *types* ignores
    tokens (``Any == Any``); identity analysis uses :func:`same_dim`.
    """

    __slots__ = ("token",)

    def __init__(self, token: Optional[int] = None) -> None:
        self.token = next(_any_tokens) if token is None else token

    def __repr__(self) -> str:
        return "?"

    # All Any dims compare equal as dimensions-in-types; use same_dim for identity.
    def __eq__(self, other) -> bool:
        return isinstance(other, Any)

    def __hash__(self) -> int:
        return hash("repro.Any")


Dim = Union[int, Any]


def is_static_shape(shape: Sequence[Dim]) -> bool:
    """True when every dimension is a concrete integer."""
    return all(isinstance(d, int) for d in shape)


def same_dim(a: Dim, b: Dim) -> bool:
    """Dimension identity: equal ints, or ``Any`` dims with the same token."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, Any) and isinstance(b, Any):
        return a.token == b.token
    return False


def normalize_shape(shape: Iterable[Dim]) -> Tuple[Dim, ...]:
    out = tuple(shape)
    for dim in out:  # a shape of plain ints, the common case, is kept as it is
        if type(dim) is not int or dim < 0:
            return tuple(map(_normalize_dim, out))
    return out


def _normalize_dim(dim: Dim) -> Dim:
    if isinstance(dim, Any):
        return dim
    if isinstance(dim, int) and not isinstance(dim, bool):
        if dim < 0:
            raise TypeInferenceError(f"negative dimension {dim} in shape")
        return int(dim)
    raise TypeInferenceError(f"invalid dimension {dim!r} in shape")


class TensorType(Type):
    """An n-dimensional tensor with a (possibly partially unknown) shape."""

    __slots__ = ("shape", "dtype")

    def __init__(self, shape: Iterable[Dim], dtype: str = "float32") -> None:
        self.shape = normalize_shape(shape)
        if not is_valid_dtype(dtype):
            raise TypeInferenceError(f"invalid dtype {dtype!r}")
        self.dtype = dtype

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def is_static(self) -> bool:
        return is_static_shape(self.shape)

    def num_elements(self) -> Optional[int]:
        """Element count, or None when any dimension is dynamic."""
        n = 1
        for d in self.shape:
            if isinstance(d, Any):
                return None
            n *= d
        return n

    def __repr__(self) -> str:
        dims = ", ".join(repr(d) if isinstance(d, Any) else str(d) for d in self.shape)
        return f"Tensor[({dims}), {self.dtype}]"


def scalar_type(dtype: str = "float32") -> TensorType:
    """A rank-0 tensor type (conditions, scalar constants)."""
    return TensorType((), dtype)


class TupleType(Type):
    __slots__ = ("fields",)

    def __init__(self, fields: Sequence[Type]) -> None:
        self.fields = tuple(fields)

    def __repr__(self) -> str:
        return "(" + ", ".join(map(repr, self.fields)) + ")"


class FuncType(Type):
    __slots__ = ("arg_types", "ret_type")

    def __init__(self, arg_types: Sequence[Type], ret_type: Type) -> None:
        self.arg_types = tuple(arg_types)
        self.ret_type = ret_type

    def __repr__(self) -> str:
        args = ", ".join(map(repr, self.arg_types))
        return f"fn({args}) -> {self.ret_type!r}"


class TypeVar(Type):
    """A type variable for parametric ADTs (identity-based)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:  # identity semantics
        return self is other

    def __hash__(self) -> int:
        return id(self)


class GlobalTypeVar(Type):
    """Reference to a globally-defined ADT (e.g. ``Tree``); identity-based,
    interned per name by the module."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)


class StorageType(Type):
    """The type of a raw storage block produced by ``memory.alloc_storage``
    (§4.3). Not user-visible; appears only after the manifest-allocation
    pass has made memory explicit."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Storage"


class TypeCall(Type):
    """Instantiation of an ADT: ``TypeCall(Tree, [Tensor[(150,), f32]])``."""

    __slots__ = ("func", "args")

    def __init__(self, func: GlobalTypeVar, args: Sequence[Type] = ()) -> None:
        self.func = func
        self.args = tuple(args)

    def __repr__(self) -> str:
        if not self.args:
            return repr(self.func)
        return f"{self.func!r}[{', '.join(map(repr, self.args))}]"


def type_equal(a: Type, b: Type) -> bool:
    """Structural type equality. ``Any`` dims compare equal to each other
    (but not to concrete ints) — identity of Any dims is a separate,
    finer-grained analysis (:func:`same_dim`)."""
    if a is b:
        return True
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        if a.dtype != b.dtype or len(a.shape) != len(b.shape):
            return False
        return all(
            (isinstance(x, Any) and isinstance(y, Any)) or x == y
            for x, y in zip(a.shape, b.shape)
        )
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        return len(a.fields) == len(b.fields) and all(
            type_equal(x, y) for x, y in zip(a.fields, b.fields)
        )
    if isinstance(a, FuncType) and isinstance(b, FuncType):
        return (
            len(a.arg_types) == len(b.arg_types)
            and all(type_equal(x, y) for x, y in zip(a.arg_types, b.arg_types))
            and type_equal(a.ret_type, b.ret_type)
        )
    if isinstance(a, TypeCall) and isinstance(b, TypeCall):
        return (
            a.func is b.func
            and len(a.args) == len(b.args)
            and all(type_equal(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, StorageType) and isinstance(b, StorageType):
        return True
    if isinstance(a, (TypeVar, GlobalTypeVar)) or isinstance(b, (TypeVar, GlobalTypeVar)):
        return a is b
    return False


def type_hash(t: Type) -> int:
    if isinstance(t, TensorType):
        dims = tuple("?" if isinstance(d, Any) else d for d in t.shape)
        return hash(("tensor", dims, t.dtype))
    if isinstance(t, TupleType):
        return hash(("tuple", tuple(type_hash(f) for f in t.fields)))
    if isinstance(t, FuncType):
        return hash(
            ("func", tuple(type_hash(a) for a in t.arg_types), type_hash(t.ret_type))
        )
    if isinstance(t, TypeCall):
        return hash(("tycall", id(t.func), tuple(type_hash(a) for a in t.args)))
    if isinstance(t, (TypeVar, GlobalTypeVar)):
        return id(t)
    return hash(type(t).__name__)


def has_any_dim(t: Type) -> bool:
    """True when *t* (recursively) contains an ``Any`` dimension."""
    if isinstance(t, TensorType):
        return any(isinstance(d, Any) for d in t.shape)
    if isinstance(t, TupleType):
        return any(has_any_dim(f) for f in t.fields)
    if isinstance(t, FuncType):
        return any(has_any_dim(a) for a in t.arg_types) or has_any_dim(t.ret_type)
    if isinstance(t, TypeCall):
        return any(has_any_dim(a) for a in t.args)
    return False
