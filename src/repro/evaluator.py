"""A tree-walking evaluator over un-lowered IR.

It runs an :class:`IRModule` the way the module reads: no passes, no VM,
no clock. That makes it the oracle compiled code is checked against, and
the program the baseline frameworks execute (:mod:`repro.baselines`).
Every operator call goes through one ``call(op_name, inputs, attrs)``;
by default that is the op's registered NumPy compute, and a baseline
passes its ``OpExecutor.call`` instead.

Host scalars never reach ``call``: ``vm.shape_of``, and any call whose
inputs and outputs all have at most ``HOST_SCALAR_MAX_ELEMENTS``
elements (loop counters, conditions, shape arithmetic). They are
computed here in full, so a framework pays nothing for them and a branch
never reads a value that a lite-numerics ``call`` left as zeros.

Values are NumPy arrays, Python tuples (IR tuples), :class:`ADT` and
:class:`Closure`. Arguments may also be VM objects (an ``ADTObj`` tree
from ``tree_to_adt``, a ``TensorObj``, an ``NDArray``); they are read
into that form first.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.ir import (
    Call,
    Constant,
    Constructor,
    Expr,
    Function,
    GlobalVar,
    If,
    IRModule,
    Let,
    Match,
    Op,
    Pattern,
    PatternConstructor,
    PatternVar,
    PatternWildcard,
    Tuple,
    TupleGetItem,
    Var,
)
from repro.ops import get_op_def
from repro.ops.registry import OpDef, array_type, output_shapes
from repro.ops.shape_funcs import HOST_SCALAR_MAX_ELEMENTS, prod

OpCall = Callable[[str, Sequence[np.ndarray], dict], object]
Answer = Callable[[GlobalVar, list], object]


class ADT:
    """A constructed value: the constructor's tag and its fields."""

    __slots__ = ("tag", "fields")

    def __init__(self, tag: int, fields: Sequence[object]) -> None:
        self.tag = tag
        self.fields = list(fields)


class Closure:
    """A function literal with the environment it was evaluated in."""

    __slots__ = ("func", "env")

    def __init__(self, func: Function, env: Dict[Var, object]) -> None:
        self.func = func
        self.env = env


def compute(op_name: str, inputs: Sequence[np.ndarray], attrs: dict):
    """The default op call: the registered NumPy compute."""
    return get_op_def(op_name).compute(inputs, attrs)


def evaluate(
    mod: IRModule,
    *args,
    call: OpCall = compute,
    charge: Optional[Callable[[Expr, bool], None]] = None,
    answer: Optional[Answer] = None,
):
    """Run ``mod``'s ``main`` on *args* and return its value.

    ``charge(expr, taken)``, if given, is told of each ``Match`` evaluated
    (``taken`` is true) and of each ``If``, ``taken`` saying whether it
    takes its true branch (one loop iteration, where that branch
    recurses). ``answer(gv, args)``, if given, is asked first about each
    call of a global function: it returns the call's value, or ``None``
    to have the call evaluated."""
    main = mod.main
    env = dict(zip(main.params, map(_read, args)))
    return _Evaluator(mod, call, charge, answer).eval(main.body, env)


def _read(value):
    """One argument in evaluator form; an array or an ADT already is."""
    if isinstance(value, (np.ndarray, ADT)):
        return value
    if hasattr(value, "fields"):  # an ADTObj
        return ADT(value.tag, [_read(f) for f in value.fields])
    data = getattr(value, "data", None)  # a TensorObj or NDArray
    return np.asarray(value if data is None else data)


def _is_host_scalar(op_def: OpDef, inputs: Sequence[np.ndarray], attrs: dict) -> bool:
    if op_def.name == "vm.shape_of":
        return True
    if any(x.size > HOST_SCALAR_MAX_ELEMENTS for x in inputs):
        return False
    out_shapes = output_shapes(op_def, [array_type(x) for x in inputs], inputs, attrs)
    return all(prod(s) <= HOST_SCALAR_MAX_ELEMENTS for s in out_shapes)


def _bind(pattern: Pattern, value, env: Dict[Var, object]) -> bool:
    if isinstance(pattern, PatternWildcard):
        return True
    if isinstance(pattern, PatternVar):
        env[pattern.var] = value
        return True
    assert isinstance(pattern, PatternConstructor)
    if value.tag != pattern.constructor.tag:
        return False
    return all(_bind(p, f, env) for p, f in zip(pattern.patterns, value.fields))


class _Evaluator:
    def __init__(self, mod: IRModule, call: OpCall, charge, answer: Optional[Answer]) -> None:
        self.mod = mod
        self.call = call
        self.charge = charge
        self.answer = answer

    def eval(self, expr: Expr, env: Dict[Var, object]):
        # Tail positions (a let body, a branch, a clause, a function
        # body) continue this loop, so a recursive loop runs in constant
        # Python stack; only a value still to be used recurses.
        while True:
            if isinstance(expr, Let):
                env[expr.var] = self.eval(expr.value, env)
                expr = expr.body
            elif isinstance(expr, If):
                taken = bool(self.eval(expr.cond, env))
                if self.charge is not None:
                    self.charge(expr, taken)
                expr = expr.true_branch if taken else expr.false_branch
            elif isinstance(expr, Match):
                if self.charge is not None:
                    self.charge(expr, True)
                value = self.eval(expr.data, env)
                for clause in expr.clauses:
                    if _bind(clause.pattern, value, env):
                        expr = clause.rhs
                        break
                else:
                    raise ValueError("no match clause accepts the value")
            elif isinstance(expr, Call) and not isinstance(expr.op, (Op, Constructor)):
                args = [self.eval(a, env) for a in expr.args]
                if isinstance(expr.op, GlobalVar):
                    value = self.answer and self.answer(expr.op, args)
                    if value is not None:
                        return value
                    func, env = self.mod[expr.op], {}
                else:
                    closure = self.eval(expr.op, env)
                    func, env = closure.func, dict(closure.env)
                env.update(zip(func.params, args))
                expr = func.body
            else:
                return self._value(expr, env)

    def _value(self, expr: Expr, env: Dict[Var, object]):
        if isinstance(expr, Var):
            return env[expr]
        if isinstance(expr, Constant):
            return expr.data
        if isinstance(expr, Tuple):
            return tuple(self.eval(f, env) for f in expr.fields)
        if isinstance(expr, TupleGetItem):
            return self.eval(expr.tuple_value, env)[expr.index]
        if isinstance(expr, Function):
            return Closure(expr, env)
        if isinstance(expr, Call):
            args = [self.eval(a, env) for a in expr.args]
            if isinstance(expr.op, Constructor):
                return ADT(expr.op.tag, args)
            return self._op(expr.op.name, args, expr.attrs)
        raise TypeError(f"cannot evaluate {type(expr).__name__}")

    def _op(self, name: str, inputs: Sequence[np.ndarray], attrs: dict):
        op_def = get_op_def(name)
        if _is_host_scalar(op_def, inputs, attrs):
            result = op_def.compute(inputs, attrs)
        else:
            result = self.call(name, inputs, attrs)
        if isinstance(result, (list, tuple)):
            return tuple(np.asarray(r) for r in result)
        return np.asarray(result)
