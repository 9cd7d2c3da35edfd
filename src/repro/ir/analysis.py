"""IR analyses: variable accounting, traversal orders, the view of an ANF
scope, structural equality.

The free-variable computation relies on the *unique binder* convention:
every ``Var`` object is bound at most once (fresh objects are created for
every binder by builders and passes), so ``free = used − bound`` is exact.
All walks are iterative — ANF bodies can be thousands of bindings long.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

import numpy as np

from repro.ir.expr import (
    Call,
    Clause,
    Constant,
    Constructor,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    PatternConstructor,
    PatternVar,
    Tuple,
    TupleGetItem,
    Var,
)
from repro.ir.op import Op
from repro.ir.types import Type, type_hash


def _children(expr: Expr) -> Iterable[Expr]:
    """Direct sub-expressions of *expr* (excluding binders)."""
    if isinstance(expr, Call):
        yield expr.op
        yield from expr.args
    elif isinstance(expr, Tuple):
        yield from expr.fields
    elif isinstance(expr, TupleGetItem):
        yield expr.tuple_value
    elif isinstance(expr, Function):
        yield expr.body
    elif isinstance(expr, Let):
        yield expr.value
        yield expr.body
    elif isinstance(expr, If):
        yield expr.cond
        yield expr.true_branch
        yield expr.false_branch
    elif isinstance(expr, Match):
        yield expr.data
        for clause in expr.clauses:
            yield clause.rhs


def _pattern_vars(pattern) -> Iterable[Var]:
    if isinstance(pattern, PatternVar):
        yield pattern.var
    elif isinstance(pattern, PatternConstructor):
        for sub in pattern.patterns:
            yield from _pattern_vars(sub)


def iter_nodes(expr: Expr) -> Iterable[Expr]:
    """All unique nodes reachable from *expr* (pre-order, iterative)."""
    seen: Set[int] = set()
    stack: List[Expr] = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(_children(node))


# --------------------------------------------------------------------------
# ANF scopes
# --------------------------------------------------------------------------
# A scope is a let chain ending in its tail. A bound value's nested scopes
# are the arms of an If, the right-hand sides of a Match and the body of a
# function that is not primitive (a kernel body is not part of the
# program's control flow). Every rewriting pass sees a scope through these.

Binding = PyTuple[Var, Expr]


def let_chain(expr: Expr) -> PyTuple[List[Binding], Expr]:
    """The ``(var, value)`` bindings of the let chain *expr* heads, in
    order, and the chain's tail (*expr* itself when it is no Let)."""
    bindings: List[Binding] = []
    while isinstance(expr, Let):
        bindings.append((expr.var, expr.value))
        expr = expr.body
    return bindings, expr


def fold_lets(bindings: Sequence[Binding], tail: Expr) -> Expr:
    """The let chain binding *bindings* in order around *tail*."""
    for var, value in reversed(bindings):
        tail = Let(var, value, tail)
    return tail


def nested_scopes(value: Expr) -> Sequence[Expr]:
    """The scopes nested in bound value *value*, in evaluation order."""
    if isinstance(value, If):
        return (value.true_branch, value.false_branch)
    if isinstance(value, Match):
        return [clause.rhs for clause in value.clauses]
    if isinstance(value, Function) and not value.is_primitive:
        return (value.body,)
    return ()


def map_nested_scopes(value: Expr, rewrite: Callable[[Expr], Expr]) -> Expr:
    """*value* rebuilt with each nested scope replaced by ``rewrite(scope)``;
    a value with no nested scope is returned as the same object."""
    if isinstance(value, If):
        return If(value.cond, rewrite(value.true_branch), rewrite(value.false_branch))
    if isinstance(value, Match):
        clauses = [Clause(c.pattern, rewrite(c.rhs)) for c in value.clauses]
        return Match(value.data, clauses, value.complete)
    if isinstance(value, Function) and not value.is_primitive:
        return Function(value.params, rewrite(value.body), value.ret_type, value.attrs)
    return value


def use_sites(bindings: Sequence[Binding], tail: Expr) -> Dict[Var, List[int]]:
    """Per variable, the indices of the bindings whose value reads it
    (nested scopes included), once each and in order; a read in *tail*
    is index ``len(bindings)``."""
    sites: Dict[Var, List[int]] = {}
    for i, root in enumerate([value for _, value in bindings] + [tail]):
        for node in iter_nodes(root):
            if isinstance(node, Var):
                sites.setdefault(node, []).append(i)
    return sites


def free_vars(expr: Expr) -> List[Var]:
    """Free variables of *expr*, in deterministic first-use order."""
    bound: Set[Var] = set(bound_vars(expr))
    out: List[Var] = []
    seen: Set[Var] = set()
    # Deterministic ordering requires an in-order walk of uses.
    stack: List[Expr] = [expr]
    visited: Set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        if isinstance(node, Var):
            if node not in bound and node not in seen:
                seen.add(node)
                out.append(node)
            continue
        stack.extend(reversed(list(_children(node))))
    return out


def bound_vars(expr: Expr) -> List[Var]:
    """All variables bound anywhere inside *expr* (params, lets, patterns)."""
    out: List[Var] = []
    for node in iter_nodes(expr):
        if isinstance(node, Let):
            out.append(node.var)
        elif isinstance(node, Function):
            out.extend(node.params)
        elif isinstance(node, Match):
            for clause in node.clauses:
                out.extend(_pattern_vars(clause.pattern))
    return out


def post_dfs_order(expr: Expr) -> List[Expr]:
    """Post-order over the dataflow DAG (each unique node once); operands
    precede users. Operator fusion consumes this order."""
    order: List[Expr] = []
    seen: Set[int] = set()
    stack: List[PyTuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def count_nodes(expr: Expr) -> int:
    return sum(1 for _ in iter_nodes(expr))


# --------------------------------------------------------------------------
# Structural (alpha) equality and hashing
# --------------------------------------------------------------------------


def structural_equal(a: Expr, b: Expr) -> bool:
    """Alpha-equivalence of two expressions; free variables must be the
    identical objects, bound variables are matched positionally."""
    return a is b or _structural_equal(a, b, {})


def _attrs_equal(x: dict, y: dict) -> bool:
    if x.keys() != y.keys():
        return False
    for key in x:
        xv, yv = x[key], y[key]
        if isinstance(xv, np.ndarray) or isinstance(yv, np.ndarray):
            if not np.array_equal(np.asarray(xv), np.asarray(yv)):
                return False
        elif xv != yv:
            return False
    return True


def _structural_equal(a: Expr, b: Expr, env: Dict[Var, Var]) -> bool:
    # Iterate let-chains to bound stack depth.
    while isinstance(a, Let) and isinstance(b, Let):
        if not _structural_equal(a.value, b.value, env):
            return False
        env[a.var] = b.var
        a, b = a.body, b.body
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return env.get(a, a) is b
    if isinstance(a, (GlobalVar, Constructor)):
        return a is b
    if isinstance(a, Op):
        return a.name == b.name
    if isinstance(a, Constant):
        # Passes share weights by reference: the same array is equal
        # without reading a byte of it.
        if a.value is b.value or a.data is b.data:
            return True
        return (
            a.value.dtype == b.value.dtype
            and a.value.shape == b.value.shape
            and np.array_equal(a.data, b.data)
        )
    if isinstance(a, Call):
        return (
            len(a.args) == len(b.args)
            and _attrs_equal(a.attrs, b.attrs)
            and _structural_equal(a.op, b.op, env)
            and all(_structural_equal(x, y, env) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Tuple):
        return len(a.fields) == len(b.fields) and all(
            _structural_equal(x, y, env) for x, y in zip(a.fields, b.fields)
        )
    if isinstance(a, TupleGetItem):
        return a.index == b.index and _structural_equal(a.tuple_value, b.tuple_value, env)
    if isinstance(a, Function):
        if len(a.params) != len(b.params):
            return False
        inner = dict(env)
        for pa, pb in zip(a.params, b.params):
            inner[pa] = pb
        return _structural_equal(a.body, b.body, inner)
    if isinstance(a, If):
        return (
            _structural_equal(a.cond, b.cond, env)
            and _structural_equal(a.true_branch, b.true_branch, env)
            and _structural_equal(a.false_branch, b.false_branch, env)
        )
    if isinstance(a, Match):
        if len(a.clauses) != len(b.clauses) or a.complete != b.complete:
            return False
        if not _structural_equal(a.data, b.data, env):
            return False
        for ca, cb in zip(a.clauses, b.clauses):
            if not _patterns_match(ca.pattern, cb.pattern):
                return False
            inner = dict(env)
            for va, vb in zip(_pattern_vars(ca.pattern), _pattern_vars(cb.pattern)):
                inner[va] = vb
            if not _structural_equal(ca.rhs, cb.rhs, inner):
                return False
        return True
    if isinstance(a, Let):  # chains of unequal length fall through to here
        return False
    return a is b


def _patterns_match(pa, pb) -> bool:
    if type(pa) is not type(pb):
        return False
    if isinstance(pa, PatternConstructor):
        return pa.constructor is pb.constructor and len(pa.patterns) == len(pb.patterns) and all(
            _patterns_match(x, y) for x, y in zip(pa.patterns, pb.patterns)
        )
    return True


def structural_hash(expr: Expr) -> int:
    """A hash consistent with :func:`structural_equal` (alpha-insensitive).

    Intended for hashing *values* in ANF (calls over vars/constants); deep
    let-chains are folded iteratively. A constant contributes its dtype,
    shape and :func:`constant_sample`, so a hash is a bucket, not an
    identity: callers confirm a hit with :func:`structural_equal`.
    """
    return _structural_hash(expr, {})


def _structural_hash(expr: Expr, env: Dict[Var, int]) -> int:
    parts: List = [type(expr).__name__]
    while isinstance(expr, Let):
        parts.append(_structural_hash(expr.value, env))
        env = dict(env)
        env[expr.var] = len(env)
        expr = expr.body
        parts.append("let")
    if isinstance(expr, Var):
        parts.append(env.get(expr, id(expr)))
    elif isinstance(expr, (GlobalVar, Constructor)):
        parts.append(id(expr))
    elif isinstance(expr, Op):
        parts.append(expr.name)
    elif isinstance(expr, Constant):
        parts.append((expr.value.dtype, expr.value.shape, constant_sample(expr.data)))
    elif isinstance(expr, Call):
        parts.append(_structural_hash(expr.op, env))
        parts.extend(_structural_hash(a, env) for a in expr.args)
        parts.append(tuple(sorted((k, _hashable_attr(v)) for k, v in expr.attrs.items())))
    elif isinstance(expr, Tuple):
        parts.extend(_structural_hash(f, env) for f in expr.fields)
    elif isinstance(expr, TupleGetItem):
        parts.append(expr.index)
        parts.append(_structural_hash(expr.tuple_value, env))
    elif isinstance(expr, Function):
        inner = dict(env)
        for p in expr.params:
            inner[p] = len(inner)
        parts.append(len(expr.params))
        parts.append(_structural_hash(expr.body, inner))
    elif isinstance(expr, If):
        parts.append(_structural_hash(expr.cond, env))
        parts.append(_structural_hash(expr.true_branch, env))
        parts.append(_structural_hash(expr.false_branch, env))
    elif isinstance(expr, Match):
        parts.append(_structural_hash(expr.data, env))
        for clause in expr.clauses:
            inner = dict(env)
            for v in _pattern_vars(clause.pattern):
                inner[v] = len(inner)
            parts.append(_structural_hash(clause.rhs, inner))
    return hash(tuple(parts))


# Elements of a constant that reach its structural hash.
CONSTANT_HASH_SAMPLE = 64


def constant_sample(data: np.ndarray) -> bytes:
    """What a constant contributes to :func:`structural_hash`: all of an
    array of at most ``CONSTANT_HASH_SAMPLE`` elements, else every
    ⌈n / 64⌉-th element plus the last. Hashing a weight costs O(1) of
    its size; equal arrays give equal samples, and every caller
    confirms a hash hit with :func:`structural_equal`."""
    n = data.size
    if n <= CONSTANT_HASH_SAMPLE:
        return bytes(data.data)
    flat = data.flat  # strided picks: no copy of the whole array
    return bytes(flat[::-(-n // CONSTANT_HASH_SAMPLE)].data) + bytes(flat[n - 1:].data)


def _hashable_attr(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return tuple(_hashable_attr(v) for v in value)
    if isinstance(value, Type):
        return type_hash(value)
    return value
