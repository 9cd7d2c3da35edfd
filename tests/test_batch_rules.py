"""Each operator's batch rule, one op at a time: ``SpecializeBatch(3)`` on
a one-op static module must give, split three ways, bitwise what three
member-wise runs give (both through the IR evaluator)."""

import inspect

import numpy as np
import pytest

from repro.errors import BatchSpecializeError
from repro.evaluator import evaluate
from repro.ir import Call, Function, IRModule, Op, TensorType, Var, const, pretty_module
from repro.ops import all_op_names, api, get_op_def
from repro.ops.batching import elementwise
from repro.ops.registry import OpPattern
from repro.passes import SpecializeBatch

B = 3
F32 = "float32"

# Elementwise ops that take no operand: every call of one is shared, so
# its rule is never asked.
NO_OPERAND = {"zeros", "ones", "full"}


def _rng(seed=0):
    return np.random.RandomState(seed)


def _data(shape, dtype=F32, seed=0):
    if dtype == "int64":
        return _rng(seed).randint(0, shape[0] if shape else 1, size=shape).astype(np.int64)
    # Positive and away from 0, so log / sqrt / power / divide stay finite.
    return (np.abs(_rng(seed).randn(*shape)) + 0.5).astype(dtype)


def _members_match_stack(build, shapes, dtypes=None):
    """``build(*params)`` over entry params of member *shapes*: the
    batched module's output, split ``B`` ways, is bitwise each member's."""
    dtypes = dtypes or [F32] * len(shapes)
    params = [Var(f"x{i}", TensorType(s, d)) for i, (s, d) in enumerate(zip(shapes, dtypes))]
    mod = IRModule.from_expr(Function(params, build(*params)))
    batched = SpecializeBatch(B)(mod)
    members = [[_data(s, d, seed=10 * m + i) for i, (s, d) in enumerate(zip(shapes, dtypes))]
               for m in range(B)]
    stacked = [np.concatenate([m[i] for m in members], axis=0) for i in range(len(shapes))]
    got = evaluate(batched, *stacked)
    for m, inputs in enumerate(members):
        want = evaluate(mod, *inputs)
        pairs = [(got, want)] if isinstance(want, np.ndarray) else zip(got, want)
        for g, w in pairs:
            part = np.split(np.asarray(g), B, axis=0)[m]
            assert part.dtype == w.dtype and part.shape == w.shape
            assert part.tobytes() == w.tobytes()
    return batched


def _arity(op_def):
    fn = op_def.ufunc
    if isinstance(fn, np.ufunc):
        return fn.nin
    return len([p for p in inspect.signature(fn).parameters if p != "out"])


def _ufunc_cases():
    """Every registered op with a ufunc: unary on a batched operand;
    binary against a batched operand, a trailing shared one and a
    full-shape shared one (tiled)."""
    member = (4, 5)
    for name in all_op_names():
        op_def = get_op_def(name)
        if op_def.ufunc is None:
            continue
        call = lambda *args, op=Op.get(name): Call(op, list(args))
        if _arity(op_def) == 1:
            yield name, "batched", (lambda x, call=call: call(x)), [member]
            continue
        yield name, "batched", (lambda x, y, call=call: call(x, y)), [member, member]
        row = const(_data((member[-1],), seed=7))
        yield name, "shared row", (lambda x, call=call, row=row: call(x, row)), [member]
        full = const(_data(member, seed=8))
        yield name, "shared tiled", (lambda x, call=call, full=full: call(full, x)), [member]


UFUNC_CASES = list(_ufunc_cases())


@pytest.mark.parametrize("name,kind,build,shapes", UFUNC_CASES,
                         ids=[f"{c[0]}:{c[1]}" for c in UFUNC_CASES])
def test_ufunc_op_batches_bitwise(name, kind, build, shapes):
    assert get_op_def(name).batch_rule is elementwise
    _members_match_stack(build, shapes)


def _table(shape, seed=3):
    return const(_data(shape, seed=seed))


# (op, case id, build, member shapes, dtypes or None)
HAND_WRITTEN = [
    ("nn.softmax", "rank-1 member, lifted", lambda x: api.softmax(x), [(6,)], None),
    ("nn.softmax", "last axis", lambda x: api.softmax(x), [(4, 6)], None),
    ("nn.log_softmax", "rank-1 member, lifted", lambda x: api.log_softmax(x), [(6,)], None),
    ("nn.log_softmax", "axis 0, lifted", lambda x: api.log_softmax(x, axis=0), [(4, 6)], None),
    ("transpose", "reversed", lambda x: api.transpose(x), [(4, 6)], None),
    ("transpose", "axes", lambda x: api.transpose(x, (1, 2, 0)), [(2, 3, 4)], None),
    ("take", "constant -1 on axis 0", lambda x: api.take(x, const(np.int64(-1)), axis=0),
     [(4, 6)], None),
    ("take", "shared table, stacked indices",
     lambda i: api.take(_table((7, 5)), i, axis=0), [(4,)], ["int64"]),
    ("take", "inner axis", lambda x: api.take(x, const(np.array([2, 0], np.int64)), axis=1),
     [(4, 6)], None),
    ("concatenate", "axis 1, shared operand tiled",
     lambda x: api.concatenate([x, _table((4, 2))], axis=1), [(4, 6)], None),
    ("split", "axis 1", lambda x: api.split(x, 3, axis=1), [(4, 6)], None),
    ("nn.layer_norm", "shared gamma, beta",
     lambda x: api.layer_norm(x, _table((6,), 1), _table((6,), 2)), [(4, 6)], None),
    ("nn.bias_add", "last axis", lambda x: api.bias_add(x, _table((6,))), [(4, 6)], None),
    ("nn.bias_add", "axis 1 of 3", lambda x: api.bias_add(x, _table((3,)), axis=1),
     [(2, 3, 4)], None),
    ("nn.dense", "shared weight", lambda x: api.dense(x, _table((5, 6))), [(4, 6)], None),
    ("nn.dense", "shared weight in sections",
     lambda x: Call(Op.get("nn.dense"), [x, _table((9, 6))], {"sections": (2, 5)}),
     [(4, 6)], None),
    ("nn.batch_matmul", "shared rhs tiled",
     lambda x: api.batch_matmul(x, _table((2, 5, 6))), [(2, 4, 6)], None),
    ("nn.batch_matmul", "both batched", lambda x, y: api.batch_matmul(x, y),
     [(2, 4, 6), (2, 5, 6)], None),
    ("reshape", "regrouped", lambda x: api.reshape(x, (2, 12)), [(4, 6)], None),
    ("reshape", "flattened", lambda x: api.reshape(x, (24,)), [(4, 6)], None),
    ("vm.shape_of", "folds to the member shape", lambda x: api.shape_of(x), [(4, 6)], None),
    ("logical_not", "batched", lambda x: api.logical_not(api.greater(x, const(np.float32(1.0)))),
     [(4, 6)], None),
    ("cast", "to int64", lambda x: api.cast(x, "int64"), [(4, 6)], None),
    ("where", "batched condition, shared branch",
     lambda x: api.where(api.greater(x, const(np.float32(1.0))), x, _table((6,))), [(4, 6)], None),
    ("clip", "batched", lambda x: api.clip(x, 0.75, 1.25), [(4, 6)], None),
    ("nn.gelu", "batched", lambda x: api.gelu(x), [(4, 6)], None),
    ("nn.batch_norm_inference", "per-channel shared statistics",
     lambda x: api.batch_norm_inference(
         x, _table((3,), 1), _table((3,), 2), _table((3,), 4), _table((3,), 5)),
     [(2, 3, 4)], None),
]


@pytest.mark.parametrize("name,case,build,shapes,dtypes", HAND_WRITTEN,
                         ids=[f"{c[0]}:{c[1]}" for c in HAND_WRITTEN])
def test_hand_written_case_batches_bitwise(name, case, build, shapes, dtypes):
    batched = _members_match_stack(build, shapes, dtypes)
    assert get_op_def(name).batch_rule is not None
    if "lifted" in case:  # over an explicit (B, *member) axis
        assert f"newshape=({B}, " in pretty_module(batched)


def test_a_dense_already_cut_into_members_is_refused():
    """A second batch rewrite would cut members of members: the rule
    refuses, where ``batch=3`` over ``batch=2`` would slice rows across
    the first rewrite's members."""
    x = Var("x", TensorType((4, 6), F32))
    mod = IRModule.from_expr(
        Function([x], Call(Op.get("nn.dense"), [x, _table((5, 6))], {"batch": 2})))
    with pytest.raises(BatchSpecializeError, match="already cut"):
        SpecializeBatch(B)(mod)


def test_every_rule_carrying_op_is_checked():
    """Each op with a rule has a case above, or takes no operand."""
    with_rule = {n for n in all_op_names() if get_op_def(n).batch_rule is not None}
    covered = {c[0] for c in UFUNC_CASES} | {c[0] for c in HAND_WRITTEN} | NO_OPERAND
    assert with_rule <= covered


def test_rule_carriers_are_the_named_ops_and_the_elementwise_ones_but_broadcast_to():
    """The ops that batch: twelve with their own handling, every
    ELEMWISE / BROADCAST op — and not ``broadcast_to``, whose ``shape``
    attr is a member shape, so no row-wise rewrite of it is well typed."""
    named = {"vm.shape_of", "nn.dense", "nn.batch_matmul", "nn.bias_add", "nn.softmax",
             "nn.log_softmax", "nn.layer_norm", "reshape", "transpose", "take",
             "concatenate", "split"}
    pointwise = {n for n in all_op_names()
                 if get_op_def(n).pattern in (OpPattern.ELEMWISE, OpPattern.BROADCAST)}
    with_rule = {n for n in all_op_names() if get_op_def(n).batch_rule is not None}
    assert with_rule == (named | pointwise) - {"broadcast_to"}

