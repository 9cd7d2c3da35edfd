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

# The elementwise op that takes no operand: every call of it is shared,
# so its rule is never asked.
NO_OPERAND = {"zeros"}


def _rng(seed=0):
    return np.random.RandomState(seed)


def _data(shape, dtype=F32, seed=0):
    if dtype == "int64":
        return _rng(seed).randint(0, shape[0] if shape else 1, size=shape).astype(np.int64)
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
    """Every registered op with a ufunc: unary on a batched operand of
    rank 1, 2 and 3 and of each float width; binary against a batched
    operand (float and int64), a trailing shared one on either side, a
    shared scalar, a shared column and a full-shape shared one (tiled)."""
    member = (4, 5)
    for name in all_op_names():
        op_def = get_op_def(name)
        if op_def.ufunc is None:
            continue
        call = lambda *args, op=Op.get(name): Call(op, list(args))
        if _arity(op_def) == 1:
            unary = lambda x, call=call: call(x)
            yield name, "batched", unary, [member], None
            yield name, "rank-1 member", unary, [(5,)], None
            yield name, "rank-3 member", unary, [(2, 4, 5)], None
            yield name, "float64", unary, [member], ["float64"]
            continue
        binary = lambda x, y, call=call: call(x, y)
        yield name, "batched", binary, [member, member], None
        yield name, "batched int64", binary, [member, member], ["int64", "int64"]
        yield name, "batched float64", binary, [member, member], ["float64", "float64"]
        row = const(_data((member[-1],), seed=7))
        yield name, "shared row", (lambda x, call=call, row=row: call(x, row)), [member], None
        yield name, "shared row on the left", (lambda x, call=call, row=row: call(row, x)), \
            [member], None
        scalar = const(_data((), seed=9))
        yield name, "shared scalar", (lambda x, call=call, s=scalar: call(x, s)), [member], None
        column = const(_data((member[0], 1), seed=6))
        yield name, "shared column", (lambda x, call=call, c=column: call(x, c)), [member], None
        full = const(_data(member, seed=8))
        yield name, "shared tiled", (lambda x, call=call, full=full: call(full, x)), [member], None


UFUNC_CASES = list(_ufunc_cases())


@pytest.mark.parametrize("name,kind,build,shapes,dtypes", UFUNC_CASES,
                         ids=[f"{c[0]}:{c[1]}" for c in UFUNC_CASES])
def test_ufunc_op_batches_bitwise(name, kind, build, shapes, dtypes):
    assert get_op_def(name).batch_rule is elementwise
    _members_match_stack(build, shapes, dtypes)


def _table(shape, seed=3):
    return const(_data(shape, seed=seed))


# (op, case id, build, member shapes, dtypes or None)
HAND_WRITTEN = [
    ("nn.softmax", "rank-1 member, lifted", lambda x: api.softmax(x), [(6,)], None),
    ("nn.softmax", "last axis", lambda x: api.softmax(x), [(4, 6)], None),
    ("nn.softmax", "axis 0, lifted", lambda x: api.softmax(x, axis=0), [(4, 6)], None),
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
    ("where", "batched condition, shared branch",
     lambda x: api.where(api.less(x, const(np.float32(1.0))), x, _table((6,))), [(4, 6)], None),
    ("nn.gelu", "batched", lambda x: api.gelu(x), [(4, 6)], None),
    ("nn.softmax", "rank-3 member, middle axis", lambda x: api.softmax(x, axis=1), [(2, 3, 4)],
     None),
    ("transpose", "rank-3 reversed", lambda x: api.transpose(x), [(2, 3, 4)], None),
    ("take", "negative indices on the inner axis",
     lambda x: api.take(x, const(np.array([-1, 0, -6], np.int64)), axis=1), [(4, 6)], None),
    ("take", "shared table, stacked 2-d indices",
     lambda i: api.take(_table((7, 5)), i, axis=0), [(4, 2)], ["int64"]),
    ("concatenate", "axis -1, both batched", lambda x, y: api.concatenate([x, y], axis=-1),
     [(4, 6), (4, 3)], None),
    ("split", "at indices", lambda x: api.split(x, (1, 4), axis=1), [(4, 6)], None),
    ("nn.layer_norm", "rank-3 member",
     lambda x: api.layer_norm(x, _table((6,), 1), _table((6,), 2)), [(2, 4, 6)], None),
    ("nn.batch_matmul", "shared lhs tiled",
     lambda y: api.batch_matmul(_table((2, 4, 6)), y), [(2, 5, 6)], None),
    ("reshape", "inferred dim", lambda x: api.reshape(x, (-1, 3)), [(4, 6)], None),
    ("where", "shared condition, batched branches",
     lambda x, y: api.where(const(_data((6,), seed=5) > 1.0), x, y), [(4, 6), (4, 6)], None),
    ("where", "everything batched",
     lambda c, x, y: api.where(api.less(c, const(np.float32(1.0))), x, y),
     [(4, 6), (4, 6), (4, 6)], None),
    ("vm.shape_of", "rank-3 member", lambda x: api.shape_of(x), [(2, 3, 4)], None),
    ("concatenate", "three operands on axis 1",
     lambda x, y: api.concatenate([x, _table((4, 2)), y], axis=1), [(4, 6), (4, 3)], None),
    ("split", "rank-3 member, last axis", lambda x: api.split(x, 2, axis=-1), [(2, 3, 4)], None),
    ("transpose", "rank-4 axes", lambda x: api.transpose(x, (2, 0, 3, 1)), [(2, 3, 4, 5)],
     None),
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


# (op, build, member shapes): a call along the axis the members are
# stacked on, which the op's rule does not lift over an explicit member
# axis, so the rewrite would mix members.
ALONG_THE_STACKED_AXIS = [
    ("concatenate", lambda x, y: api.concatenate([x, y], axis=0), [(4, 6), (2, 6)]),
    ("split", lambda x: api.split(x, 2, axis=0), [(4, 6)]),
    ("nn.bias_add", lambda x: api.bias_add(x, _table((4,)), axis=0), [(4, 6)]),
]


@pytest.mark.parametrize("name,build,shapes", ALONG_THE_STACKED_AXIS,
                         ids=[c[0] for c in ALONG_THE_STACKED_AXIS])
def test_a_call_along_the_stacked_axis_is_refused(name, build, shapes):
    params = [Var(f"x{i}", TensorType(s, F32)) for i, s in enumerate(shapes)]
    mod = IRModule.from_expr(Function(params, build(*params)))
    with pytest.raises(BatchSpecializeError, match=f"{name} along the stacked axis"):
        SpecializeBatch(B)(mod)


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


def test_rule_carriers_are_the_named_ops_and_the_elementwise_ones():
    """The ops that batch: eleven with their own handling and every
    ELEMWISE / BROADCAST op."""
    named = {"vm.shape_of", "nn.dense", "nn.batch_matmul", "nn.bias_add", "nn.softmax",
             "nn.layer_norm", "reshape", "transpose", "take", "concatenate", "split"}
    pointwise = {n for n in all_op_names()
                 if get_op_def(n).pattern in (OpPattern.ELEMWISE, OpPattern.BROADCAST)}
    with_rule = {n for n in all_op_names() if get_op_def(n).batch_rule is not None}
    assert with_rule == named | pointwise

