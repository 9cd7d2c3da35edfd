"""Symbolic codegen (§4.5): workload analysis, cost model, schedules,
residue dispatch, the schedule a build picks."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.codegen import (
    KernelSet,
    Schedule,
    compute_workload,
    run_prim_func,
    search_space,
)
from repro.codegen.cost_model import tuned_cost_us
from repro.codegen.kernels import (
    INVOKE_COST_MEMO_CAP, KernelCache, build_schedule, canonical_mnk, instantiate_shapes,
    is_symbolic_prim,
)
from repro.codegen.schedule import TUNE_AT, best_schedule, default_schedule
from repro.codegen.workload import KernelProgram
from repro.core.typing import infer_types
from repro.errors import CompilerError, VMError
from repro.hardware import arm_cpu, intel_cpu, nvidia_gpu
from repro.ir import (
    Any, Call, Constant, Function, IRModule, Let, TensorType, Tuple, TupleGetItem, TupleType,
    Var, const,
)
from repro.ir.op import Op
from repro.ops import OpPattern, api, get_op_def
from repro.tensor.ndarray import array as make_array


def _dense_prim(n_out=16, k_in=8, symbolic=True, with_relu=False):
    rng = np.random.RandomState(0)
    w = (rng.randn(n_out, k_in) * 0.1).astype(np.float32)
    m = Any() if symbolic else 4
    x = Var("x", TensorType((m, k_in), "float32"))
    body = api.dense(x, Constant(make_array(w)))
    if with_relu:
        body = api.relu(body)
    f = Function([x], body, TensorType((Any() if symbolic else 4, n_out), "float32"), {"primitive": True})
    infer_types(IRModule.from_expr(Function([Var("d", TensorType((1,)))], const(0.0))))  # no-op
    return f, w


class TestWorkload:
    def test_dense_flops_and_bytes(self):
        prim, w = _dense_prim(16, 8)
        wl = compute_workload(prim, [(4, 8)])
        assert wl.flops == 2.0 * 4 * 16 * 8
        assert wl.is_gemm
        # bytes: x (4*8*4) + w (16*8*4) + out (4*16*4)
        assert wl.bytes_moved == 4 * 8 * 4 + 16 * 8 * 4 + 4 * 16 * 4
        assert wl.out_shapes == ((4, 16),)

    def test_fusion_does_not_double_count_bytes(self):
        fused, _ = _dense_prim(16, 8, with_relu=True)
        plain, _ = _dense_prim(16, 8, with_relu=False)
        wl_fused = compute_workload(fused, [(4, 8)])
        wl_plain = compute_workload(plain, [(4, 8)])
        # The relu adds flops but no extra memory traffic (that is the
        # point of fusion).
        assert wl_fused.flops > wl_plain.flops
        assert wl_fused.bytes_moved == wl_plain.bytes_moved

    def test_run_prim_func_numerics(self):
        prim, w = _dense_prim(16, 8, with_relu=True)
        x = np.random.RandomState(1).randn(4, 8).astype(np.float32)
        (out,) = run_prim_func(prim, [x])
        assert np.allclose(out, np.maximum(x @ w.T, 0), atol=1e-5)

    def test_malformed_body_fails_at_lowering_with_a_named_error(self):
        """An unbound variable used to be a bare KeyError from the middle
        of a launch or of pricing one; a wrong input count keeps its
        message."""
        x = Var("x", TensorType((4,), "float32"))
        stray = Var("stray", TensorType((4,), "float32"))
        prim = Function([x], api.add(api.tanh(x), stray), TensorType((4,), "float32"),
                        {"primitive": True})
        data = np.ones(4, np.float32)
        with pytest.raises(CompilerError, match="unbound variable 'stray'"):
            run_prim_func(prim, [data])
        kernel = KernelSet(prim, intel_cpu(), intel_cpu().compute_spec)
        with pytest.raises(CompilerError, match="unbound variable 'stray'"):
            kernel.run([data])
        with pytest.raises(CompilerError, match="unbound variable 'stray'"):
            kernel.invoke_cost([(4,)])
        with pytest.raises(CompilerError, match="cannot evaluate Call"):  # not of an operator
            run_prim_func(Function([x], Call(prim, [x])), [data])
        good, _ = _dense_prim(16, 8)
        with pytest.raises(CompilerError, match="kernel arity mismatch: 1 params, 2 inputs"):
            run_prim_func(good, [data, data])

    def test_tuple_returning_primitive_prices_every_output(self):
        """A multi-output fusion group: projections and a tuple tail are
        interpreted, and bytes out count both outputs."""
        x = Var("x", TensorType((2, 8), "float32"))
        parts, p0, p1, a, b = (Var(n) for n in ("parts", "p0", "p1", "a", "b"))
        body = Let(parts, api.split(x, 2, axis=1),
                   Let(p0, TupleGetItem(parts, 0),
                       Let(a, api.sigmoid(p0),
                           Let(p1, TupleGetItem(parts, 1),
                               Let(b, api.tanh(p1), Tuple([a, b]))))))
        out_ty = TensorType((2, 4), "float32")
        prim = Function([x], body, TupleType([out_ty, out_ty]), {"primitive": True})
        wl = compute_workload(prim, [(2, 8)])
        assert wl.out_shapes == ((2, 4), (2, 4))
        assert wl.bytes_moved == 2 * 8 * 4 + 2 * (2 * 4 * 4)
        plain = Function([x], api.split(x, 2, axis=1), TupleType([out_ty, out_ty]),
                         {"primitive": True})
        assert wl.bytes_moved == compute_workload(plain, [(2, 8)]).bytes_moved
        assert wl.flops > compute_workload(plain, [(2, 8)]).flops

    def test_only_a_dynamic_kernel_is_priced_by_a_guess(self):
        """A workload that fails on a kernel whose shapes are known is a
        bug and raises; the bounded guess is for data-dependent ones."""
        prim, _ = _dense_prim(16, 8)
        kernel = KernelSet(prim, intel_cpu(), intel_cpu().compute_spec)
        with pytest.raises(CompilerError, match="arity mismatch"):
            kernel.invoke_cost([(4, 8), (4, 8)])
        unique = KernelSet(_unique_prim(), intel_cpu(), intel_cpu().compute_spec)
        assert unique.invoke_cost([(7,)]).flops == 4.0 * 7

    def test_canonical_mnk_with_constant_weight(self):
        prim, _ = _dense_prim(16, 8)
        wl = compute_workload(prim, [(4, 8)])
        assert canonical_mnk(prim, [(4, 8)], wl.out_shapes[0]) == (4, 16, 8)

    def test_is_symbolic_detection(self):
        sym, _ = _dense_prim(symbolic=True)
        sta, _ = _dense_prim(symbolic=False)
        assert is_symbolic_prim(sym)
        assert not is_symbolic_prim(sta)


def _reference_run(func, inputs):
    """The recursive tree-walk `run_prim_func` was before primitives were
    lowered, kept here — and only here — as the reference."""
    env = dict(zip(func.params, inputs))

    def eval_expr(expr):
        if isinstance(expr, Var):
            return env[expr]
        if isinstance(expr, Constant):
            return expr.data
        if isinstance(expr, Tuple):
            return tuple(eval_expr(f) for f in expr.fields)
        if isinstance(expr, TupleGetItem):
            return eval_expr(expr.tuple_value)[expr.index]
        assert isinstance(expr, Call) and isinstance(expr.op, Op)
        return get_op_def(expr.op.name).compute([eval_expr(a) for a in expr.args], expr.attrs)

    node = func.body
    while isinstance(node, Let):
        env[node.var] = eval_expr(node.value)
        node = node.body
    result = eval_expr(node)
    return [np.asarray(r) for r in (result if isinstance(result, tuple) else (result,))]


def _bitwise_equal(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


def _typed_prim(body, *param_types) -> Function:
    """A primitive of *body* over parameters of *param_types*, its checked
    types filled in as the compiler's would be."""
    params = [Var(f"x{i}", ty) for i, ty in enumerate(param_types)]
    func = Function(params, body(*params), None, {"primitive": True})
    infer_types(IRModule.from_expr(func))
    return func


def _model_executables():
    """(name, executable, one input): the dynamic and the
    length-specialized LSTM, the TreeLSTM, a 2-layer BERT both ways."""
    import repro.nimble as nimble
    from repro.data import Tree, embedding_table
    from repro.models.bert import BertConfig, BertWeights, build_bert_module
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt

    rng = np.random.RandomState(3)
    lstm = build_lstm_module(LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
    bert = build_bert_module(
        BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))
    tree = build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
    sentence = rng.randn(7, 12).astype(np.float32)
    tokens = rng.randn(7, 24).astype(np.float32)
    shape = Tree.node(Tree.node(Tree.leaf(1), Tree.leaf(2)), Tree.leaf(3))
    yield "lstm", nimble.build(lstm, intel_cpu())[0], sentence
    yield "lstm@7", nimble.specialize(lstm, intel_cpu(), shapes=[(7, 12)])[0], sentence
    yield "tree_lstm", nimble.build(tree, intel_cpu())[0], tree_to_adt(
        shape, embedding_table(vocab_size=8, dim=12, seed=0))
    yield "bert", nimble.build(bert, intel_cpu())[0], tokens
    yield "bert@7", nimble.specialize(bert, intel_cpu(), shapes=[(7, 24)])[0], tokens


def _hand_built_bodies():
    """Bodies the compiler's ANF never produces, each (func, inputs)."""
    rng = np.random.RandomState(5)
    f32 = lambda *shape: rng.randn(*shape).astype(np.float32)
    ty = TensorType((4, 6), "float32")
    x, y = Var("x", ty), Var("y", ty)
    weight = Constant(make_array(f32(6, 6)))
    yield "nested call", Function(
        [x, y], api.multiply(api.tanh(api.add(x, y)), api.sigmoid(y))), [f32(4, 6), f32(4, 6)]
    yield "tuple operand", Function(
        [x, y], api.concatenate([x, api.tanh(y), x], axis=1)), [f32(4, 6), f32(4, 6)]
    parts = Var("parts")
    yield "projection of a multi-output op", Function([x], Let(
        parts, api.split(x, 3, axis=1),
        api.concatenate([TupleGetItem(parts, 2), TupleGetItem(parts, 0)], axis=1),
    )), [f32(4, 6)]
    pair = Var("pair")
    yield "tuple read whole", Function([x, y], Let(
        pair, Tuple([api.split(x, 2, axis=1), y]),
        api.add(TupleGetItem(TupleGetItem(pair, 0), 1), TupleGetItem(TupleGetItem(pair, 0), 0)),
    )), [f32(4, 6), f32(4, 6)]
    yield "embedded constant", Function(
        [x], api.relu(api.dense(x, weight))), [f32(4, 6)]
    h = Var("h")
    yield "tuple result", Function([x, y], Let(
        h, api.add(x, y), Tuple([api.tanh(h), h, TupleGetItem(api.split(y, 2, axis=0), 1)]),
    )), [f32(4, 6), f32(4, 6)]


class TestKernelProgram:
    """A primitive body is compiled once to a generated function, and that
    program is the only evaluator: bitwise the recursive one's results."""

    @pytest.mark.parametrize("case", _model_executables(), ids=lambda case: case[0])
    def test_every_kernel_of_the_models_matches_the_recursive_evaluator(self, case, monkeypatch):
        from repro.runtime.context import ExecutionContext
        from repro.vm.interpreter import VirtualMachine

        _, exe, model_input = case
        launches = {}  # KernelSet -> the inputs of its first launch
        real_run = KernelSet.run

        def recording_run(kernel, inputs, outputs=None):
            launches.setdefault(kernel, [np.array(a) for a in inputs])
            return real_run(kernel, inputs, outputs)

        monkeypatch.setattr(KernelSet, "run", recording_run)
        VirtualMachine(exe, ExecutionContext(intel_cpu())).run(model_input)
        kernel_sets = [k for k in exe.kernels if isinstance(k, KernelSet)]
        assert set(launches) == set(kernel_sets) and kernel_sets
        rng = np.random.RandomState(11)
        for kernel, seen in launches.items():
            # Fresh random values of the launched shapes; integer
            # operands (indices, loop counters) keep the values they had.
            inputs = [rng.standard_normal(a.shape).astype(a.dtype) if a.dtype.kind == "f" else a
                      for a in seen]
            want = _reference_run(kernel.prim, inputs)
            assert _bitwise_equal(real_run(kernel, inputs), want), kernel.name
            assert _bitwise_equal(run_prim_func(kernel.prim, inputs), want), kernel.name

    @pytest.mark.parametrize("case", _hand_built_bodies(), ids=lambda case: case[0])
    def test_hand_built_bodies_match_the_recursive_evaluator(self, case):
        _, func, inputs = case
        want = _reference_run(func, inputs)
        program = KernelProgram(func)
        assert _bitwise_equal(program.run(inputs), want)
        assert _bitwise_equal(program.run(inputs), want)  # a program is reusable
        assert _bitwise_equal(run_prim_func(func, inputs), want)

    def test_a_tuple_display_is_emitted_only_where_it_is_read_whole(self):
        """A split's projections read its views; only a use of the tuple
        itself (here, as a field of another tuple) emits a display."""
        bodies = {name: func for name, func, _ in _hand_built_bodies()}
        assert " = (" not in KernelProgram(bodies["projection of a multi-output op"]).source
        assert " = (v" in KernelProgram(bodies["tuple read whole"]).source

    def test_a_constant_is_held_by_reference(self):
        prim, w = _dense_prim(16, 8)
        plat = intel_cpu()
        kernel = KernelSet(prim, plat, plat.compute_spec)
        x = np.random.RandomState(2).randn(4, 8).astype(np.float32)
        (before,) = kernel.run([x])
        constant = prim.body.args[1]
        constant.data[...] = 2.0 * w  # in place, after the program was lowered
        (after,) = kernel.run([x])
        assert np.array_equal(after, _reference_run(prim, [x])[0])
        assert not np.array_equal(after, before)

    def test_a_launch_is_one_numpy_call_per_op_and_no_recursion(self):
        """A typed dense + bias_add + tanh + multiply body is four direct
        NumPy calls: no ``compute`` wrapper and no Python frame per op —
        the generated function is entered once — and the last op writes
        the output buffer itself, so nothing is copied into it."""
        import os
        import sys

        import repro.codegen.workload as workload

        rng = np.random.RandomState(0)
        w = Constant(make_array((rng.randn(16, 8) * 0.1).astype(np.float32)))
        b = Constant(make_array(rng.randn(16).astype(np.float32)))
        h = Var("h")
        prim = _typed_prim(
            lambda x: Let(h, api.tanh(api.bias_add(api.dense(x, w), b)), api.multiply(h, h)),
            TensorType((Any(), 8), "float32"))
        plat = intel_cpu()
        kernel = KernelSet(prim, plat, plat.compute_spec)
        x = np.ones((4, 8), np.float32)
        out = np.empty((4, 16), np.float32)
        kernel.run([x], [out])  # lowers
        assert kernel._program.source.splitlines()[4:11] == [
            "    if outputs is None: o0, = NO_BUFFER,",
            "    elif len(outputs) != 1: raise output_count_error(NAME, 1, len(outputs))",
            "    else: o0, = outputs",
            "    v0 = matmul(p0, c0.T)",
            "    v1 = ew_add(v0, c1)",
            "    v2 = ew_tanh(v1)",
            "    v3 = ew_multiply(v2, v2, out=o0 if v2.shape == o0.shape else None)",
        ]
        scope = kernel._program.run.__globals__
        assert not [name for name in scope if name.startswith("op_")]
        package = os.path.dirname(os.path.dirname(workload.__file__)) + os.sep
        frames = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames.append((frame.f_code.co_filename, frame.f_code.co_name))
        sys.setprofile(profiler)
        try:
            kernel.run([x], [out])
        finally:
            sys.setprofile(None)
        # KernelSet.run, then the generated function, entered once.
        (_, launch), (filename, name) = frames
        assert (launch, name) == ("run", "kernel")
        assert filename.startswith(f"{workload.__file__}<fused_nn.dense+nn.bias_add+tanh+multiply:")
        calls = []
        for fn in ("matmul", "ew_add", "ew_tanh", "ew_multiply", "copyto", "asarray"):
            scope[fn] = lambda *a, fn=fn, real=scope[fn], **kw: calls.append(fn) or real(*a, **kw)
        kernel.run([x], [out])
        assert calls == ["matmul", "ew_add", "ew_tanh", "ew_multiply"]
        assert np.array_equal(out, _reference_run(prim, [x])[0])
        assert not hasattr(workload, "eval_expr")

    def test_a_traceback_through_a_kernel_prints_the_generated_line(self):
        import traceback

        prim, _ = _dense_prim(16, 8, with_relu=True)
        plat = intel_cpu()
        kernel = KernelSet(prim, plat, plat.compute_spec)
        with pytest.raises(ValueError) as info:
            kernel.run([np.ones((4, 3), np.float32)])  # 3 columns against a 16x8 weight
        text = "".join(traceback.format_exception(info.value))
        assert "v0 = op_nn_dense([p0, c0], a0)" in text
        assert "workload.py<fused_nn.dense+nn.relu:" in text

    def test_the_lstm_cell_kernel_source_matches_golden(self):
        """The toy LSTM's fused cell, generated: a set or dict order
        leaking into code generation moves it (CI runs this under two
        hash seeds)."""
        from pathlib import Path

        import repro.nimble as nimble
        from repro.models.lstm import LSTMWeights, build_lstm_module

        mod = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        exe, _ = nimble.build(mod, intel_cpu())
        # One gate GEMM + gate math kernel per layer; the first layer's.
        cells = [k for k in exe.kernels if isinstance(k, KernelSet) and "+split+" in k.name]
        assert len(cells) == 2
        golden = Path(__file__).parent / "golden" / "lstm_cell_kernel.txt"
        assert KernelProgram(cells[0].prim).source == golden.read_text()


def _binary_kernel(op, shape, dtype):
    """One typed elementwise call over two parameters of *shape*."""
    prim = _typed_prim(op, TensorType(shape, dtype), TensorType(shape, dtype))
    return KernelSet(prim, intel_cpu(), intel_cpu().compute_spec)


class TestOutputBufferWrite:
    """An output's last elementwise op writes the VM's buffer itself, only
    when one operand already has the buffer's shape: a ufunc handed a
    larger buffer would broadcast a smaller result into it silently."""

    def test_a_buffer_larger_than_the_result_is_a_misfit_not_a_broadcast(self):
        kernel = _binary_kernel(api.add, (Any(), 128), "float32")
        x = np.ones((1, 128), np.float32)
        kernel.run([x, x])
        assert ", out=o0 if p0.shape == o0.shape else None)" in kernel._program.source
        out = np.zeros((4, 128), np.float32)
        with pytest.raises(VMError, match=r"kernel output shape \(1, 128\) does not fit buffer \(4, 128\)"):
            kernel.run([x, x], [out])
        assert not out.any()

    @pytest.mark.parametrize("op, dtype", [(api.add, "int64"), (api.less, "int64"),
                                           (api.add, "float32")])
    def test_a_scalar_kernel_checks_its_buffer_too(self, op, dtype):
        kernel = _binary_kernel(op, (), dtype)
        a, b = np.array(2, dtype), np.array(3, dtype)
        (want,) = _reference_run(kernel.prim, [a, b])
        for shape in ((1,), (4,)):
            with pytest.raises(VMError, match=rf"kernel output shape \(\) does not fit buffer \({shape[0]},\)"):
                kernel.run([a, b], [np.zeros(shape, want.dtype)])
        out = np.zeros((), want.dtype)
        assert kernel.run([a, b], [out]) is None
        assert _bitwise_equal([out], [want])

    def test_a_buffer_count_mismatch_is_named(self):
        kernel = _binary_kernel(api.multiply, (Any(), 4), "float32")
        x = np.ones((2, 4), np.float32)
        with pytest.raises(VMError, match="kernel fused_multiply produced 1 outputs for 2 buffers"):
            kernel.run([x, x], [np.zeros((2, 4), np.float32)] * 2)
        with pytest.raises(VMError, match="produced 1 outputs for 0 buffers"):
            kernel.run([x, x], [])

    def test_an_operand_of_the_buffer_shape_writes_it_and_numpy_rejects_the_rest(self):
        kernel = _binary_kernel(api.add, (Any(), 8), "float32")
        rng = np.random.RandomState(1)
        wide, row = rng.randn(4, 8).astype(np.float32), rng.randn(1, 8).astype(np.float32)
        for a, b in ((wide, row), (row, wide)):  # the guard reads the first operand only
            out = np.zeros((4, 8), np.float32)
            kernel.run([a, b], [out])
            assert _bitwise_equal([out], _reference_run(kernel.prim, [a, b]))
        with pytest.raises(ValueError, match="non-broadcastable output operand"):
            kernel.run([row, wide], [np.zeros((1, 8), np.float32)])

    def test_a_field_repeated_in_the_result_is_written_once_and_copied_once(self):
        h = Var("h")
        ty = TensorType((2, 3), "float32")
        prim = _typed_prim(lambda x: Let(h, api.tanh(x), Tuple([h, h])), ty)
        program = KernelProgram(prim)
        x = np.random.RandomState(2).randn(2, 3).astype(np.float32)
        outs = [np.zeros((2, 3), np.float32), np.zeros((2, 3), np.float32)]
        program.run([x], outs)
        assert _bitwise_equal(outs, _reference_run(prim, [x]))
        assert program.source.count("out=o") == 1


def _ufunc_ops():
    from repro.ops import all_op_names

    return [name for name in all_op_names() if get_op_def(name).ufunc is not None]


def _lowered_ops():
    from repro.ops import all_op_names

    return [name for name in all_op_names() if get_op_def(name).lower is not None]


_ELEMENTS = {
    "float32": st.floats(-30, 30, width=32),
    "int64": st.integers(-9, 9),
    "bool": st.booleans(),
}

_DTYPES = ("float16", "float32", "float64", "int8", "int32", "int64", "uint8", "bool")


def _operand(rng, shape, dtype):
    """Floats out to +-30, integers in -9..9 (0..9 unsigned), booleans."""
    kind = np.dtype(dtype).kind
    if kind == "b":
        return np.asarray(rng.rand(*shape) < 0.5)
    if kind == "f":
        return np.asarray(rng.uniform(-30, 30, shape)).astype(dtype)
    return np.asarray(rng.randint(0 if kind == "u" else -9, 10, shape)).astype(dtype)


def _dtype_of_compute(fn, op_def, inputs, attrs):
    """Does *fn* give the dtype ``compute`` gives, on zero-size operands of
    the inputs' dtypes and ranks? Where it does not, a lowering that drops
    ``compute``'s cast must decline."""
    probes = [np.zeros((0,) * x.ndim, x.dtype) for x in inputs]
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(*probes)).dtype == np.asarray(op_def.compute(probes, attrs)).dtype
    except (TypeError, ValueError):
        return False


def _lowering_cases(name):
    """Calls of the op *name* over every dtype, each (inputs, attrs, and
    whether the kernel line calls NumPy directly rather than ``compute``)."""
    op_def, rng = get_op_def(name), np.random.RandomState(sum(map(ord, name)))
    for dtype in _DTYPES:
        def draw(*shapes, dtype=dtype):
            return [_operand(rng, shape, dtype) for shape in shapes]

        if op_def.ufunc is not None:
            if op_def.pattern == OpPattern.ELEMWISE:
                shapes = [((),), ((3,),), ((2, 3),)]
            else:  # broadcast, 0-d, and no operand of the result's shape
                shapes = [((), ()), ((2, 3), (3,)), ((), (2, 3)), ((1, 3), (2, 1))]
            for shape in shapes:
                operands = draw(*shape)
                yield operands, {}, _dtype_of_compute(op_def.ufunc, op_def, operands, {})
        elif name == "nn.dense":
            for data in ((4,), (2, 4), (2, 3, 4)):
                for rows, attrs in ((5, {}), (9, {"sections": (2, 5)}), (6, {"sections": (3,)})):
                    operands = draw(data, (rows, 4))
                    yield operands, attrs, _dtype_of_compute(
                        lambda d, w: d @ w.T, op_def, operands, attrs)
            for batch in (2, 3):  # six stacked rows cut into members
                for rows, attrs in ((5, {}), (9, {"sections": (2, 5)})):
                    operands, attrs = draw((6, 4), (rows, 4)), {**attrs, "batch": batch}
                    yield operands, attrs, _dtype_of_compute(
                        lambda d, w: d @ w.T, op_def, operands, attrs)
        elif name == "nn.bias_add":
            for data in ((4,), (3, 4), (2, 3, 4)):
                for axis in range(-len(data), len(data)):
                    operands, attrs = draw(data, (data[axis],)), {"axis": axis}
                    last = axis in (-1, len(data) - 1)
                    yield operands, attrs, last and _dtype_of_compute(np.add, op_def, operands, attrs)
        elif name == "take":
            for index_dtype in ("int64", "int32"):
                for axis in (None, 0, 1, -1):
                    size = 12 if axis is None else (3, 4)[axis]
                    for shape in ((), (2,), (2, 2)):  # every index in range, negatives too
                        indices = rng.randint(-size, size, shape).astype(index_dtype)
                        yield [draw((3, 4))[0], indices], {"axis": axis}, index_dtype == "int64"
                    for index in (size, -size - 1):  # out of range: compute's own error
                        indices = np.array([1, index], index_dtype)
                        yield [draw((3, 4))[0], indices], {"axis": axis}, index_dtype == "int64"
        elif name == "reshape":
            for data, newshape in (((2, 3, 4), (-1, 4)), ((2, 3, 4), (3, -1, 2)),
                                   ((2, 3, 4), (-1,)), ((), (1, -1))):
                yield draw(data), {"newshape": newshape}, True
        elif name == "transpose":
            for data, axes in (((2, 3, 4), (1, 0, 2)), ((2, 3, 4), (0, 2, 1)),
                               ((2, 3, 4), None), ((2, 3), (1, 0)), ((3,), (0,)), ((), None)):
                yield draw(data), {"axes": axes}, True
        elif name == "concatenate":
            for shapes, axis in ((((2, 3),), 0), (((2, 3), (1, 3)), 0),
                                 (((2, 3), (2, 1), (2, 2)), 1), (((2, 3), (2, 2)), -1)):
                yield draw(*shapes), {"axis": axis}, True
        else:
            raise AssertionError(f"{name} declares a lowering but has no cases here")


def _outcome(run):
    """What *run* gives: each result's dtype, shape and bytes, or its
    error's type and message."""
    try:
        return [(r.dtype, r.shape, r.tobytes()) for r in map(np.asarray, run())]
    except (TypeError, ValueError, IndexError) as error:
        return type(error), str(error)


def _check_lowering(name, inputs, attrs, direct):
    """The op *name* lowered alone: bitwise ``compute`` (or its error)
    fresh and into a buffer, and an ``op_`` line exactly where it is not
    *direct*."""
    op_def = get_op_def(name)
    prim = _typed_prim(lambda *xs: Call(Op.get(name), xs, attrs),
                       *(TensorType(x.shape, x.dtype.name) for x in inputs))
    program = KernelProgram(prim)
    case = (name, [(x.shape, x.dtype.name) for x in inputs], attrs)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: [op_def.compute(inputs, attrs)])
        assert _outcome(lambda: program.run(inputs)) == want, case
        if isinstance(want, list):
            ((dtype, shape, _),) = want
            out = np.full(shape, 7, dtype)
            assert _outcome(lambda: program.run(inputs, [out]) or [out]) == want, case
    assert (f"op_{name.replace('.', '_')}(" in program.source) != direct, (case, program.source)


class TestDirectCalls:
    """Each op's lowering (``OpDef.lower``) calls its NumPy math directly:
    fresh or into a buffer, it is bitwise its ``compute`` wherever it
    keeps the dtype, and the lowering sends every other case through
    ``compute``. An elementwise op's ``ufunc`` is the one description of
    its math, so it is checked against ``compute`` on its own too."""

    @given(name=st.sampled_from(_ufunc_ops()), dtype=st.sampled_from(sorted(_ELEMENTS)),
           shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                     max_side=3),
           data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_the_direct_call_is_bitwise_compute(self, name, dtype, shapes, data):
        op_def = get_op_def(name)
        arity = 1 if op_def.pattern == OpPattern.ELEMWISE else 2
        inputs = [data.draw(hnp.arrays(dtype, shape, elements=_ELEMENTS[dtype]))
                  for shape in shapes.input_shapes[:arity]]
        with np.errstate(all="ignore"):
            try:
                want = np.asarray(op_def.compute(inputs, {}))
            except (TypeError, ValueError) as error:
                with pytest.raises(type(error)):
                    op_def.ufunc(*inputs)
                return
            got = np.asarray(op_def.ufunc(*inputs))
            if got.dtype != want.dtype:  # dtype-unstable: lowered through compute (below)
                return
            assert _bitwise_equal([got], [want])
            out = np.full(want.shape, 7, want.dtype)
            assert op_def.ufunc(*inputs, out=out) is out
            assert _bitwise_equal([out], [want])

    def test_a_lowered_call_is_bitwise_compute_fresh_and_into_a_buffer(self):
        """Generated from the registry: every op that declares a lowering,
        over every dtype, broadcast and 0-d operands, each axis."""
        for name in _lowered_ops():
            for inputs, attrs, direct in _lowering_cases(name):
                _check_lowering(name, inputs, attrs, direct)

    @pytest.mark.parametrize("name, mutant", [
        ("take", lambda call, args: (
            f"{args[0]}.take({args[1]}, axis={1 if call.attrs['axis'] in (None, 0) else 0})",
            {}, None)),
        ("concatenate", lambda call, args: (
            f"concatenate(({', '.join(args)},), axis={1 if call.attrs['axis'] == 0 else 0})",
            {"concatenate": np.concatenate}, None)),
        ("nn.dense", lambda call, args: (
            f"matmul({args[0]}, {args[1]})", {"matmul": np.matmul}, None)),
        ("transpose", lambda call, args: (
            f"asarray({args[0]}.T, order='C')", {"asarray": np.asarray}, None)),
    ], ids=["take_wrong_axis", "concatenate_wrong_axis", "dense_without_T", "transpose_reversed"])
    def test_a_wrong_lowering_fails_the_registry_test(self, name, mutant, monkeypatch):
        monkeypatch.setattr(get_op_def(name), "lower", mutant)
        with pytest.raises(AssertionError):
            self.test_a_lowered_call_is_bitwise_compute_fresh_and_into_a_buffer()

    def test_a_dense_with_both_cuts_is_one_matmul_per_member_and_section(self):
        """``batch`` cuts the data rows, ``sections`` the weight rows: the
        line slices what ``compute``'s ``np.split`` views."""
        attrs = {"sections": (2, 5), "batch": 2}
        prim = _typed_prim(lambda d, w: Call(Op.get("nn.dense"), [d, w], attrs),
                           TensorType((6, 4), "float32"), TensorType((9, 4), "float32"))
        member = lambda rows: ", ".join(
            f"matmul(p0[{rows}], p1[{cut}].T)" for cut in ("0:2", "2:5", "5:"))
        assert (f"    v0 = concatenate((concatenate(({member('0:3')}), axis=-1), "
                f"concatenate(({member('3:6')}), axis=-1)), axis=0)"
                in KernelProgram(prim).source.splitlines())

    @pytest.mark.parametrize("case", ["int64 tanh", "int32 tanh", "int64 sigmoid",
                                      "float64 constant"])
    def test_a_dtype_unstable_call_lowers_through_compute(self, case):
        """The ufunc alone would return float64 where the op declares
        int64 / int32 / float32; ``compute`` casts back, so the lowering
        keeps it."""
        from repro.evaluator import evaluate

        rng = np.random.RandomState(4)
        if case != "float64 constant":
            dtype, name = case.split()
            func = _typed_prim(getattr(api, name), TensorType((Any(), 4), dtype))
            inputs = [rng.randint(-3, 3, (3, 4)).astype(dtype)]
            line = f"v0 = op_{name}([p0], a0)"
        else:  # the checked type says float32, as the constant's own type would not
            x = Var("x", TensorType((Any(), 4), "float32"))
            call = api.add(x, Constant(make_array(np.float64(1 / 3), "float64")))
            call.checked_type = TensorType((Any(), 4), "float32")
            func = Function([x], call)
            inputs = [rng.randn(3, 4).astype(np.float32)]
            line = "v0 = op_add([p0, c0], a0)"
        program = KernelProgram(func)
        assert f"    {line}" in program.source.splitlines()
        want = evaluate(IRModule.from_expr(func), *inputs)
        assert _bitwise_equal(program.run(inputs), [want])
        out = np.zeros(want.shape, want.dtype)
        program.run(inputs, [out])
        assert _bitwise_equal([out], [want])

    def test_the_lstm_lowers_dense_bias_add_take_and_split_to_direct_calls(self):
        (_, exe, _), *_ = _model_executables()
        sources = "".join(KernelProgram(k.prim).source for k in exe.kernels
                          if isinstance(k, KernelSet))
        # The gate pre-activation is a temporary of the cell's kernel,
        # its sections views of it.
        for line in ("= matmul(p0, p1.T)", "= ew_add(v0, p2)\n",
                     "= p0.take(p1, axis=0)", "= ew_sigmoid(v1[:, 0:64])", "= v2[:, 48:64]",
                     "= v1[:, 32:48]", "= v0.reshape((1, 12))", "= concatenate((v1, p2), axis=1)"):
            assert line in sources
        assert "op_split(" not in sources and "op_take(" not in sources
        assert "op_nn_dense(" not in sources and "op_nn_bias_add(" not in sources
        assert "op_reshape(" not in sources and "op_concatenate(" not in sources


def _unary_ufunc_ops():
    return [name for name in _ufunc_ops() if get_op_def(name).pattern == OpPattern.ELEMWISE]


class _Counted(np.ndarray):
    """An array that counts every ufunc call on it or on a result made
    from it; an ``out=`` buffer of this type stays the result."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Counted.calls += 1
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        result = getattr(ufunc, method)(*(np.asarray(a) if isinstance(a, _Counted) else a
                                          for a in inputs), **kwargs)
        return out[0] if out is not None else np.asarray(result).view(_Counted)


class TestSiblingSections:
    """A unary elementwise op reading two or more sections of one split
    is one call over their span, each section a view of its result: the
    LSTM cell's three sigmoids are one ``ew_sigmoid``. Sound because a
    ufunc is elementwise — which these tests check bit for bit, per op
    and dtype, rather than assume."""

    @staticmethod
    def _parents(rng, dtype, width, count):
        """(1, k*w) and (3, k*w) parents and a column slice of a wider
        array, with values out to +-100, where exp and tanh overflow or
        saturate."""
        def draw(rows, cols):
            x = rng.uniform(-100, 100, (rows, cols)).astype(dtype)
            x.flat[::5], x.flat[2::5] = 100, -100
            return x

        yield "one row", draw(1, count * width)
        yield "three rows", draw(3, count * width)
        yield "column slice", draw(3, count * width + 5)[:, 2:2 + count * width]

    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
    @pytest.mark.parametrize("name", _unary_ufunc_ops())
    def test_a_section_of_the_span_call_is_bitwise_the_call_on_the_section(self, name, dtype):
        fn, count = get_op_def(name).ufunc, 4
        rng = np.random.RandomState(7)
        for width in (1, 16, 37, 128):
            for layout, parent in self._parents(rng, dtype, width, count):
                for first in range(count):
                    for last in range(first + 1, count):  # spans of 2..k sections
                        with np.errstate(all="ignore"):
                            span = fn(parent[:, first * width:(last + 1) * width])
                            for i in range(first, last + 1):
                                got = span[:, (i - first) * width:(i - first + 1) * width]
                                want = np.asarray(fn(parent[:, i * width:(i + 1) * width]))
                                assert _bitwise_equal([got], [want]), (layout, width, first, last, i)

    @pytest.mark.parametrize("reads", [(0, 1, 3), (0, 3), (1, 2), (2,)], ids=str)
    def test_the_lowering_shares_one_call_and_keeps_the_checked_copy(self, reads):
        """Sections the op reads share one call over their span (an
        unread one inside it is computed and dropped); a lone section
        keeps its own. Each read section is a kernel output, a view of
        the shared result: never an ``out=`` write, always the copy."""
        width = 5
        parts = Var("parts")
        prim = _typed_prim(lambda x: Let(parts, api.split(x, 4, axis=1), Tuple(
            [api.sigmoid(TupleGetItem(parts, i)) for i in reads] + [api.tanh(TupleGetItem(parts, 2))])),
            TensorType((Any(), 4 * width), "float32"))
        program = KernelProgram(prim)
        source = program.source
        assert source.count("ew_sigmoid(") == 1
        if len(reads) > 1:
            assert f" = ew_sigmoid(p0[:, {reads[0] * width}:{(reads[-1] + 1) * width}])\n" in source
        else:
            assert f" = p0[:, {2 * width}:{3 * width}]\n" in source
        x = np.random.RandomState(3).uniform(-100, 100, (3, 4 * width)).astype(np.float32)
        with np.errstate(all="ignore"):
            want = _reference_run(prim, [x])
            assert _bitwise_equal(program.run([x]), want)
            outs = [np.full(w.shape, 7, w.dtype) for w in want]
            assert program.run([x], outs) is None
        assert _bitwise_equal(outs, want)

    def test_every_lstm_cell_has_one_sigmoid_and_no_kernel_calls_compute(self):
        import repro.nimble as nimble
        from repro.models.lstm import LSTMWeights, build_lstm_module

        one_layer = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=1, seed=0))
        exes = [("lstm 1-layer", nimble.build(one_layer, intel_cpu())[0])]
        exes += [(name, exe) for name, exe, _ in _model_executables() if "lstm" in name]
        for name, exe in exes:
            kernels = [k for k in exe.kernels if isinstance(k, KernelSet)]
            cells = [k for k in kernels if "+split+" in k.name]
            assert cells, name
            for kernel in kernels:
                source = KernelProgram(kernel.prim).source
                assert "op_" not in source, (name, kernel.name)
                if name.startswith("lstm") and kernel in cells:
                    assert source.count("ew_sigmoid(") == 1, (name, kernel.name)

    def test_ufunc_calls_per_lstm_cell_launch_and_compute_lines_per_model(self):
        """What CI's "Size trajectory" step prints: the ufunc calls of one
        launch of the toy LSTM's fused cell (18 while each sigmoid was
        its own; 10 -> 12 when the cell took in its gate GEMM and bias
        add), and the lines calling ``compute`` in the LSTM /
        TreeLSTM / BERT kernels (3 / 0 / 14 while reshape and
        concatenate did; BERT 11 -> 12 when its head split became one
        kernel per layer, whose four transposes called ``compute``, and
        12 -> 7 when ``transpose`` gained its lowering)."""
        executables = {name: exe for name, exe, _ in _model_executables()}
        cell = next(k for k in executables["lstm"].kernels
                    if isinstance(k, KernelSet) and "+split+" in k.name)
        rng = np.random.RandomState(0)
        # The first layer's cell: x ++ h, the gate weight and bias, c.
        inputs = [rng.randn(*shape).astype(np.float32).view(_Counted)
                  for shape in ((1, 28), (64, 28), (64,), (1, 16))]
        outputs = [np.zeros((1, 16), np.float32).view(_Counted) for _ in range(2)]
        _Counted.calls = 0
        KernelProgram(cell.prim).run(inputs, outputs)
        calls = _Counted.calls
        lines = [sum(KernelProgram(k.prim).source.count(" = op_") for k in executables[name].kernels
                     if isinstance(k, KernelSet)) for name in ("lstm", "tree_lstm", "bert")]
        print(f"ufunc calls per fused LSTM-cell launch: {calls}; "
              f"op_ lines in LSTM / TreeLSTM / BERT kernels: {' / '.join(map(str, lines))}")
        assert calls == 12
        assert lines == [0, 0, 7]

    def test_a_batched_dense_lowers_like_any_dense(self):
        """The batched tier's GEMMs call NumPy: the batch-4 toy LSTM /
        BERT kernels call ``compute`` in 1 / 5 lines (3 / 14 while the
        batched GEMM was an op of its own, with no lowering; BERT 10 -> 5
        when ``transpose`` gained its lowering)."""
        import repro.nimble as nimble
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.models.lstm import LSTMWeights, build_lstm_module

        lstm = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        bert = build_bert_module(
            BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))
        lines = []
        # An LSTM step's dense reads one row a member, BERT's seven.
        for mod, width, last in ((lstm, 12, "3:4"), (bert, 24, "21:28")):
            exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[(7, width)], batch=4)
            sources = [KernelProgram(k.prim).source for k in exe.kernels if isinstance(k, KernelSet)]
            assert any(f"matmul(p0[{last}], " in source for source in sources)
            assert not any("op_nn_dense(" in source for source in sources)
            lines.append(sum(source.count(" = op_") for source in sources))
        assert lines == [1, 5]


class TestCostModel:
    def test_more_flops_costs_more(self):
        prim, _ = _dense_prim(64, 64, symbolic=False)
        spec = intel_cpu().compute_spec
        k = KernelSet(prim, intel_cpu(), spec)
        small = k.invoke_cost([(2, 64)]).duration_us
        large = k.invoke_cost([(256, 64)]).duration_us
        assert large > small

    def test_gpu_launch_floor(self):
        prim, _ = _dense_prim(4, 4, symbolic=False)
        plat = nvidia_gpu()
        k = KernelSet(prim, plat, plat.compute_spec)
        assert k.invoke_cost([(1, 4)]).duration_us >= plat.compute_spec.launch_overhead_us

    def test_symbolic_slower_than_static(self):
        sym, _ = _dense_prim(64, 64, symbolic=True)
        sta, _ = _dense_prim(64, 64, symbolic=False)
        plat = arm_cpu()
        s = Schedule(8, 4, 2, True)
        k_sym = KernelSet(sym, plat, plat.compute_spec, schedule=s, allow_library=False)
        k_sta = KernelSet(sta, plat, plat.compute_spec, schedule=s, allow_library=False)
        assert k_sym.invoke_cost([(64, 64)]).duration_us > k_sta.invoke_cost([(64, 64)]).duration_us

    def test_dispatch_monotone_in_kernel_count(self):
        """Figure 3's trend: fewer dispatch kernels -> more boundary checks
        -> slower."""
        prim, _ = _dense_prim(64, 64, symbolic=True)
        plat = arm_cpu()
        s = Schedule(8, 4, 2, True)
        costs = []
        for n in (8, 4, 2, 1):
            k = KernelSet(prim, plat, plat.compute_spec, schedule=s,
                          num_dispatch_kernels=n, allow_library=False)
            costs.append(k.invoke_cost([(63, 64)]).duration_us)
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_library_selected_when_faster(self):
        """The dispatcher picks the vendor library when profiling favors it
        (§6.2)."""
        prim, _ = _dense_prim(512, 512, symbolic=True)
        plat = intel_cpu()
        bad = Schedule(32, 1, 1, False)  # deliberately poor schedule
        k = KernelSet(prim, plat, plat.compute_spec, schedule=bad)
        inv = k.invoke_cost([(256, 512)])
        assert inv.impl == "mkl"

    def test_kernel_code_size_scales_with_variants(self):
        prim, _ = _dense_prim(symbolic=True)
        plat = intel_cpu()
        k8 = KernelSet(prim, plat, plat.compute_spec, num_dispatch_kernels=8)
        k1 = KernelSet(prim, plat, plat.compute_spec, num_dispatch_kernels=1)
        assert k8.code_size_bytes > k1.code_size_bytes


def _unique_prim():
    """Data-dependent: ``compute_workload`` cannot size its output from
    shapes, so ``invoke_cost`` prices it through the ``except`` fallback."""
    x = Var("x", TensorType((Any(),), "float32"))
    return Function([x], api.unique(x), TensorType((Any(),), "float32"), {"primitive": True})


def _unique_executable():
    """("unique", executable, input): a kernel priced by the fallback."""
    import repro.nimble as nimble

    x = Var("x", TensorType((Any(),), "float32"))
    exe, _ = nimble.build(IRModule.from_expr(Function([x], api.tanh(api.unique(x)))), intel_cpu())
    return "unique", exe, np.array([3, 1, 3, 2], np.float32)


class TestInvokeCostMemo:
    """``KernelSet.invoke_cost`` prices each distinct input-shape key once
    per KernelSet; a memo hit must be indistinguishable from pricing."""

    @staticmethod
    def _factory(kind, allow_library=True):
        """(make a fresh KernelSet of one prim, rows -> its in_shapes)."""
        plat = intel_cpu()
        if kind == "unique":
            prim = _unique_prim()
            return (lambda: KernelSet(prim, plat, plat.compute_spec,
                                      allow_library=allow_library),
                    lambda rows: [(rows,)])
        prim, _ = _dense_prim(64, 32, symbolic=(kind == "symbolic"))
        return (lambda: KernelSet(prim, plat, plat.compute_spec,
                                  allow_library=allow_library),
                lambda rows: [(rows, 32)])

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["symbolic", "static", "unique"]),
        allow_library=st.booleans(),
        rows=st.lists(st.integers(1, 600), min_size=1, max_size=10),
    )
    def test_memoised_kernel_prices_like_a_fresh_one(self, kind, allow_library, rows):
        make, shapes = self._factory(kind, allow_library)
        memoised = make()
        for m in rows + rows:  # first calls, then repeats
            want = make().invoke_cost(shapes(m))
            got = memoised.invoke_cost(shapes(m))
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert memoised.invoke_cost(shapes(m)) is got  # priced once

    def test_data_dependent_prim_takes_the_fallback(self):
        make, shapes = self._factory("unique")
        with pytest.raises(Exception, match="data-dependent"):
            compute_workload(make().prim, shapes(7))
        assert make().invoke_cost(shapes(7)).flops == 4.0 * 7

    def test_repeat_is_a_hit_whatever_sequence_type_names_the_shapes(self):
        make, _ = self._factory("symbolic")
        k = make()
        first = k.invoke_cost([(7, 32)])
        assert k.invoke_cost([(7, 32)]) is first
        assert k.invoke_cost(([7, 32],)) is first
        assert k.invoke_cost([(np.int64(7), 32)]) is first
        assert k.invoke_cost([(8, 32)]) is not first

    def test_memo_never_travels_in_a_pickle(self):
        make, shapes = self._factory("symbolic")
        k = make()
        first = k.invoke_cost(shapes(1))
        after_one = pickle.dumps(k)
        for m in range(1, 501):
            k.invoke_cost(shapes(m))
        assert k.invoke_cost(shapes(1)) is first  # still memoised
        after_many = pickle.dumps(k)
        assert len(after_many) == len(after_one)
        assert after_many == after_one
        restored = pickle.loads(after_many)
        assert "_cost_memo" not in vars(restored)
        for m in (1, 37, 500, 501):
            assert restored.invoke_cost(shapes(m)) == make().invoke_cost(shapes(m))
        # Neither does the lowered program: a kernel that has run pickles
        # to the bytes of one that has not, alone and inside an executable.
        k.run([np.ones((3, 32), np.float32)])
        assert "_program" in vars(k)
        assert pickle.dumps(k) == after_one
        assert "_program" not in vars(pickle.loads(pickle.dumps(k)))

    @pytest.mark.parametrize("case", [*_model_executables(), _unique_executable()],
                             ids=lambda case: case[0])
    def test_running_an_executable_does_not_change_what_it_saves(self, case):
        """Nor does the kernel's cached ``name``, which a run's profile
        reads (a toy exact LSTM saved 13,454 B before a run and 13,648 B
        after while it travelled), nor the analysis a data-dependent
        kernel's pricing makes (2,814 B -> 2,856 B)."""
        from repro.vm.interpreter import VirtualMachine

        _, exe, x = case
        before = exe.save()
        VirtualMachine(exe).run(x)
        assert any("_program" in vars(k) for k in exe.kernels)
        assert any("name" in vars(k) for k in exe.kernels)
        assert exe.save() == before

    def test_memo_is_capped(self):
        make, shapes = self._factory("static")
        cap = INVOKE_COST_MEMO_CAP
        k = make()
        for m in range(1, cap + 40):
            k.invoke_cost(shapes(m))
            assert len(k._cost_memo) <= cap
        # Overflow drops prices, never changes them.
        for m in (1, cap, cap + 39):
            assert k.invoke_cost(shapes(m)) == make().invoke_cost(shapes(m))

    def test_invocation_is_immutable(self):
        make, shapes = self._factory("static")
        inv = make().invoke_cost(shapes(4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            inv.duration_us = 0.0


class TestSchedule:
    def test_search_space_nonempty_unique(self):
        space = search_space()
        assert len(space) > 100
        assert len(set(space)) == len(space)

    def test_quality_in_unit_interval(self):
        for s in search_space()[:50]:
            q = s.quality(21, 768, 768)
            assert 0.0 < q <= 1.0

    @given(m=st.integers(1, 256))
    @settings(max_examples=30, deadline=None)
    def test_divisible_rows_never_worse(self, m):
        s = Schedule(8, 4, 2, True)
        q_div = s.quality(m - m % 8 + 8, 768, 768)
        q_frac = s.quality(m - m % 8 + 3, 768, 768)
        assert q_div >= q_frac - 1e-9

    def test_boundary_penalty_grows_with_footprint(self):
        narrow = Schedule(8, 2, 1, True)
        wide = Schedule(8, 16, 4, True)
        assert wide.boundary_penalty_coeff("arm") > narrow.boundary_penalty_coeff("arm")


class TestTuner:
    def test_instantiate_shapes(self):
        prim, _ = _dense_prim(16, 8, symbolic=True)
        assert instantiate_shapes(prim, 13) == [(13, 8)]

    def test_a_non_tensor_param_keeps_the_default_schedule(self):
        t = Var("t", TupleType([TensorType((Any(), 8), "float32")] * 2))
        prim = Function([t], api.add(TupleGetItem(t, 0), TupleGetItem(t, 1)),
                        TensorType((Any(), 8), "float32"), {"primitive": True})
        assert build_schedule(prim, {}) == default_schedule()
        with pytest.raises(CompilerError, match="param t"):
            instantiate_shapes(prim, 4)

    @pytest.mark.parametrize("plat", [arm_cpu, intel_cpu, nvidia_gpu])
    @pytest.mark.parametrize("n_out,k_in", [(768, 768), (3072, 768), (768, 3072), (256, 128)])
    def test_symbolic_build_beats_naive_reuse_on_average(self, plat, n_out, k_in):
        """§4.5's claim: the config a build picks for a symbolic kernel
        is at least as good over rows 1..256 as naively reusing the
        static best at ``TUNE_AT`` rows."""
        prim, _ = _dense_prim(n_out, k_in, symbolic=True)
        platform = plat()

        def total_us(schedule):
            return sum(
                tuned_cost_us(platform.compute_spec, platform.name,
                              compute_workload(prim, [(m, k_in)]), schedule,
                              (m, n_out, k_in), symbolic=True)
                for m in (2**i for i in range(9))
            )

        naive = best_schedule(TUNE_AT, n_out, k_in, symbolic=False)
        assert total_us(build_schedule(prim, {})) <= total_us(naive) * 1.0001


def _built_models(platform):
    """(label, executable) of tiny LSTM, TreeLSTM and BERT on *platform*:
    dynamic, and the LSTM and BERT also specialized to length 5 and
    batched 2 at it."""
    import repro.nimble as nimble
    from repro.models.bert import BertConfig, BertWeights, build_bert_module
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

    lstm = build_lstm_module(LSTMWeights.create(input_size=12, hidden_size=16, seed=0))
    bert = build_bert_module(
        BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))
    tree = build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
    yield "tree_lstm", nimble.build(tree, platform)[0]
    for name, mod, width in (("lstm", lstm, 12), ("bert", bert, 24)):
        yield name, nimble.build(mod, platform)[0]
        yield f"{name}@5", nimble.specialize(mod, platform, shapes=[(5, width)])[0]
        yield f"{name}@5x2", nimble.specialize(mod, platform, shapes=[(5, width)], batch=2)[0]


def _schedules(exe):
    return [k.schedule for k in exe.kernels if isinstance(k, KernelSet)]


class TestBuiltSchedules:
    """A build gives each kernel the template config ``Schedule.quality``
    ranks highest at its canonical (m, n, k) (§4.5): a static kernel the
    best of the whole space at its shape, a symbolic one the dispatch
    tile 8 with the best vector width and unroll."""

    @pytest.fixture(scope="class", params=["intel", "arm", "nvidia"])
    def built(self, request):
        from repro.hardware import platform_by_name

        return dict(_built_models(platform_by_name(request.param)))

    def test_no_kernel_prices_above_the_default_schedule(self, built):
        """At a static kernel's own shapes and at rows 1..256 for a
        symbolic one; a symbolic kernel keeps tile 8 and its eight
        residue kernels."""
        cheaper = 0
        for label, exe in built.items():
            for k in exe.kernels:
                if not isinstance(k, KernelSet):
                    continue
                default = KernelSet(k.prim, k.platform, k.spec, schedule=default_schedule())
                if k.symbolic:
                    assert (k.schedule.tile, k.num_dispatch_kernels) == (8, 8), (label, k.name)
                for m in range(1, 257) if k.symbolic else (1,):
                    shapes = instantiate_shapes(k.prim, m)
                    got = k.invoke_cost(shapes).duration_us
                    want = default.invoke_cost(shapes).duration_us
                    assert got <= want, (label, k.name, m)
                    cheaper += got < want
        assert cheaper > 0

    def test_two_builds_choose_the_same_schedules_and_a_load_keeps_them(self, built):
        from repro.hardware import platform_by_name
        from repro.vm.executable import Executable

        platform = platform_by_name(next(iter(built.values())).platform_name)
        again = dict(_built_models(platform))
        for label, exe in built.items():
            assert _schedules(again[label]) == _schedules(exe), label
            assert _schedules(Executable.load(exe.save())) == _schedules(exe), label

    def test_the_search_picks_by_quality_and_breaks_ties_to_the_largest_tile(self):
        # m = 20 rows divide by 1, 2 and 4 alike: the largest of them wins.
        assert best_schedule(20, 768, 768, symbolic=False).tile == 4
        assert best_schedule(1, 512, 512, symbolic=False) == Schedule(1, 4, 2, True)
        # BERT-base width: rows of 2,304 want a footprint of 16, not 8.
        wide = best_schedule(TUNE_AT, 2304, 768, symbolic=True)
        assert wide == Schedule(8, 4, 4, True)
        for m in range(1, 257):
            assert wide.quality(m, 2304, 768) > default_schedule().quality(m, 2304, 768)

    @pytest.mark.parametrize("n", [1, 6, 24, 768, 2304])
    def test_the_search_is_the_whole_space_ranked_by_quality_then_preference(self, n):
        def preference(s):
            return (-s.vectorize, -s.unroll, s.parallel)

        for m in (0, *range(1, 34), 64, 256):
            want = max(search_space(), key=lambda s: (s.quality(m, n, 64), s.tile, *preference(s)))
            assert best_schedule(m, n, 64, symbolic=False) == want, m
            want = max((s for s in search_space() if s.tile == 8),
                       key=lambda s: (s.quality(m, n, 64), *preference(s)))
            assert best_schedule(m, n, 64, symbolic=True) == want, m

    def test_a_cache_searches_each_shape_once(self, monkeypatch):
        import repro.codegen.kernels as kernels
        import repro.nimble as nimble
        from repro.models.lstm import LSTMWeights, build_lstm_module

        searched = []
        real = kernels.best_schedule
        monkeypatch.setattr(kernels, "best_schedule",
                            lambda *key: searched.append(key) or real(*key))
        mod = build_lstm_module(LSTMWeights.create(input_size=12, hidden_size=16, seed=0))
        cache = KernelCache()
        first = nimble.build(mod, intel_cpu(), kernel_cache=cache)[0]
        assert len(searched) == len(set(searched)) > 0
        nimble.specialize(mod, intel_cpu(), shapes=[(5, 12)], kernel_cache=cache)
        assert len(searched) == len(set(searched))
        count = len(searched)
        again = nimble.build(mod, intel_cpu(), kernel_cache=KernelCache())[0]
        assert len(searched) > count  # a new cache searches afresh
        assert _schedules(again) == _schedules(first)


class TestStaticKernels:
    def test_static_executables_have_only_static_kernels(self):
        """A fused group with static inputs compiles to a static kernel —
        no symbolic-index overhead and one dispatch variant — on BERT
        specialized to one length (Table 4's static side) and the four
        CV models of the §6.3 footprint study."""
        import repro.nimble as nimble
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.models.vision import (
            build_mobilenet_like,
            build_resnet_like,
            build_squeezenet_like,
            build_vgg_like,
        )

        bert = BertWeights.create(BertConfig(hidden=16, num_heads=2, num_layers=2, ffn=32))
        exes = [nimble.specialize(build_bert_module(bert), intel_cpu(), shapes=[(6, 16)])[0]] + [
            nimble.build(build(), intel_cpu())[0] for build in (
                build_resnet_like, build_mobilenet_like, build_vgg_like, build_squeezenet_like)
        ]
        for exe in exes:
            assert exe.kernels
            assert all(k.symbolic is False for k in exe.kernels)
            assert all(k.num_dispatch_kernels == 1 for k in exe.kernels)


class TestShapeInterpretation:
    """One interpreter of a primitive body over shapes
    (``prim_info.interpret_shapes``) serves the VM's shape functions and
    the kernel workload; only the workload tallies work."""

    def test_shape_functions_and_workload_agree_and_only_the_workload_counts(
        self, monkeypatch
    ):
        from repro.core.memory.prim_info import analyze_prim_func, run_fused_shape_func

        prim, _ = _dense_prim(16, 8, with_relu=True)
        info = analyze_prim_func(prim)
        for name in info.ops:
            def refuse(*args):
                raise AssertionError("a shape function priced work")

            monkeypatch.setattr(get_op_def(name), "flops", refuse)
        assert run_fused_shape_func(info, [(5, 8)]) == [(5, 16)]
        monkeypatch.undo()
        assert compute_workload(prim, [(5, 8)]).out_shapes == ((5, 16),)

    def test_calls_travel_with_the_info_but_not_in_its_pickle(self):
        from repro.core.memory.prim_info import analyze_prim_func

        prim, _ = _dense_prim(16, 8, with_relu=True)
        info = analyze_prim_func(prim)
        assert [c.op.name for c in info.calls] == info.ops == ["nn.relu"]
        # Stored kernels keep their bytes: the calls are derived state.
        assert pickle.dumps(info) == pickle.dumps(dataclasses.replace(info, calls=[]))
        restored = pickle.loads(pickle.dumps(info))
        assert [c.op.name for c in restored.calls] == info.ops


class TestCacheHitsAreConfirmed:
    """A structural hash files a prim in a bucket; it does not name it.
    ``KernelCache`` and ``VMCompiler.packed_index`` confirm every hit with
    ``structural_equal``, and ``kernels.kc`` keys are re-derived from each
    kernel's prim when the file is read."""

    @staticmethod
    def _module(family):
        from repro.models.bert import BertConfig, BertWeights, build_bert_module
        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

        if family == "lstm":
            return build_lstm_module(
                LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        if family == "tree_lstm":
            return build_tree_lstm_module(
                TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
        return build_bert_module(
            BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=24), seed=0))

    @classmethod
    def _build_and_run(cls, family):
        """(kernel count, output bytes) of a fresh dynamic build."""
        import repro.nimble as nimble
        from repro.data import Tree, embedding_table
        from repro.models.tree_lstm import tree_to_adt
        from repro.runtime.context import ExecutionContext
        from repro.vm.interpreter import VirtualMachine

        exe = nimble.build(cls._module(family), intel_cpu())[0]
        rng = np.random.RandomState(0)
        if family == "tree_lstm":
            x = tree_to_adt(Tree.node(Tree.node(Tree.leaf(1), Tree.leaf(2)), Tree.leaf(3)),
                            embedding_table(vocab_size=8, dim=12, seed=0))
        else:
            x = rng.randn(6, 12 if family == "lstm" else 24).astype(np.float32)
        out = VirtualMachine(exe, ExecutionContext(intel_cpu(), numerics="full")).run(x)
        return len(exe.kernels), out.numpy().tobytes()

    @pytest.mark.parametrize("family", ["lstm", "tree_lstm", "bert"])
    def test_every_prim_hashing_alike_still_gets_its_own_kernel(self, family, monkeypatch):
        """With every hash equal, only the shape signature and the
        confirmation keep kernels apart. This BERT's FFN is as wide as
        its hidden layer, so `dense+bias_add` and `dense+bias_add+gelu`
        share a signature: an unconfirmed hit runs the wrong kernel."""
        from repro.codegen import kernels
        from repro.passes import cse

        want = self._build_and_run(family)
        for module in (cse, kernels):  # kernels.prim_key keys the VM compiler too
            monkeypatch.setattr(module, "structural_hash", lambda expr: 0)
        assert self._build_and_run(family) == want

    def test_a_colliding_prim_gets_a_kernel_that_is_not_cached(self, monkeypatch):
        from repro.codegen import KernelCache, kernels

        monkeypatch.setattr(kernels, "structural_hash", lambda expr: 0)
        platform = intel_cpu()
        spec = platform.spec_of(platform.compute)
        first, _ = _dense_prim()
        other, _ = _dense_prim(with_relu=True)  # same signature, other body
        cache = KernelCache()
        kept = cache.kernel(first, platform, spec)
        a, b = cache.kernel(other, platform, spec), cache.kernel(other, platform, spec)
        assert a.prim is other and a is not kept and a is not b
        assert cache.kernel(first, platform, spec) is kept
        assert len(cache) == 1

    def test_an_imported_kernel_is_found_whatever_its_key_was(self):
        """A ``kernels.kc`` carries no keys at all — they are Python
        hashes, another under each ``PYTHONHASHSEED`` — so every entry is
        keyed again from its prim where it is imported."""
        import repro.nimble as nimble
        from repro.codegen import KernelCache
        from repro.ir import codec

        cache = KernelCache()
        nimble.build(self._module("lstm"), intel_cpu(), kernel_cache=cache)
        payload = cache.export_entries()
        kernels, shape_funcs = codec.loads(payload)
        assert isinstance(kernels, list) and isinstance(shape_funcs, list)
        warm = KernelCache()
        assert warm.import_entries(payload) == len(kernels) + len(shape_funcs)
        imported = {id(entry) for entry in [*warm._kernels.values(), *warm._shape_funcs.values()]}
        exe = nimble.build(self._module("lstm"), intel_cpu(), kernel_cache=warm)[0]
        assert all(id(kernel) in imported for kernel in exe.kernels)
        assert len(warm) == len(kernels)
