"""The static verification subsystem (`repro.analysis`).

Unit level: every finding class of the bytecode verifier (structural
operand validity plus the all-paths dataflow), the independent
vector-clock race model (hazard edges, lost wakeups, the fence/join
contract, the control-flow soundness rule), the memory-lifetime checker
(byte-range overlap, whole-storage tensors on a dynamic token, the
unverifiable fragment, hygiene warnings), and the IR lint (scoping, unique binders, type agreement,
ANF, `verify_each_pass`).

Integration level: freshly compiled models verify with zero error
findings; every seeded corruption class of the
mutation harness is detected on a real multi-stream build (the 100%
detection acceptance bar); and the store rejects-and-counts a blob that
fails verification instead of ever handing it to a VM.
"""

from dataclasses import replace as dc_replace

import numpy as np
import pytest

import repro.nimble as nimble
from repro.analysis import (
    OPERATORS,
    all_mutants,
    assert_verified,
    check_bytecode,
    check_lifetimes,
    check_races,
    lint_function,
    lint_module,
    verify_executable,
)
from repro.analysis.bytecode import check_function
from repro.analysis.lifetimes import check_function_lifetimes
from repro.analysis.races import _check_function
from repro.errors import Finding, VerificationError
from repro.hardware.platforms import intel_cpu, nvidia_gpu
from repro.ir import Any, Constant, Function, IRModule, Let, TensorType, Tuple, Var
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.ops import api
from repro.passes import (
    CommonSubexprElimination,
    DeadCodeElimination,
    FoldConstant,
    Pass,
    Sequential,
    SimplifyExpressions,
)
from repro.store import ArtifactStore
from repro.tensor.device import cpu, gpu
from repro.vm import instruction as ins
from repro.vm.compiler import CompilerOptions
from repro.vm.executable import Executable, VMFunction
from repro.vm.schedule import schedule_function

GPU = gpu(0)


def kernel(args, num_outputs=1, device=GPU, kind="compute", stream=0):
    """A synthetic InvokePacked: last ``num_outputs`` args are outputs."""
    split = len(args) - num_outputs
    return ins.InvokePacked(
        0, tuple(args[:split]), tuple(args[split:]), device, kind, stream
    )


def func_of(instructions, name="main", num_params=0):
    return VMFunction(name, num_params, list(instructions), 64)


def exe_of(functions, constants=(), device_streams=1, num_events=0):
    """A minimal executable wrapping hand-assembled functions. One kernel
    slot so the synthetic ``packed_index=0`` stays in bounds."""
    return Executable(
        platform_name="nvidia",
        functions=list(functions),
        func_index={f.name: i for i, f in enumerate(functions)},
        constants=list(constants),
        kernels=[None],
        device_streams=device_streams,
        num_events=num_events,
    )


def errors_of(findings):
    return [f for f in findings if f.severity == "error"]


def small_bert():
    config = BertConfig(hidden=64, num_heads=4, num_layers=2, ffn=128)
    weights = BertWeights.create(config, seed=0)
    return build_bert_module(weights)


def small_lstm():
    return build_lstm_module(LSTMWeights.create(16, 32, 1))


@pytest.fixture(scope="module")
def dynamic_builds():
    return {
        "bert": nimble.build(small_bert(), intel_cpu())[0],
        "lstm": nimble.build(small_lstm(), intel_cpu())[0],
    }


@pytest.fixture(scope="module")
def scheduled_bert():
    """Shape-specialized BERT at four streams: the one build in the test
    zoo that actually carries a static multi-stream schedule."""
    exe, _ = nimble.specialize(
        small_bert(), nvidia_gpu(), shapes=[(8, 64)],
        options=CompilerOptions(device_streams=4),
    )
    return exe


# ---------------------------------------------------------------------------
# Bytecode verifier: structural validity
# ---------------------------------------------------------------------------


class TestBytecodeStructural:
    def test_operands_of_every_opcode(self):
        """``(reads, writes)`` of one sample per instruction class, as
        the verifier's hand-written table had them: a register field
        marked with the wrong role, or a plain field marked a register,
        changes a row. ``InvokePacked`` reads its outputs too."""
        from test_vm import _sample_instructions

        expected = [
            ((1,), (2,)),           # Move
            ((3,), ()),             # Ret
            ((1, 2), (3,)),         # Invoke
            ((4, 5), (6,)),         # InvokeClosure
            ((0, 1, 2), ()),        # InvokePacked
            ((1,), (2,)),           # AllocStorage
            ((1, 2), (5,)),         # AllocTensor: the shape is no register
            ((1, 2, 3), (4,)),      # AllocTensorReg
            ((1, 2), (3,)),         # AllocADT
            ((3, 4), (5,)),         # AllocClosure
            ((1,), (2,)),           # GetField
            ((1,), (2,)),           # GetTag
            ((1, 2), ()),           # If
            ((), ()),               # Goto
            ((), (1,)),             # LoadConst
            ((), (1,)),             # LoadConsti
            ((1,), (2,)),           # DeviceCopy
            ((1,), (2,)),           # ShapeOf
            ((1, 2), (3,)),         # ReshapeTensor
            ((), ()),               # Fatal
            ((0, 1, 2), ()),        # InvokePacked on a stream
            ((), ()),               # StreamEvent
            ((), ()),               # StreamWait
        ]
        assert [ins.operands(i) for i in _sample_instructions()] == expected

    def test_clean_minimal_function(self):
        exe = exe_of(
            [func_of([ins.LoadConst(0, 0), ins.Ret(0)])],
            constants=[np.zeros((2,), np.float32)],
        )
        assert check_bytecode(exe) == []

    def test_register_outside_register_file(self):
        f = VMFunction("main", 0, [ins.Move(99, 0), ins.Ret(0)], 8)
        findings = check_function(f, exe_of([f]))
        assert any("r99" in f_.message for f_ in findings)

    def test_packed_index_outside_kernel_table(self):
        f = func_of([
            ins.InvokePacked(7, (1,), (2,), GPU, "compute"), ins.Ret(2),
        ])
        findings = check_function(f, exe_of([f]))
        assert any("packed_index 7" in x.message for x in findings)

    def test_unknown_kernel_kind(self):
        f = func_of([kernel([1, 2], kind="gemm"), ins.Ret(2)])
        (finding,) = check_function(f, exe_of([f]))
        assert (finding.pc, finding.message) == (0, "unknown kernel kind 'gemm'")

    @pytest.mark.parametrize("model, kind, relabel", [
        ("bert", "shape_func", "compute"),
        ("bert", "host_scalar", "shape_func"),
        ("lstm", "compute", "shape_func"),
    ])
    def test_kind_that_disagrees_with_the_kernel_table(self, dynamic_builds, model, kind, relabel):
        """Relabelled in a saved blob, each of these verified clean and
        then crashed the VM: a shape function priced as a kernel set
        (no ``invoke_cost``), a kernel set run as a shape function (no
        ``cost_us``), and an LSTM cell's shapes read as a shape vector."""
        exe = dynamic_builds[model]
        fi, pc = next(
            (fi, pc) for fi, f in enumerate(exe.functions)
            for pc, i in enumerate(f.instructions)
            if isinstance(i, ins.InvokePacked) and i.kind == kind
        )
        func = exe.functions[fi]
        instrs = list(func.instructions)
        instrs[pc] = dc_replace(instrs[pc], kind=relabel)
        functions = list(exe.functions)
        functions[fi] = VMFunction(func.name, func.num_params, instrs, func.register_count)
        (finding,) = verify_executable(dc_replace(exe, functions=functions))
        assert (finding.function, finding.pc) == (func.name, pc)
        assert finding.message.startswith(f"{relabel} invocation of kernel ")

    def test_invoke_parameter_count_mismatch(self):
        callee = func_of([ins.Ret(0)], name="cell", num_params=2)
        caller = func_of(
            [ins.LoadConsti(1, 0), ins.Invoke(0, (0,), 1), ins.Ret(1)],
            name="main",
        )
        exe = exe_of([callee, caller])
        findings = check_function(caller, exe)
        assert any(
            "takes 2 parameter(s), called with 1" in x.message
            for x in findings
        )
        assert check_function(callee, exe) == []  # params arrive defined

    def test_const_and_func_indices_bounds(self):
        f = func_of([
            ins.LoadConst(5, 0),
            ins.AllocClosure(9, (), 1),
            ins.Ret(0),
        ])
        msgs = [x.message for x in check_function(f, exe_of([f]))]
        assert any("const_index 5" in m for m in msgs)
        assert any("func_index 9" in m for m in msgs)

    def test_jump_targets_stay_inside_function(self):
        f = func_of([ins.LoadConsti(1, 0), ins.Goto(5), ins.Ret(0)])
        findings = check_function(f, exe_of([f]))
        assert any("jump target 6" in x.message for x in findings)
        g = func_of([ins.LoadConsti(1, 0), ins.If(0, 0, 1, -5), ins.Ret(0)])
        findings = check_function(g, exe_of([g]))
        assert any("jump target -4" in x.message for x in findings)

    def test_stream_and_event_operand_bounds(self):
        f = func_of([
            ins.StreamEvent(4, GPU, 0),    # event table has 2 slots
            ins.StreamWait(0, GPU, 7),     # only 2 streams declared
            kernel([1, 2], stream=5),
            ins.Ret(2),
        ])
        exe = exe_of([f], device_streams=2, num_events=2)
        msgs = [x.message for x in check_function(f, exe)]
        assert any("event_index 4" in m for m in msgs)
        assert any("stream 7" in m for m in msgs)
        assert any("stream 5" in m for m in msgs)

    def test_static_tensor_with_a_negative_dimension(self):
        """It used to verify clean, survive save / load and run as (3, 4)
        out of 64 bytes: NumPy reads -1 as "infer"."""
        f = func_of([
            ins.LoadConsti(64, 0),
            ins.AllocStorage(0, 64, GPU, 1),
            ins.LoadConsti(0, 2),
            ins.AllocTensor(1, 2, (-1, 4), "float32", 3),
            ins.Ret(3),
        ])
        exe = Executable.load(exe_of([f]).save())
        (finding,) = check_bytecode(exe)
        assert (finding.pc, finding.message) == (3, "shape (-1, 4) has a negative dimension")

    def test_entry_missing_from_function_table(self):
        exe = exe_of([func_of([ins.Ret(0)], name="helper", num_params=1)])
        findings = check_bytecode(exe)
        assert any("entry function" in x.message for x in findings)


# ---------------------------------------------------------------------------
# Bytecode verifier: dataflow
# ---------------------------------------------------------------------------


class TestBytecodeDataflow:
    def test_read_before_definition(self):
        f = func_of([ins.Move(3, 4), ins.Ret(4)])
        findings = check_function(f, exe_of([f]))
        assert any(
            "r3 read before definition" in x.message for x in findings
        )

    def test_defined_on_one_path_only(self):
        # The true branch defines r1; the false branch jumps straight to
        # the join, which reads it. Must-defined = intersection -> error.
        f = func_of([
            ins.LoadConsti(1, 0),
            ins.If(0, 0, 1, 2),
            ins.LoadConsti(7, 1),     # true path defines r1
            ins.Ret(1),               # join: r1 only maybe-defined
        ])
        findings = check_function(f, exe_of([f]))
        assert any(
            "r1 read before definition" in x.message for x in findings
        )

    def test_defined_on_all_paths_is_clean(self):
        f = func_of([
            ins.LoadConsti(1, 0),
            ins.If(0, 0, 1, 3),
            ins.LoadConsti(7, 1),
            ins.Goto(2),
            ins.LoadConsti(8, 1),     # false path defines r1 too
            ins.Ret(1),
        ])
        assert check_function(f, exe_of([f])) == []

    def test_execution_falls_off_the_end(self):
        f = func_of([ins.LoadConsti(1, 0)])
        findings = check_function(f, exe_of([f]))
        assert any("falls off the end" in x.message for x in findings)

    def test_alloc_tensor_from_provable_non_storage(self):
        f = func_of([
            ins.LoadConsti(0, 0),
            ins.AllocTensor(0, 0, (4,), "float32", 1),  # r0 is an int
            ins.Ret(1),
        ])
        findings = check_function(f, exe_of([f]))
        assert any(
            "does not hold a storage block" in x.message for x in findings
        )

    def test_moved_storage_register_is_accepted(self):
        f = func_of([
            ins.LoadConsti(64, 0),
            ins.AllocStorage(0, 64, GPU, 1),
            ins.Move(1, 2),           # storage-ness survives the move
            ins.AllocTensor(2, 0, (4,), "float32", 3),
            ins.Ret(3),
        ])
        assert check_function(f, exe_of([f])) == []

    def test_unreachable_code_is_not_condemned(self):
        f = func_of([
            ins.LoadConsti(1, 0),
            ins.Ret(0),
            ins.Move(9, 10),          # dead: never reached, never flagged
            ins.Ret(10),
        ])
        assert check_function(f, exe_of([f])) == []


# ---------------------------------------------------------------------------
# Stream-schedule race detector
# ---------------------------------------------------------------------------


def diamond():
    """k1 and k2 both read k0's output; k3 joins them."""
    return func_of([
        kernel([1, 10]),          # k0
        kernel([10, 11]),         # k1 dep k0
        kernel([10, 2, 12]),      # k2 dep k0
        kernel([11, 12, 13]),     # k3 dep k1, k2
        ins.Ret(13),
    ])


class TestRaceDetector:
    def test_scheduled_diamond_is_ordered(self):
        scheduled, _ = schedule_function(diamond(), 2, is_entry=True)
        assert _check_function(scheduled, is_entry=True) == []

    def test_unsynchronized_cross_stream_edge(self):
        # k1 on stream 1 reads k0's output with no event in sight.
        f = func_of([
            kernel([1, 10], stream=0),
            kernel([10, 11], stream=1),
            ins.Ret(11),
        ])
        findings = _check_function(f, is_entry=True)
        assert any("hazard edge unordered" in x.message for x in findings)

    def test_dropped_wait_is_detected(self):
        scheduled, _ = schedule_function(diamond(), 2, is_entry=True)
        instrs = list(scheduled.instructions)
        wait_at = max(
            i for i, x in enumerate(instrs) if isinstance(x, ins.StreamWait)
        )
        del instrs[wait_at]
        mutant = VMFunction(
            scheduled.name, scheduled.num_params, instrs,
            scheduled.register_count,
        )
        assert errors_of(_check_function(mutant, is_entry=True))

    def test_reordered_event_is_a_lost_wakeup(self):
        scheduled, _ = schedule_function(diamond(), 2, is_entry=True)
        instrs = list(scheduled.instructions)
        wait_at = next(
            i for i, x in enumerate(instrs) if isinstance(x, ins.StreamWait)
        )
        wait = instrs[wait_at]
        event_at = next(
            i for i, x in enumerate(instrs)
            if isinstance(x, ins.StreamEvent)
            and x.event_index == wait.event_index
        )
        assert event_at < wait_at
        instrs.insert(wait_at + 1, instrs.pop(event_at))
        mutant = VMFunction(
            scheduled.name, scheduled.num_params, instrs,
            scheduled.register_count,
        )
        assert errors_of(_check_function(mutant, is_entry=True))

    def test_device_copy_is_a_global_sync(self):
        # The cross-stream read happens after a DeviceCopy drained the
        # device: no event needed, and the model must agree.
        f = func_of([
            kernel([1, 10], stream=1),
            ins.DeviceCopy(10, 11, GPU, cpu(0)),
            kernel([12, 13], stream=0),
            ins.Ret(13),
        ])
        assert _check_function(f, is_entry=True) == []

    def test_host_to_device_copy_is_no_sync(self):
        # A copy from the host drains nothing: the edge across it needs
        # the wait the scheduler emits, and dropping that wait is a race.
        f = func_of([
            kernel([1, 10]),
            kernel([2, 11]),                       # independent: stream 1
            ins.DeviceCopy(3, 12, cpu(0), GPU),
            kernel([10, 11, 12, 13]),              # stream 0, reads stream 1
            ins.Ret(13),
        ])
        scheduled, _ = schedule_function(f, 2, is_entry=True)
        assert _check_function(scheduled, is_entry=True) == []
        instrs = [x for x in scheduled.instructions
                  if not isinstance(x, ins.StreamWait)]
        assert len(instrs) == len(scheduled.instructions) - 1
        mutant = VMFunction(
            scheduled.name, scheduled.num_params, instrs,
            scheduled.register_count,
        )
        findings = errors_of(_check_function(mutant, is_entry=True))
        assert any("hazard edge unordered" in x.message for x in findings)

    def test_control_flow_with_schedule_is_flagged(self):
        f = func_of([
            ins.Goto(1),
            kernel([1, 10], stream=1),
            ins.Ret(10),
        ])
        findings = _check_function(f, is_entry=False)
        assert any(
            "control flow or calls carries a stream schedule" in x.message
            for x in findings
        )

    def test_control_flow_without_schedule_is_fine(self):
        f = func_of([ins.Goto(1), kernel([1, 10]), ins.Ret(10)])
        assert _check_function(f, is_entry=False) == []

    def test_fence_and_join_satisfy_the_caller_contract(self):
        f = func_of([kernel([1, 10]), kernel([2, 11]), ins.Ret(10)],
                    name="cell")
        scheduled, _ = schedule_function(f, 2, is_entry=False)
        assert _check_function(scheduled, is_entry=False) == []

    def test_missing_entry_fence_is_detected(self):
        f = func_of([kernel([1, 10]), kernel([2, 11]), ins.Ret(10)],
                    name="cell")
        scheduled, _ = schedule_function(f, 2, is_entry=False)
        instrs = list(scheduled.instructions)
        # Strip the prologue: the stream-0 event and the side stream's
        # wait on it.
        assert isinstance(instrs[0], ins.StreamEvent)
        assert isinstance(instrs[1], ins.StreamWait)
        mutant = VMFunction(
            scheduled.name, scheduled.num_params, instrs[2:],
            scheduled.register_count,
        )
        findings = _check_function(mutant, is_entry=False)
        assert any("missing entry fence" in x.message for x in findings)

    def test_missing_exit_join_is_detected(self):
        f = func_of([kernel([1, 10]), kernel([2, 11]), ins.Ret(10)],
                    name="cell")
        scheduled, _ = schedule_function(f, 2, is_entry=False)
        instrs = [
            x for x in scheduled.instructions
            if not (isinstance(x, ins.StreamWait) and x.stream == 0)
        ]
        mutant = VMFunction(
            scheduled.name, scheduled.num_params, instrs,
            scheduled.register_count,
        )
        findings = _check_function(mutant, is_entry=False)
        assert any("missing exit join" in x.message for x in findings)

    def test_entry_function_owes_no_fence(self):
        # The same unfenced body is legal as the entry: no caller to race.
        f = func_of([kernel([1, 10], stream=1), ins.Ret(10)])
        assert _check_function(f, is_entry=True) == []
        findings = _check_function(f, is_entry=False)
        assert any("missing entry fence" in x.message for x in findings)


# ---------------------------------------------------------------------------
# Memory-lifetime checker
# ---------------------------------------------------------------------------


def storage_prologue(size=64):
    """LoadConsti size -> r0, AllocStorage -> r1, LoadConsti 0 -> r2."""
    return [
        ins.LoadConsti(size, 0),
        ins.AllocStorage(0, 64, GPU, 1),
        ins.LoadConsti(0, 2),
    ]


class TestLifetimes:
    def test_overlapping_live_intervals_detected(self):
        f = func_of(storage_prologue() + [
            ins.AllocTensor(1, 2, (4,), "float32", 3),   # bytes [0, 16)
            ins.AllocTensor(1, 2, (4,), "float32", 4),   # same bytes
            kernel([3, 4]),      # reads A, writes B
            kernel([4, 3]),      # reads B, writes A: both alive at once
            ins.Ret(3),
        ])
        findings = check_function_lifetimes(f, exe_of([f]))
        assert any(
            "overlapping live intervals" in x.message
            for x in errors_of(findings)
        )

    def test_disjoint_byte_ranges_are_clean(self):
        f = func_of(storage_prologue(128) + [
            ins.LoadConsti(16, 5),
            ins.AllocTensor(1, 2, (4,), "float32", 3),   # bytes [0, 16)
            ins.AllocTensor(1, 5, (4,), "float32", 4),   # bytes [16, 32)
            kernel([3, 4]),
            kernel([4, 3]),
            ins.Ret(3),
        ])
        assert errors_of(check_function_lifetimes(f, exe_of([f]))) == []

    def test_sequential_reuse_is_clean(self):
        # B is carved over A's bytes only after A's last use: the exact
        # coalescing the memory planner exists to perform.
        f = func_of(storage_prologue() + [
            ins.AllocTensor(1, 2, (4,), "float32", 3),
            kernel([9, 3]),      # writes A     (r9: unrelated input)
            kernel([3, 10]),     # reads A: A's lifetime ends here
            ins.AllocTensor(1, 2, (4,), "float32", 4),
            kernel([11, 4]),     # writes B, after A is dead
            ins.Ret(4),
        ])
        assert errors_of(check_function_lifetimes(f, exe_of([f]))) == []

    def test_unused_storage_warns(self):
        f = func_of(storage_prologue() + [ins.Ret(2)])
        findings = check_function_lifetimes(f, exe_of([f]))
        assert any(
            "never carved into a tensor" in x.message
            and x.severity == "warning"
            for x in findings
        )

    def test_read_before_any_write_warns(self):
        f = func_of(storage_prologue() + [
            ins.AllocTensor(1, 2, (4,), "float32", 3),
            kernel([3, 10]),     # reads the fresh tensor
            ins.Ret(3),
        ])
        findings = check_function_lifetimes(f, exe_of([f]))
        assert any(
            "read but never written" in x.message
            and x.severity == "warning"
            for x in findings
        )

    def test_dynamic_token_leaves_the_provable_fragment(self):
        # An AllocTensorReg at an offset that never resolves to a
        # constant makes the token's layout unknown: the checker must stay
        # silent even on an overlap-shaped pattern. (At the constant
        # offset 0 it is a whole-storage tensor and stays provable:
        # TestDynamicTokens.)
        f = func_of(storage_prologue() + [
            ins.ShapeOf(3, 6),   # some shape register (value irrelevant)
            ins.ShapeOf(3, 8),   # an offset no constant propagation resolves
            ins.AllocTensorReg(1, 8, 6, "float32", 7),
            ins.AllocTensor(1, 2, (4,), "float32", 3),
            ins.AllocTensor(1, 2, (4,), "float32", 4),
            kernel([3, 4]),
            kernel([4, 3]),
            ins.Ret(3),
        ])
        assert errors_of(check_function_lifetimes(f, exe_of([f]))) == []

    def test_control_flow_functions_are_out_of_scope(self):
        f = func_of([ins.Goto(1), ins.LoadConsti(0, 0), ins.Ret(0)])
        assert check_function_lifetimes(f, exe_of([f])) == []


# ---------------------------------------------------------------------------
# IR lint + verify_each_pass
# ---------------------------------------------------------------------------


def t(shape=(2,)):
    return TensorType(shape, "float32")


class TestLint:
    def test_free_variable_is_an_error(self):
        x, y = Var("x", t()), Var("y", t())
        findings = lint_function("f", Function([x], y), typed=False)
        assert any("free variable %y" in f.message for f in findings)

    def test_duplicate_binder_is_an_error(self):
        x = Var("x", t())
        body = Let(x, Constant(np.zeros((2,), np.float32)), x)
        findings = lint_function("f", Function([x], body), typed=False)
        assert any("bound more than once" in f.message for f in findings)

    def test_shadowing_and_unused_bindings_warn(self):
        x1, x2 = Var("x", t()), Var("x", t())
        body = Let(x2, Constant(np.zeros((2,), np.float32)), x1)
        findings = lint_function("f", Function([x1], body), typed=False)
        assert any(
            "shadowing" in f.message and f.severity == "warning"
            for f in findings
        )
        assert any(
            "unused binding %x" in f.message and f.severity == "warning"
            for f in findings
        )
        assert errors_of(findings) == []  # hygiene, not soundness

    def test_let_type_disagreement_is_an_error(self):
        v = Var("v", t((2,)))
        v.checked_type = t((2,))
        c = Constant(np.zeros((3,), np.float32))
        c.checked_type = t((3,))
        findings = lint_function("f", Function([], Let(v, c, v)))
        assert any(
            "disagrees with value type" in f.message
            for f in errors_of(findings)
        )

    def test_anf_discipline(self):
        x = Var("x", t())
        nested = Tuple([Tuple([x])])
        findings = lint_function(
            "f", Function([x], nested), typed=False, anf=True
        )
        assert any("ANF discipline" in f.message for f in findings)
        assert lint_function(
            "f", Function([x], Tuple([x])), typed=False, anf=True
        ) == []

    def test_compiler_pipeline_output_is_clean(self):
        from repro.core.typing import infer_types

        mod = infer_types(small_lstm())
        pipeline = Sequential(
            [FoldConstant(), SimplifyExpressions(),
             CommonSubexprElimination(), DeadCodeElimination()],
            verify_each_pass=True,
        )
        out = pipeline.run(mod)
        assert errors_of(lint_module(out)) == []

    def test_verify_each_pass_names_the_offending_pass(self):
        class ScopeBreaker(Pass):
            name = "ScopeBreaker"

            def run(self, mod):
                out = mod.shallow_copy()
                for gv, f in list(out.functions.items()):
                    if not f.is_primitive and f.params:
                        out.functions[gv] = Function(
                            f.params[:-1], f.body, f.ret_type, f.attrs
                        )
                return out

        pipeline = Sequential(
            [ScopeBreaker()], reinfer_types=False, verify_each_pass=True
        )
        with pytest.raises(VerificationError) as err:
            pipeline.run(small_lstm())
        assert "after pass ScopeBreaker" in str(err.value)
        assert any(
            "free variable" in f.message for f in err.value.findings
        )


# ---------------------------------------------------------------------------
# Compiled models verify clean
# ---------------------------------------------------------------------------


class TestCleanArtifacts:
    def test_dynamic_builds_verify(self):
        for mod, platform in [
            (small_lstm(), nvidia_gpu()),
            (small_bert(), intel_cpu()),
        ]:
            exe, _ = nimble.build(mod, platform)
            assert assert_verified(exe) is not None

    def test_scheduled_specialized_build_verifies(self, scheduled_bert):
        assert scheduled_bert.device_streams == 4
        assert scheduled_bert.num_events > 0
        assert errors_of(verify_executable(scheduled_bert)) == []


# ---------------------------------------------------------------------------
# Mutation harness: 100% detection of every seeded corruption class
# ---------------------------------------------------------------------------


class TestMutationDetection:
    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_corruption_class_detected(self, scheduled_bert, name):
        mutant = OPERATORS[name](scheduled_bert)
        assert mutant is not None, f"no site for {name} on a 4-stream build"
        errors = errors_of(verify_executable(mutant))
        assert errors, f"{name} mutant verified clean"

    def test_operators_never_modify_the_input(self, scheduled_bert):
        before = [list(f.instructions) for f in scheduled_bert.functions]
        all_mutants(scheduled_bert)
        after = [list(f.instructions) for f in scheduled_bert.functions]
        assert before == after
        assert errors_of(verify_executable(scheduled_bert)) == []

    def test_assert_verified_raises_structured_findings(self, scheduled_bert):
        mutant = OPERATORS["undefine_register"](scheduled_bert)
        with pytest.raises(VerificationError) as err:
            assert_verified(mutant, context="(mutant)")
        assert "(mutant)" in str(err.value)
        assert all(isinstance(f, Finding) for f in err.value.findings)
        assert any(f.checker == "bytecode" for f in err.value.findings)


# ---------------------------------------------------------------------------
# Dynamic tokens: the planner puts several whole-storage tensors on one
# dynamically sized token, and the verifier follows it there
# ---------------------------------------------------------------------------


def dynamic_reuse(first_writer_reads=9):
    """Storage r1 (size in r0) carries tensor r3, read by k1 and k2, and
    then — moved to r4 — tensor r5, whose first writer reads r9."""
    return func_of([
        ins.ShapeOf(8, 0),
        ins.AllocStorage(0, 64, GPU, 1),
        ins.LoadConsti(0, 2),
        ins.AllocTensorReg(1, 2, 0, "float32", 3),
        kernel([8, 3]),                       # k0 writes A
        kernel([3, 10]),                      # k1 reads A
        kernel([3, 11]),                      # k2 reads A: A dies here
        ins.Move(1, 4),
        ins.AllocTensorReg(4, 2, 0, "float32", 5),
        kernel([first_writer_reads, 5]),      # k3 writes B over A's bytes
        ins.Ret(5),
    ], num_params=10)


class TestDynamicTokens:
    def test_disjoint_live_ranges_on_one_dynamic_token_are_clean(self):
        f = dynamic_reuse()
        assert check_function_lifetimes(f, exe_of([f])) == []

    def test_two_live_whole_storage_tensors_are_a_finding(self):
        instrs = list(dynamic_reuse().instructions)
        instrs.insert(-1, kernel([3, 12]))    # A is read again after B was written
        f = func_of(instrs, num_params=10)
        (finding,) = errors_of(check_function_lifetimes(f, exe_of([f])))
        assert "share storage token 0" in finding.message

    def test_the_shape_vector_and_the_size_scalar_are_read_by_the_allocations(self):
        """A shape buffer lives to the last `AllocTensorReg` that reads
        it: carving another tensor over it before that is a finding."""
        f = func_of(storage_prologue() + [
            ins.AllocTensor(1, 2, (2,), "int64", 3),     # the shape vector
            kernel([9, 3], kind="shape_func"),
            ins.AllocTensor(1, 2, (2,), "int64", 4),     # same bytes
            kernel([9, 4], kind="shape_func"),           # ... overwritten
            ins.AllocStorage(0, 64, GPU, 5),
            ins.AllocTensorReg(5, 2, 3, "float32", 6),   # ... and read after that
            ins.Ret(6),
        ], num_params=10)
        assert errors_of(check_function_lifetimes(f, exe_of([f])))

    def test_alias_storage_reaches_a_dynamic_site_of_bert(self):
        exe, _ = nimble.build(small_bert(), nvidia_gpu(),
                              options=CompilerOptions(device_streams=4))
        before = exe.functions[0].instructions
        mutant = OPERATORS["alias_storage"](exe)
        (pc,) = [pc for pc, (a, b) in enumerate(zip(before, mutant.functions[0].instructions))
                 if a != b]
        assert any(isinstance(i, ins.AllocTensorReg) and i.storage == before[pc].dst
                   for i in before)
        assert errors_of(check_lifetimes(mutant))

    def test_dropping_a_wait_added_for_a_reused_dynamic_storage_is_a_race(self):
        # k3 shares no data with k1 and k2: only the storage orders them.
        scheduled, _ = schedule_function(dynamic_reuse(), 2, is_entry=True)
        assert _check_function(scheduled, is_entry=True) == []
        instrs = list(scheduled.instructions)
        k3 = max(i for i, x in enumerate(instrs) if isinstance(x, ins.InvokePacked))
        assert isinstance(instrs[k3 - 1], ins.StreamWait)
        del instrs[k3 - 1]
        mutant = VMFunction(scheduled.name, scheduled.num_params, instrs,
                            scheduled.register_count)
        assert any("hazard edge unordered" in x.message
                   for x in _check_function(mutant, is_entry=True))


# ---------------------------------------------------------------------------
# System gates: compile default, store load, serving sample
# ---------------------------------------------------------------------------


class TestSystemGates:
    def test_compile_gate_defaults_on(self):
        assert CompilerOptions().verify is True

    def test_store_rejects_verify_failed_blob(self, tmp_path):
        exe, _ = nimble.build(small_lstm(), nvidia_gpu())
        mutant = OPERATORS["undefine_register"](exe)
        assert mutant is not None
        # The artifact key hashes identity (module, platform, shapes,
        # version), not instructions: the mutant files under the same
        # key the clean artifact would -- a corrupted writer, faithfully
        # modeled.
        assert mutant.content_hash() == exe.content_hash()
        store = ArtifactStore(tmp_path / "store")
        key = store.put(mutant)
        assert store.get(key) is None  # never handed to a VM
        assert store.rejects == 1
        assert store.verify_rejects == 1
        assert "failed static verification" in store.reject_log[0][1]

    def test_store_verify_gate_can_be_disabled_for_forensics(self, tmp_path):
        exe, _ = nimble.build(small_lstm(), nvidia_gpu())
        mutant = OPERATORS["undefine_register"](exe)
        store = ArtifactStore(tmp_path / "store", verify=False)
        key = store.put(mutant)
        loaded = store.get(key)
        assert loaded is not None
        assert store.verify_rejects == 0

    def test_clean_blob_round_trips_through_the_gate(self, tmp_path):
        exe, _ = nimble.build(small_lstm(), nvidia_gpu())
        store = ArtifactStore(tmp_path / "store")
        key = store.put(exe)
        assert store.get(key) is not None
        assert store.rejects == 0

    @staticmethod
    def _gated_server(monkeypatch, mod, mutate_batched=False, **config):
        """A specializing server whose compiler gate logs each executable
        it verifies, after the startup build; with *mutate_batched*, a
        batched build reaches the gate with an undefined register."""
        import repro.analysis
        from repro.serve.server import InferenceServer, ServeConfig

        verified, real = [], repro.analysis.assert_verified

        def gate(exe, context=None):
            if mutate_batched and exe.is_batch_specialized:
                exe = OPERATORS["undefine_register"](exe)
            verified.append(exe)
            return real(exe, context)

        monkeypatch.setattr(repro.analysis, "assert_verified", gate)
        server = InferenceServer(
            mod, intel_cpu(), ServeConfig(specialize=True, specialize_threshold=1, **config))
        verified.clear()
        return server, verified

    def test_every_serving_compile_is_verified(self, monkeypatch):
        """Serving compiles keep the compiler's own gate: each variant
        is verified as it is compiled, and a memo hit compiles nothing."""
        server, verified = self._gated_server(
            monkeypatch, small_lstm(), specialize_max_executables=5)
        for i, length in enumerate((3, 4, 5, 6, 7, 3)):
            server.specializer.observe((length,), float(i))
        executables = list(server.specializer.planner.executables.values())
        assert len(executables) == 5
        assert [id(exe) for exe in verified] == [id(exe) for exe in executables]

    def test_a_batched_compile_failing_verification_raises(self, monkeypatch):
        """A batched build the verifier rejects is a compiler bug: it
        raises, and the shape is not taken for unbatchable."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        mod = IRModule.from_expr(Function([x], api.relu(x)))
        server, verified = self._gated_server(
            monkeypatch, mod, mutate_batched=True, specialize_batch=True, max_batch_size=2)
        with pytest.raises(VerificationError, match="verification failed"):
            server.specializer.observe((16,), 0.0)
        assert [exe.is_batch_specialized for exe in verified] == [False, True]
        assert not server.specializer.planner._unbatchable

    def test_serve_report_counts_verify_rejects(self):
        from repro.serve.events import SpecializationEvent, StoreReject
        from repro.serve.report import ServeReport

        report = ServeReport(records=[
            StoreReject(0.0, 0, "exe", "a", verify=True),
            StoreReject(0.0, 0, "exe", "b", verify=True),
            StoreReject(0.0, 0, "prefix", "c", verify=False),
            SpecializationEvent((16,), 0.0, 0.0, 5.0, 5.0, lane=0, restored=True),
        ])
        assert (report.store_rejects, report.verify_rejects) == (3, 2)
        assert (report.specialize_restored, report.num_specialized_executables) == (1, 1)
        assert "2 failed verification" in report.format()
