"""The AOT kernel dependency graph and static multi-stream scheduler.

Unit level: DAG construction (RAW through registers, WAR/WAW through
storage tokens, alias propagation, the DeviceCopy barrier, host kernels
staying out of the graph), the greedy deterministic stream assignment,
vector-clock event minimization, and the entry-fence/exit-join bracket
on non-entry functions.

Integration level: scheduling is a guaranteed no-op at one stream,
control-flow functions are never touched, compiles are deterministic,
multi-stream runs are faster on the modeled clock yet bitwise identical
in outputs, and the error paths (Fatal, mid-run frame release) still
drain the allocator to zero live bytes on a scheduled interpreter.
"""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.errors import VMError
from repro.hardware.platforms import nvidia_gpu
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.runtime.context import ExecutionContext
from repro.tensor.device import cpu, gpu
from repro.vm import instruction as ins
from repro.vm.cfg import is_straight_line
from repro.vm.compiler import CompilerOptions
from repro.vm.executable import VMFunction
from repro.vm.interpreter import VirtualMachine
from repro.vm.schedule import (
    assign_streams,
    build_dependency_graph,
    schedule_executable,
    schedule_function,
)

GPU = gpu(0)


def kernel(args, num_outputs=1, device=GPU, kind="compute"):
    """A synthetic InvokePacked: last ``num_outputs`` args are outputs."""
    split = len(args) - num_outputs
    return ins.InvokePacked(0, tuple(args[:split]), tuple(args[split:]), device, kind)


def func_of(instructions, name="main", num_params=0):
    return VMFunction(name, num_params, list(instructions), 64)


def small_bert():
    config = BertConfig(hidden=64, num_heads=4, num_layers=2, ffn=128)
    weights = BertWeights.create(config, seed=0)
    return build_bert_module(weights), config


# ---------------------------------------------------------------------------
# Dependency-graph construction
# ---------------------------------------------------------------------------


class TestDependencyGraph:
    def test_raw_through_registers(self):
        f = func_of([
            kernel([1, 2, 10]),       # k0 writes r10
            kernel([10, 11]),         # k1 reads r10
            kernel([3, 12]),          # k2 independent
            ins.Ret(11),
        ])
        nodes = build_dependency_graph(f)
        assert [n.deps for n in nodes] == [
            frozenset(), frozenset({0}), frozenset()
        ]

    def test_war_and_waw_through_storage_tokens(self):
        f = func_of([
            ins.LoadConsti(0, 8),
            ins.AllocStorage(8, 64, GPU, 5),
            ins.AllocTensor(5, 8, (4,), "float32", 10),
            ins.AllocTensor(5, 8, (4,), "float32", 11),
            kernel([1, 10]),          # k0 writes the storage
            kernel([10, 20]),         # k1 reads it (RAW on k0)
            kernel([2, 11]),          # k2 rewrites it: WAW k0, WAR k1
            ins.Ret(20),
        ])
        nodes = build_dependency_graph(f)
        assert nodes[1].deps == frozenset({0})
        assert nodes[2].deps == frozenset({0, 1})

    def test_device_copy_is_a_barrier(self):
        f = func_of([
            kernel([1, 10]),
            ins.DeviceCopy(10, 11, GPU, cpu(0)),
            kernel([12, 13]),         # k1: older deps are pre-satisfied
            kernel([13, 14]),         # k2 depends on k1 (after barrier)
            ins.Ret(14),
        ])
        nodes = build_dependency_graph(f)
        assert nodes[1].deps == frozenset()
        assert nodes[2].deps == frozenset({1})

    def test_host_to_device_copy_is_not_a_barrier(self):
        """The interpreter syncs only a GPU source: across a copy from
        the host, a cross-stream edge still needs its event and wait."""
        f = func_of([
            kernel([1, 10]),                       # k0: stream 0
            kernel([2, 11]),                       # k1: independent, stream 1
            ins.DeviceCopy(3, 12, cpu(0), GPU),    # host -> GPU: no sync
            kernel([10, 11, 12, 13]),              # k2: stream 0, reads k1
            ins.Ret(13),
        ])
        assert build_dependency_graph(f)[2].deps == frozenset({0, 1})
        scheduled, summary = schedule_function(f, 2, is_entry=True)
        assert (summary.num_events, summary.num_waits) == (1, 1)
        sync = [i for i in scheduled.instructions
                if isinstance(i, (ins.StreamEvent, ins.StreamWait))]
        assert [(type(i), i.stream) for i in sync] == [
            (ins.StreamEvent, 1), (ins.StreamWait, 0)]

    def test_aliases_propagate_producers(self):
        f = func_of([
            kernel([1, 10]),               # k0 writes r10
            ins.Move(10, 11),
            ins.ReshapeTensor(11, 2, 12),
            ins.AllocADT(-1, (12,), 13),
            ins.GetField(13, 0, 14),
            kernel([14, 20]),              # k1 reads through the aliases
            ins.Ret(20),
        ])
        nodes = build_dependency_graph(f)
        assert nodes[1].deps == frozenset({0})

    def test_host_kernels_have_no_edges(self):
        f = func_of([
            kernel([1, 10], kind="shape_func"),
            kernel([2, 11], device=cpu(0)),
            kernel([10, 11, 12]),          # deps on host results: none
            ins.Ret(12),
        ])
        nodes = build_dependency_graph(f)
        assert len(nodes) == 1
        assert nodes[0].deps == frozenset()

    def test_straight_line_classifier(self):
        assert is_straight_line(func_of([kernel([1, 2]), ins.Ret(2)]))
        for bad in (
            ins.If(1, 2, 1, 2),
            ins.Goto(1),
            ins.Invoke(0, (1,), 2),
            ins.InvokeClosure(1, (2,), 3),
            ins.AllocClosure(0, (), 1),
        ):
            assert not is_straight_line(func_of([bad, ins.Ret(1)]))


# ---------------------------------------------------------------------------
# Stream assignment + event planning
# ---------------------------------------------------------------------------


class TestAssignment:
    def diamond(self):
        f = func_of([
            kernel([1, 10]),          # k0
            kernel([10, 11]),         # k1 dep k0
            kernel([10, 2, 12]),      # k2 dep k0
            kernel([11, 12, 13]),     # k3 dep k1, k2
            ins.Ret(13),
        ])
        return build_dependency_graph(f), f

    def test_greedy_diamond(self):
        nodes, _ = self.diamond()
        assign_streams(nodes, 2)
        # k0 opens stream 0; k1 chains onto it; k2 opens the idle stream;
        # k3 chains to the lowest dependent stream.
        assert [n.stream for n in nodes] == [0, 0, 1, 0]

    def test_assignment_is_deterministic(self):
        a, _ = self.diamond()
        b, _ = self.diamond()
        assign_streams(a, 4)
        assign_streams(b, 4)
        assert [n.stream for n in a] == [n.stream for n in b]

    def test_minimal_events_on_diamond(self):
        _, f = self.diamond()
        scheduled, summary = schedule_function(f, 2, is_entry=True)
        # Two cross-stream edges need syncing: k0->k2 and k2->k3. k0->k1
        # and k1->k3 are same-stream (free).
        assert summary.streams_used == (0, 1)
        assert summary.num_events == 2
        assert summary.num_waits == 2
        events = [i for i in scheduled.instructions if isinstance(i, ins.StreamEvent)]
        waits = [i for i in scheduled.instructions if isinstance(i, ins.StreamWait)]
        assert len(events) == 2 and len(waits) == 2
        # Each wait pairs with a recorded event index.
        assert {w.event_index for w in waits} == {e.event_index for e in events}

    def test_transitive_coverage_elides_waits(self):
        # k0(s0) -> k1(s1), then k2 lands on s1 and also depends on k0:
        # the wait k1 already performed covers it via the vector clock.
        f = func_of([
            kernel([1, 10]),          # k0
            kernel([10, 11]),         # k1 dep k0
            kernel([10, 11, 12]),     # k2 dep k0 (covered), k1 (same stream)
            ins.Ret(12),
        ])
        nodes = build_dependency_graph(f)
        # Force the layout the test needs.
        nodes[0].stream, nodes[1].stream, nodes[2].stream = 0, 1, 1
        from repro.vm.schedule import _plan_events

        _events, _waits, num_events, num_waits = _plan_events(nodes, 2)
        assert num_events == 1
        assert num_waits == 1

    def test_single_kernel_not_scheduled(self):
        f = func_of([kernel([1, 10]), ins.Ret(10)])
        assert schedule_function(f, 4, is_entry=True) == (None, None)

    def test_non_entry_gets_fence_and_join(self):
        f = func_of([
            kernel([1, 10]),
            kernel([2, 11]),          # independent: lands on stream 1
            ins.Ret(10),
        ])
        scheduled, summary = schedule_function(f, 2, is_entry=False)
        instrs = scheduled.instructions
        # Entry fence: an event on stream 0, waited on by the side stream,
        # before any kernel.
        assert isinstance(instrs[0], ins.StreamEvent) and instrs[0].stream == 0
        assert isinstance(instrs[1], ins.StreamWait) and instrs[1].stream == 1
        # Exit join: the side stream records, stream 0 waits, before Ret.
        ret_at = next(
            i for i, x in enumerate(instrs) if isinstance(x, ins.Ret)
        )
        join = instrs[ret_at - 2:ret_at]
        assert isinstance(join[0], ins.StreamEvent) and join[0].stream == 1
        assert isinstance(join[1], ins.StreamWait) and join[1].stream == 0
        assert summary.num_events == 2  # fence + join (no cross deps)

    def test_entry_function_unfenced(self):
        f = func_of([
            kernel([1, 10]),
            kernel([2, 11]),
            ins.Ret(10),
        ])
        scheduled, _ = schedule_function(f, 2, is_entry=True)
        assert not isinstance(scheduled.instructions[0], ins.StreamEvent)
        assert not any(
            isinstance(i, (ins.StreamEvent, ins.StreamWait))
            for i in scheduled.instructions
        )


# ---------------------------------------------------------------------------
# Whole-executable scheduling
# ---------------------------------------------------------------------------


class TestScheduleExecutable:
    def test_one_stream_is_a_guaranteed_noop(self):
        mod, _ = small_bert()
        exe, _ = nimble.build(mod, nvidia_gpu())
        before = [list(f.instructions) for f in exe.functions]
        assert schedule_executable(exe, 1) == {}
        assert [list(f.instructions) for f in exe.functions] == before
        assert exe.device_streams == 1
        assert exe.num_events == 0

    def test_control_flow_functions_untouched(self):
        loop = func_of([ins.Goto(1), kernel([1, 10]), ins.Ret(10)], name="f")
        body = func_of(
            [kernel([1, 10]), kernel([2, 11]), ins.Ret(10)], name="main"
        )
        from repro.vm.executable import Executable

        exe = Executable(
            platform_name="nvidia",
            functions=[loop, body],
            func_index={"f": 0, "main": 1},
            constants=[],
            kernels=[],
        )
        schedules = schedule_executable(exe, 2)
        assert set(schedules) == {"main"}
        assert exe.functions[0].instructions == loop.instructions
        assert exe.device_streams == 2

    def test_compiles_are_deterministic(self):
        mod, _ = small_bert()
        opts = CompilerOptions(device_streams=4)
        a, _ = nimble.build(mod, nvidia_gpu(), options=opts)
        b, _ = nimble.build(mod, nvidia_gpu(), options=opts)
        assert a.functions == b.functions
        assert a.device_streams == b.device_streams == 4
        assert a.num_events == b.num_events
        assert a.content_hash() == b.content_hash()

    def test_cpu_platform_clamps_to_one_stream(self):
        from repro.hardware.platforms import intel_cpu

        mod, _ = small_bert()
        exe, _ = nimble.build(
            mod, intel_cpu(), options=CompilerOptions(device_streams=4)
        )
        assert exe.device_streams == 1
        assert exe.num_events == 0
        plain, _ = nimble.build(mod, intel_cpu())
        assert exe.functions == plain.functions
        assert exe.content_hash() == plain.content_hash()


# ---------------------------------------------------------------------------
# Modeled-latency + bit-identity integration
# ---------------------------------------------------------------------------


class TestScheduledExecution:
    @staticmethod
    def wide_module(branches=4, size=256):
        """``branches`` independent dense->softmax chains summed at the
        end: softmax blocks fusion, so each branch stays its own device
        kernel with enough work that multi-stream overlap must win on
        the modeled clock."""
        from repro.ir import Constant, Function, TensorType, Var
        from repro.ir.module import IRModule
        from repro.ops import api

        rng = np.random.RandomState(9)
        x = Var("x", TensorType((size, size), "float32"))
        outs = []
        for i in range(branches):
            w = Constant(
                (rng.randn(size, size) * 0.05).astype(np.float32)
            )
            outs.append(api.softmax(api.dense(x, w)))
        acc = outs[0]
        for o in outs[1:]:
            acc = api.add(acc, o)
        return IRModule.from_expr(Function([x], acc))

    def run_wide(self, mod, streams, x, stream_offset=0):
        exe, _ = nimble.build(
            mod, nvidia_gpu(), options=CompilerOptions(device_streams=streams)
        )
        ctx = ExecutionContext(nvidia_gpu(), numerics="lite")
        vm = VirtualMachine(exe, ctx)
        out = vm.run(x, stream_offset=stream_offset)
        return out.numpy(), ctx.elapsed_us, vm

    def x(self, size=256):
        rng = np.random.RandomState(5)
        return (rng.randn(size, size) * 0.1).astype(np.float32)

    def test_multi_stream_is_faster_and_bit_identical(self):
        mod = self.wide_module()
        x = self.x()
        out1, t1, _ = self.run_wide(mod, 1, x)
        for streams in (2, 4):
            out, t, vm = self.run_wide(mod, streams, x)
            assert np.array_equal(out, out1)
            assert t < t1
            busy = vm.profile.stream_kernel_us
            assert len(busy) == streams
            assert vm.profile.sync_events > 0

    def test_stream_offset_rotation_bit_identical(self):
        mod = self.wide_module()
        x = self.x()
        out0, t0, _ = self.run_wide(mod, 4, x, stream_offset=0)
        for offset in (1, 2, 3):
            out, t, _ = self.run_wide(mod, 4, x, stream_offset=offset)
            assert np.array_equal(out, out0)
            # A pure rotation relabels streams; the modeled time is the
            # same schedule shifted, so latency is preserved too.
            assert t == t0

    def test_replay_is_deterministic(self):
        mod = self.wide_module()
        x = self.x()
        runs = [self.run_wide(mod, 4, x) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


# ---------------------------------------------------------------------------
# Error paths on the scheduled interpreter (allocator must drain)
# ---------------------------------------------------------------------------


class TestScheduledErrorPaths:
    def scheduled_exe(self):
        mod, config = small_bert()
        exe, _ = nimble.build(
            mod, nvidia_gpu(), options=CompilerOptions(device_streams=4)
        )
        assert exe.device_streams == 4
        return exe, config

    def inject_fatal(self, exe, after_kernels):
        """Copy the entry function with a Fatal planted after the N-th
        scheduled device kernel."""
        index = exe.func_index[exe.entry]
        func = exe.functions[index]
        seen = 0
        instrs = []
        planted = False
        for instr in func.instructions:
            instrs.append(instr)
            if (
                not planted
                and isinstance(instr, ins.InvokePacked)
                and instr.kind == "compute"
                and instr.device.is_gpu
            ):
                seen += 1
                if seen == after_kernels:
                    instrs.append(ins.Fatal("scheduled boom"))
                    planted = True
        assert planted
        exe.functions[index] = VMFunction(
            func.name, func.num_params, instrs, func.register_count
        )
        return exe

    def test_fatal_mid_schedule_drains_allocator(self):
        for after in (1, 8):
            exe, config = self.scheduled_exe()
            self.inject_fatal(exe, after_kernels=after)
            ctx = ExecutionContext(nvidia_gpu(), numerics="lite")
            vm = VirtualMachine(exe, ctx)
            x = np.zeros((8, config.hidden), dtype=np.float32)
            with pytest.raises(VMError, match="scheduled boom"):
                vm.run(x)
            assert ctx.allocator.live_bytes == 0

    def test_vm_usable_after_scheduled_fatal(self):
        exe, config = self.scheduled_exe()
        good_exe, _ = self.scheduled_exe()
        self.inject_fatal(exe, after_kernels=4)
        ctx = ExecutionContext(nvidia_gpu(), numerics="lite")
        vm = VirtualMachine(exe, ctx)
        x = np.zeros((8, config.hidden), dtype=np.float32)
        with pytest.raises(VMError):
            vm.run(x)
        assert ctx.allocator.live_bytes == 0
        # A clean executable on the same context still runs, and the
        # earlier failure leaked nothing into its result.
        good = VirtualMachine(good_exe, ctx).run(x)
        ref_ctx = ExecutionContext(nvidia_gpu(), numerics="lite")
        ref = VirtualMachine(good_exe, ref_ctx).run(x)
        assert np.array_equal(good.numpy(), ref.numpy())
        assert ctx.allocator.live_bytes == 0

    def test_mid_run_exception_releases_frames(self):
        """A non-VMError exception raised mid-interpretation (a broken
        kernel) must also unwind through the frame-release path."""
        exe, config = self.scheduled_exe()
        boom = RuntimeError("kernel exploded")
        # Break the 6th GPU kernel's implementation.
        count = 0
        target = None
        index = exe.func_index[exe.entry]
        for instr in exe.functions[index].instructions:
            if (
                isinstance(instr, ins.InvokePacked)
                and instr.kind == "compute"
                and instr.device.is_gpu
            ):
                count += 1
                if count == 6:
                    target = instr.packed_index
                    break
        assert target is not None

        class Exploder:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def invoke_cost(self, *a, **k):
                raise boom

        original = exe.kernels[target]
        exe.kernels[target] = Exploder(original)
        ctx = ExecutionContext(nvidia_gpu(), numerics="lite")
        vm = VirtualMachine(exe, ctx)
        x = np.zeros((8, config.hidden), dtype=np.float32)
        with pytest.raises(Exception, match="kernel exploded"):
            vm.run(x)
        assert ctx.allocator.live_bytes == 0
        # Restore and the same VM completes.
        exe.kernels[target] = original
        out = vm.run(x)
        assert out is not None
        assert ctx.allocator.live_bytes == 0


# ---------------------------------------------------------------------------
# N-version cross-check: the independent race model agrees with the
# scheduler
# ---------------------------------------------------------------------------


class TestScheduleVerifiesUnderRaceModel:
    """Regressions pinning `repro.analysis.races` — a happens-before
    model derived only from the serialized bytecode — to the scheduler's
    trickiest outputs: the cross-function fence/join bracket and the
    vector-clock wait elision. The schedule must verify as emitted, and
    stop verifying the moment its load-bearing sync is removed."""

    def _strip(self, func, drop):
        instrs = [x for i, x in enumerate(func.instructions) if i != drop]
        return VMFunction(
            func.name, func.num_params, instrs, func.register_count
        )

    def test_fence_join_unit_is_ordered(self):
        from repro.analysis.races import _check_function

        f = func_of([
            kernel([1, 10]),
            kernel([2, 11]),          # independent: lands on stream 1
            ins.Ret(10),
        ], name="cell")
        scheduled, _ = schedule_function(f, 2, is_entry=False)
        assert _check_function(scheduled, is_entry=False) == []
        # Drop the fence wait (instruction 1): the side stream races the
        # caller's pending stream-0 work.
        fence_broken = self._strip(scheduled, 1)
        assert any(
            "missing entry fence" in x.message
            for x in _check_function(fence_broken, is_entry=False)
        )
        # Drop the join wait (last StreamWait, on stream 0): stream 0
        # returns before the side stream's kernel is ordered.
        join_at = max(
            i for i, x in enumerate(scheduled.instructions)
            if isinstance(x, ins.StreamWait) and x.stream == 0
        )
        join_broken = self._strip(scheduled, join_at)
        assert any(
            "missing exit join" in x.message
            for x in _check_function(join_broken, is_entry=False)
        )

    def test_two_event_diamond_is_ordered_and_minimal(self):
        from repro.analysis.races import _check_function

        f = func_of([
            kernel([1, 10]),          # k0
            kernel([10, 11]),         # k1 dep k0
            kernel([10, 2, 12]),      # k2 dep k0
            kernel([11, 12, 13]),     # k3 dep k1, k2
            ins.Ret(13),
        ])
        scheduled, summary = schedule_function(f, 2, is_entry=True)
        assert summary.num_events == 2  # the elided minimum
        assert _check_function(scheduled, is_entry=True) == []
        # Minimality, proven by the independent model: removing *either*
        # wait leaves a genuinely unordered hazard edge.
        wait_positions = [
            i for i, x in enumerate(scheduled.instructions)
            if isinstance(x, ins.StreamWait)
        ]
        for pos in wait_positions:
            mutant = self._strip(scheduled, pos)
            assert any(
                "hazard edge unordered" in x.message
                for x in _check_function(mutant, is_entry=True)
            ), f"wait at {pos} was not load-bearing"

    def test_elided_transitive_wait_still_verifies(self):
        from repro.analysis.races import _check_function

        # k0(s0) -> k1(s1) -> k2(s1, also dep k0): the k0->k2 wait is
        # elided — k1's wait already ordered stream 1 after k0. The
        # independent model must agree the single wait covers both
        # edges transitively (the layout _plan_events emits, per
        # test_transitive_coverage_elides_waits above).
        def on_stream(args, stream):
            return ins.InvokePacked(
                0, tuple(args[:-1]), tuple(args[-1:]), GPU, "compute", stream
            )

        scheduled = func_of([
            on_stream([1, 10], 0),               # k0
            ins.StreamEvent(0, GPU, 0),
            ins.StreamWait(0, GPU, 1),
            on_stream([10, 11], 1),              # k1 dep k0 (waited)
            on_stream([10, 11, 12], 1),          # k2 dep k0 (elided), k1
            ins.Ret(12),
        ])
        assert _check_function(scheduled, is_entry=True) == []
        # Without the wait the elision premise is gone: both of k1's and
        # k2's edges to k0 are unordered.
        unwaited = self._strip(scheduled, 2)
        findings = _check_function(unwaited, is_entry=True)
        assert len([
            x for x in findings if "hazard edge unordered" in x.message
        ]) == 2

    def test_scheduled_bert_verifies_end_to_end(self):
        mod, _ = small_bert()
        exe, _ = nimble.specialize(
            mod, nvidia_gpu(), shapes=[(8, 64)],
            options=CompilerOptions(device_streams=4),
        )
        from repro.analysis import check_races

        assert exe.num_events > 0
        assert check_races(exe) == []


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
