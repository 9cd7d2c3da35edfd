"""The VM (§5): ISA completeness, serialization round-trip, interpreter
semantics, reference counting, profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nimble as nimble
from repro.analysis import check_guard
from repro.errors import SerializationError, ShapeGuardError, VMError
from repro.hardware import intel_cpu, nvidia_gpu
from repro.ir import (
    Any,
    Call,
    Clause,
    Function,
    If,
    IRModule,
    Match,
    PatternConstructor,
    PatternVar,
    PatternWildcard,
    ScopeBuilder,
    TensorType,
    Tuple,
    TupleGetItem,
    TupleType,
    TypeCall,
    TypeData,
    Var,
    const,
    scalar_type,
)
from repro.ops import api
from repro.runtime.context import ExecutionContext
from repro.tensor import array, cpu, gpu
from repro.vm import instruction as ins
from repro.vm.executable import (
    Executable,
    VMFunction,
    _decode_instruction,
    _encode_instruction,
    entry_mismatch,
)
from repro.vm.interpreter import VirtualMachine
from repro.vm.objects import ADTObj, StorageObj, TensorObj


class TestISA:
    def test_exactly_twenty_paper_opcodes(self):
        """Table A.1: the ISA has exactly 20 paper instructions, plus the
        two scheduling opcodes of the AOT multi-stream extension."""
        scheduling = {ins.Opcode.STREAM_EVENT, ins.Opcode.STREAM_WAIT}
        assert len(set(ins.Opcode) - scheduling) == 20
        assert len(ins.Opcode) == 22

    def test_all_opcodes_named_as_paper(self):
        names = {op.name for op in ins.Opcode}
        for expected in (
            "MOVE", "RET", "INVOKE", "INVOKE_CLOSURE", "INVOKE_PACKED",
            "ALLOC_STORAGE", "ALLOC_TENSOR", "ALLOC_TENSOR_REG", "ALLOC_ADT",
            "ALLOC_CLOSURE", "GET_FIELD", "GET_TAG", "IF", "GOTO",
            "LOAD_CONST", "LOAD_CONSTI", "DEVICE_COPY", "SHAPE_OF",
            "RESHAPE_TENSOR", "FATAL",
        ):
            assert expected in names

    def test_what_each_destination_aliases(self):
        """``aliases()`` of one sample per instruction class: the
        registers whose contents ``dst`` then holds, which the scheduler
        and the lifetime checker follow. A new opcode must take a row."""
        samples = _sample_instructions()
        assert {type(i) for i in samples} == set(ins.Instruction.__subclasses__())
        expected = [
            (1,),       # Move
            (),         # Ret
            (),         # Invoke: a callee's result is fresh here
            (),         # InvokeClosure
            (),         # InvokePacked: writes its outputs in place, no dst
            (),         # AllocStorage
            (1,),       # AllocTensor: a view of its storage
            (1,),       # AllocTensorReg
            (1, 2),     # AllocADT: holds its fields
            (3, 4),     # AllocClosure: holds what it captured
            (1,),       # GetField: the whole object, conservatively
            (),         # GetTag
            (),         # If
            (),         # Goto
            (),         # LoadConst
            (),         # LoadConsti
            (),         # DeviceCopy: a fresh buffer on the other device
            (),         # ShapeOf
            (1,),       # ReshapeTensor: the same bytes
            (),         # Fatal
            (),         # InvokePacked on a stream
            (),         # StreamEvent
            (),         # StreamWait
        ]
        assert [ins.aliases(i) for i in samples] == expected


def _sample_instructions():
    return [
        ins.Move(1, 2),
        ins.Ret(3),
        ins.Invoke(0, (1, 2), 3),
        ins.InvokeClosure(4, (5,), 6),
        ins.InvokePacked(2, (0, 1), (2,), cpu(0), "compute"),
        ins.AllocStorage(1, 64, gpu(0), 2),
        ins.AllocTensor(1, 2, (3, 4), "float32", 5),
        ins.AllocTensorReg(1, 2, 3, "int64", 4),
        ins.AllocADT(-1, (1, 2), 3),
        ins.AllocClosure(1, (3, 4), 5),
        ins.GetField(1, 0, 2),
        ins.GetTag(1, 2),
        ins.If(1, 2, 1, -5),
        ins.Goto(-3),
        ins.LoadConst(0, 1),
        ins.LoadConsti(-42, 1),
        ins.DeviceCopy(1, 2, gpu(0), cpu(0)),
        ins.ShapeOf(1, 2),
        ins.ReshapeTensor(1, 2, 3),
        ins.Fatal("boom"),
        ins.InvokePacked(2, (0, 1), (2,), gpu(0), "compute", stream=3),
        ins.StreamEvent(7, gpu(0), 2),
        ins.StreamWait(7, gpu(0), 0),
    ]


class TestSerialization:
    def test_every_instruction_roundtrips(self):
        import io

        for instr in _sample_instructions():
            buf = io.BytesIO()
            _encode_instruction(buf, instr)
            buf.seek(0)
            assert _decode_instruction(buf) == instr

    def test_instruction_bytes_are_pinned(self):
        """The wire bytes of every opcode, written by the layout loop —
        and the samples cover every instruction class, so a new opcode
        cannot skip the round trip above. (Re-pinned at format v6: an
        `InvokePacked` writes its inputs' and outputs' lengths where v5
        wrote `arity` and `output_size`, so the length did not move.)"""
        import hashlib
        import io

        samples = _sample_instructions()
        assert {type(i) for i in samples} == set(ins.Instruction.__subclasses__())
        buf = io.BytesIO()
        for instr in samples:
            _encode_instruction(buf, instr)
        blob = buf.getvalue()
        assert len(blob) == 147
        assert hashlib.sha256(blob).hexdigest() == (
            "1df0feff0efa85f50fe5898d07d472c1d52020ce1ea0d87781deaf1a3007e3bd"
        )

    @pytest.mark.parametrize(
        "blob, named",
        [
            (bytes((99,)), "opcode byte 63"),
            # AllocStorage(1, 64, <kind byte 2>, 2): neither CPU nor GPU.
            (bytes((5, 2, 0x80, 1, 2, 0, 4)), "device kind byte 02"),
        ],
    )
    def test_decoder_rejects_bytes_it_cannot_mean(self, blob, named):
        import io

        with pytest.raises(SerializationError, match=named):
            _decode_instruction(io.BytesIO(blob))

    def test_executable_roundtrip(self):
        exe = Executable(
            platform_name="intel",
            functions=[VMFunction("main", 1, _sample_instructions(), 10)],
            func_index={"main": 0},
            constants=[array(np.arange(6, dtype=np.float32).reshape(2, 3))],
            kernels=[],
        )
        blob = exe.save()
        loaded = Executable.load(blob)
        assert loaded.platform_name == "intel"
        assert loaded.functions[0].instructions == exe.functions[0].instructions
        assert np.array_equal(loaded.constants[0].numpy(), exe.constants[0].numpy())

    def _exe_with_constants(self, *arrays):
        return Executable(
            platform_name="intel",
            functions=[VMFunction("main", 0, [], 1)],
            func_index={"main": 0},
            constants=[array(a) for a in arrays],
            kernels=[],
        )

    def test_constants_of_every_layout_roundtrip(self):
        """``save`` writes array data through views and ``load`` reads it
        through a view of the blob: scalars, empty arrays, transposed
        (non-contiguous) data and every dtype width must survive, and
        what comes back must own its memory."""
        arrays = [
            np.float32(2.5).reshape(()),
            np.zeros((0, 4), dtype=np.float32),
            np.arange(12, dtype=np.float32).reshape(3, 4).T,
            np.arange(10, dtype=np.int64)[::2],
            np.array([True, False, True]),
        ]
        blob = self._exe_with_constants(*arrays).save()
        loaded = Executable.load(blob)
        for want, const in zip(arrays, loaded.constants):
            got = const.numpy()
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.flags.writeable and got.base is None
        # The format did not move: bytes in, same bytes out.
        assert loaded.save() == blob

    def test_every_truncation_is_a_serialization_error(self):
        blob = self._exe_with_constants(
            np.arange(6, dtype=np.float32).reshape(2, 3), np.arange(3, dtype=np.int64)
        ).save()
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                Executable.load(blob[:cut])

    def test_constant_that_overruns_its_section_rejected(self):
        """A length inside the constants section that points past the
        section's end must not read the sections behind it."""
        data = np.arange(6, dtype=np.float32)
        blob = bytearray(self._exe_with_constants(data).save())
        at = blob.index(data.tobytes()) - 1
        assert blob[at] == data.nbytes << 1  # the zigzag varint of 24
        for lie in (data.nbytes + 4, data.nbytes - 4):
            blob[at] = lie << 1
            with pytest.raises(SerializationError):
                Executable.load(bytes(blob))

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            Executable.load(b"XXXX" + b"\x00" * 16)

    @given(values=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_varint_roundtrip(self, values):
        import io

        from repro.vm.executable import _read_varint, _write_varint

        buf = io.BytesIO()
        for v in values:
            _write_varint(buf, v)
        buf.seek(0)
        assert [_read_varint(buf) for _ in values] == values

    def test_compiled_executable_roundtrips_and_runs(self):
        x = Var("x", TensorType((Any(), 2), "float32"))
        y = Var("y", TensorType((1, 2), "float32"))
        mod = IRModule.from_expr(Function([x, y], api.concatenate([x, y], axis=0)))
        exe, _ = nimble.build(mod, intel_cpu())
        loaded = Executable.load(exe.save())
        xa = np.random.rand(3, 2).astype(np.float32)
        ya = np.random.rand(1, 2).astype(np.float32)
        out = VirtualMachine(loaded).run(xa, ya)
        assert np.allclose(out.numpy(), np.concatenate([xa, ya]))


class TestObjects:
    def test_storage_refcount_frees_once(self):
        freed = []
        from repro.tensor.storage import Storage

        sto = StorageObj(Storage(64, 64, cpu()), on_free=freed.append)
        sto.retain()
        sto.release()
        assert not freed
        sto.release()
        assert len(freed) == 1

    def test_tensor_retains_storage(self):
        freed = []
        from repro.tensor.storage import Storage

        raw = Storage(64, 64, cpu())
        sto = StorageObj(raw, on_free=freed.append)
        t = TensorObj(array([1.0]), sto)
        sto.release()  # drop the storage register's own ref
        assert not freed
        t.release()  # last tensor reference
        assert len(freed) == 1

    def test_tensor_counts_storage_refs_itself_and_frees_like_the_storage(self):
        """`TensorObj.retain` / `release` adjust `storage_obj.rc` without
        calling `StorageObj.retain` / `release`: same counts, `on_free`
        once at zero with the storage, nothing without a callback."""
        from repro.tensor.storage import Storage

        freed = []
        raw = Storage(64, 64, cpu())
        sto = StorageObj(raw, on_free=freed.append)
        t = TensorObj(array([1.0]), sto)
        assert sto.rc == 2
        assert t.retain() is t and sto.rc == 3
        sto.release()
        t.release()
        assert sto.rc == 1 and not freed
        t.release()
        assert sto.rc == 0 and freed == [raw]
        silent = StorageObj(Storage(64, 64, cpu()))
        TensorObj(array([1.0]), silent).release()
        silent.release()
        assert silent.rc == 0
        lone = TensorObj(array([1.0]))
        assert lone.retain() is lone
        lone.release()

    def test_adt_retains_fields(self):
        freed = []
        from repro.tensor.storage import Storage

        sto = StorageObj(Storage(64, 64, cpu()), on_free=freed.append)
        t = TensorObj(array([1.0]), sto)
        adt = ADTObj(0, [t])
        sto.release()
        t.release()
        assert not freed  # ADT still holds the field
        adt.release()
        assert len(freed) == 1


class TestInterpreterSemantics:
    def _run(self, mod, *inputs, platform=None):
        exe, _ = nimble.build(mod, platform or intel_cpu())
        vm = VirtualMachine(exe)
        return vm.run(*inputs), vm

    def test_if_both_branches(self):
        c = Var("c", scalar_type("bool"))
        x = Var("x", TensorType((2,)))
        mod = IRModule.from_expr(Function([c, x], If(c, api.add(x, x), x)))
        x_in = np.float32([1, 2])
        out_t, _ = self._run(mod, np.bool_(True), x_in)
        out_f, _ = self._run(mod, np.bool_(False), x_in)
        assert out_t.numpy().tolist() == [2, 4]
        assert out_f.numpy().tolist() == [1, 2]

    def test_match_wildcard_clause(self):
        mod = IRModule()
        gtv = mod.get_global_type_var("Opt")
        data = TypeData(gtv, [], [("None_", []), ("Some", [TensorType((2,))])])
        mod.add_type_data(data)
        t = Var("t", TypeCall(gtv, []))
        v = Var("v")
        fallback = const(np.zeros(2, np.float32))
        clauses = [
            Clause(PatternConstructor(data.constructor("Some"), [PatternVar(v)]), v),
            Clause(PatternWildcard(), fallback),
        ]
        mod["main"] = Function([t], Match(t, clauses), TensorType((2,)))
        some = ADTObj(1, [TensorObj(array(np.float32([5, 6])))])
        none = ADTObj(0, [])
        out_some, _ = self._run(mod, some)
        out_none, _ = self._run(mod, none)
        assert out_some.numpy().tolist() == [5, 6]
        assert out_none.numpy().tolist() == [0, 0]

    def test_no_matching_clause_is_fatal(self):
        mod = IRModule()
        gtv = mod.get_global_type_var("Opt2")
        data = TypeData(gtv, [], [("A", []), ("B", [])])
        mod.add_type_data(data)
        t = Var("t", TypeCall(gtv, []))
        clauses = [Clause(PatternConstructor(data.constructor("A"), []), const(1.0))]
        mod["main"] = Function([t], Match(t, clauses), scalar_type())
        exe, _ = nimble.build(mod, intel_cpu())
        with pytest.raises(VMError, match="no matching clause"):
            VirtualMachine(exe).run(ADTObj(1, []))

    def test_tuple_construction_and_projection(self):
        x = Var("x", TensorType((2,)))
        pair = Tuple([x, api.add(x, x)])
        mod = IRModule.from_expr(Function([x], TupleGetItem(pair, 1)))
        out, _ = self._run(mod, np.float32([1, 2]))
        assert out.numpy().tolist() == [2, 4]

    def test_returning_tuple_unwraps(self):
        x = Var("x", TensorType((2,)))
        mod = IRModule.from_expr(Function([x], Tuple([x, x])))
        out, _ = self._run(mod, np.float32([1, 2]))
        assert isinstance(out, tuple) and len(out) == 2

    def test_wrong_arity_rejected(self):
        x = Var("x", TensorType((2,)))
        mod = IRModule.from_expr(Function([x], x))
        exe, _ = nimble.build(mod, intel_cpu())
        with pytest.raises(VMError):
            VirtualMachine(exe).run()

    def test_platform_mismatch_rejected(self):
        x = Var("x", TensorType((2,)))
        mod = IRModule.from_expr(Function([x], api.tanh(x)))
        exe, _ = nimble.build(mod, intel_cpu())
        with pytest.raises(VMError):
            VirtualMachine(exe, ExecutionContext(nvidia_gpu()))

    def test_deep_recursion_via_frame_stack(self):
        """300 recursive calls: the explicit frame stack handles depths
        that would stress Python recursion inside the dispatch loop."""
        mod = IRModule()
        gv = mod.get_global_var("count")
        i = Var("i", scalar_type("int64"))
        n = Var("n", scalar_type("int64"))
        body = If(
            api.less(i, n),
            Call(gv, [api.add(i, const(np.int64(1), "int64")), n]),
            i,
        )
        mod[gv] = Function([i, n], body, scalar_type("int64"))
        main_n = Var("n", scalar_type("int64"))
        mod["main"] = Function([main_n], Call(gv, [const(np.int64(0), "int64"), main_n]))
        out, _ = self._run(mod, np.int64(300))
        assert out.numpy().item() == 300

    def test_profile_counts_instructions(self):
        x = Var("x", TensorType((4, 8)))
        w = Var("w", TensorType((8, 8)))
        mod = IRModule.from_expr(Function([x, w], api.dense(x, w)))
        _, vm = self._run(mod, np.zeros((4, 8), np.float32), np.zeros((8, 8), np.float32))
        assert vm.profile.kernel_invocations == 1
        assert vm.profile.instruction_counts["INVOKE_PACKED"] == 1
        assert vm.profile.instruction_counts["RET"] == 1

    def test_gpu_overlap_reduces_others(self):
        """§6.3: on the GPU platform, bytecode overhead overlaps with
        asynchronous kernel execution."""
        x = Var("x", TensorType((64, 64)))
        w = Var("w", TensorType((64, 64)))
        body = api.relu(api.dense(x, w))
        for _ in range(4):
            body = api.relu(api.dense(body, w))  # denses never fuse together
        mod = IRModule.from_expr(Function([x, w], body))
        exe, _ = nimble.build(mod, nvidia_gpu())
        ctx = ExecutionContext(nvidia_gpu())
        vm = VirtualMachine(exe, ctx)
        vm.run(np.zeros((64, 64), np.float32), np.zeros((64, 64), np.float32))
        elapsed = ctx.elapsed_us
        others = vm.profile.others_us(elapsed)
        # Host work overlaps: "others" is a small fraction of kernel time.
        assert others < vm.profile.kernel_time_us * 0.5

    def test_lite_numerics_same_latency(self):
        """The latency model is identical in full and lite modes."""
        x = Var("x", TensorType((Any(), 32), "float32"))
        w = const(np.random.RandomState(0).randn(32, 32).astype(np.float32))
        mod = IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))
        exe, _ = nimble.build(mod, intel_cpu())
        lat = {}
        for mode in ("full", "lite"):
            ctx = ExecutionContext(intel_cpu(), numerics=mode)
            vm = VirtualMachine(exe, ctx)
            vm.run(np.random.rand(9, 32).astype(np.float32))
            lat[mode] = ctx.elapsed_us
        assert lat["full"] == pytest.approx(lat["lite"], rel=1e-9)

    def test_profile_counts_runs(self):
        x = Var("x", TensorType((2,)))
        mod = IRModule.from_expr(Function([x], api.tanh(x)))
        _, vm = self._run(mod, np.zeros(2, np.float32))
        assert vm.profile.runs == 1
        vm.run(np.zeros(2, np.float32))
        assert vm.profile.runs == 2

    def test_allocator_pooling_across_runs(self):
        x = Var("x", TensorType((Any(), 16), "float32"))
        w = const(np.zeros((16, 16), np.float32))
        mod = IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))
        exe, _ = nimble.build(mod, intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        data = np.zeros((4, 16), np.float32)
        vm.run(data)
        fresh_first = ctx.allocator.stats.fresh_allocs
        vm.run(data)
        # Second run reuses pooled buffers freed by kills/refcounting.
        assert ctx.allocator.stats.pooled_allocs > 0
        assert ctx.allocator.stats.fresh_allocs == fresh_first


class TestLeakRegression:
    """After every run — successful or not — each pooled storage buffer must
    return to the allocator: refcounts drain to zero, live bytes hit zero."""

    def _dyn_module(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = const(np.zeros((8, 8), np.float32))
        return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))

    def test_buffers_drain_after_run(self):
        exe, _ = nimble.build(self._dyn_module(), intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        for rows in (3, 9, 3, 17):
            vm.run(np.zeros((rows, 8), np.float32))
            assert ctx.allocator.live_bytes == 0
        stats = ctx.allocator.stats
        assert stats.frees == stats.total_allocs

    def test_buffers_drain_after_tuple_result(self):
        x = Var("x", TensorType((4,)))
        mod = IRModule.from_expr(Function([x], Tuple([api.tanh(x), api.sigmoid(x)])))
        exe, _ = nimble.build(mod, intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        out = VirtualMachine(exe, ctx).run(np.zeros(4, np.float32))
        assert isinstance(out, tuple)
        assert ctx.allocator.live_bytes == 0

    def _failing_module(self):
        """Allocates a buffer (tanh), then dies: Match with no clause for B."""
        from repro.ir import Clause, Match, PatternConstructor, ScopeBuilder, TypeCall, TypeData

        mod = IRModule()
        gtv = mod.get_global_type_var("LeakOpt")
        data = TypeData(gtv, [], [("A", []), ("B", [])])
        mod.add_type_data(data)
        t = Var("t", TypeCall(gtv, []))
        x = Var("x", TensorType((16,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.tanh(x))
        clauses = [Clause(PatternConstructor(data.constructor("A"), []), a)]
        m = sb.let("m", Match(t, clauses))
        mod["main"] = Function([t, x], sb.get(m), TensorType((16,)))
        return mod

    def test_buffers_drain_on_error_path(self):
        exe, _ = nimble.build(self._failing_module(), intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        bad = ADTObj(1, [])  # constructor B: no matching clause -> Fatal
        with pytest.raises(VMError, match="no matching clause"):
            vm.run(bad, np.zeros(16, np.float32))
        assert ctx.allocator.live_bytes == 0
        assert ctx.allocator.stats.frees == ctx.allocator.stats.total_allocs

    def test_vm_usable_after_error(self):
        exe, _ = nimble.build(self._failing_module(), intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        with pytest.raises(VMError):
            vm.run(ADTObj(1, []), np.zeros(16, np.float32))
        good = vm.run(ADTObj(0, []), np.ones(16, np.float32))
        assert np.allclose(good.numpy(), np.tanh(np.ones(16, np.float32)))
        assert ctx.allocator.live_bytes == 0

    def test_a_negative_extent_is_an_error_not_a_reshaped_view(self):
        """NumPy's reshape reads a negative dim as "infer": over 64 bytes,
        [-1, 4] used to come back as a (3, 4) tensor."""
        host = intel_cpu().host
        for alloc in (ins.AllocTensorReg(1, 2, 3, "float32", 4),
                      ins.AllocTensor(1, 2, (-1, 4), "float32", 4)):
            exe = _assembled(intel_cpu(), [
                ins.LoadConsti(64, 0),
                ins.AllocStorage(0, 64, host, 1),
                ins.LoadConsti(0, 2),
                ins.LoadConst(0, 3),
                alloc,
                ins.Ret(4),
            ], 5, [array(np.array([-1, 4], np.int64))])
            ctx = ExecutionContext(intel_cpu())
            with pytest.raises(VMError, match="negative extent"):
                VirtualMachine(exe, ctx).run()
            assert ctx.allocator.live_bytes == 0

    def test_a_storage_keeps_the_view_of_each_layout(self):
        from repro.runtime.allocator import PoolingAllocator

        allocator = PoolingAllocator(intel_cpu())
        host = intel_cpu().host
        f32 = np.dtype(np.float32)
        storage = allocator.alloc(64, 64, host)
        view = storage.view(0, 64, f32, (4, 4))
        assert storage.view(0, 64, f32, (4, 4)) is view
        for layout in ((0, 64, f32, (16,)), (16, 16, f32, (4,)),
                       (0, 64, np.dtype(np.int32), (4, 4))):
            other = storage.view(*layout)
            assert other is not view and other.shape == layout[3]
        allocator.free(storage)
        with pytest.raises(VMError, match="use-after-free"):
            storage.view(0, 64, f32, (4, 4))
        assert allocator.alloc(64, 64, host) is storage  # served from the pool
        assert storage.view(0, 64, f32, (4, 4)) is view

    def test_a_storage_keeps_at_most_the_cap_of_views(self):
        """A pooled storage serves every layout of its size class: past
        the cap it starts over instead of growing with each new shape."""
        from repro.tensor.storage import VIEW_CACHE_CAP, Storage

        storage = Storage(4 * (VIEW_CACHE_CAP + 5), 64, intel_cpu().host)
        f32 = np.dtype(np.float32)
        for n in range(1, VIEW_CACHE_CAP + 6):
            view = storage.view(0, 4 * n, f32, (n,))
            assert view.shape == (n,)
            assert 1 <= len(storage.views) <= VIEW_CACHE_CAP
        assert storage.view(0, 4 * n, f32, (n,)) is view

    def test_release_all_keeps_leaks_visible(self):
        """Regression: release_all used to zero live_bytes unconditionally,
        forgiving leaked (never-freed) buffers and defeating the
        leak-regression invariant."""
        from repro.runtime.allocator import PoolingAllocator

        allocator = PoolingAllocator(intel_cpu())
        device = intel_cpu().host
        leaked = allocator.alloc(128, 64, device)
        pooled = allocator.alloc(256, 64, device)
        allocator.free(pooled)
        assert allocator.live_bytes == 128
        allocator.release_all()  # drops only the pooled storage
        assert allocator.live_bytes == 128
        with pytest.raises(MemoryError, match="live bytes"):
            allocator.assert_drained()
        allocator.free(leaked)
        assert allocator.live_bytes == 0
        allocator.assert_drained()

    def test_worker_reset_surfaces_leaks(self):
        """A worker whose allocator still holds live buffers must fail its
        reset instead of silently replaying on a leaky pool."""
        from repro.serve import Worker

        exe, _ = nimble.build(self._dyn_module(), intel_cpu())
        worker = Worker(0, exe, intel_cpu())
        worker.reset()  # clean reset works
        worker.ctx.allocator.alloc(64, 64, intel_cpu().host)  # simulate a leak
        with pytest.raises(MemoryError, match="live bytes"):
            worker.reset()


def _paper_model_cases():
    """(name, module, platform, device_streams, inputs): the paper's three
    models at toy sizes; BERT also on the GPU, unscheduled and on four
    streams, so STREAM_EVENT / STREAM_WAIT run too."""
    from repro.data import Tree, embedding_table
    from repro.models.bert import BertConfig, BertWeights, build_bert_module
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt

    rng = np.random.RandomState(0)

    def sentence(length, width):
        return rng.randn(length, width).astype(np.float32)

    lstm = build_lstm_module(
        LSTMWeights.create(input_size=12, hidden_size=16, num_layers=1, seed=0))
    tree = build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
    bert = build_bert_module(
        BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=1, ffn=48), seed=0))
    embeddings = embedding_table(vocab_size=32, dim=12, seed=0)
    big = Tree.node(
        Tree.node(Tree.leaf(1), Tree.leaf(2)),
        Tree.node(Tree.leaf(3), Tree.node(Tree.leaf(4), Tree.leaf(5))),
    )
    small = Tree.node(Tree.leaf(7), Tree.leaf(8))
    lstm_inputs = [sentence(5, 12), sentence(9, 12)]
    yield "lstm", lstm, intel_cpu(), 1, lstm_inputs
    yield "tree_lstm", tree, intel_cpu(), 1, [
        tree_to_adt(big, embeddings), tree_to_adt(small, embeddings)]
    yield "bert", bert, intel_cpu(), 1, [sentence(6, 24), sentence(11, 24)]
    yield "bert@gpu1", bert, nvidia_gpu(), 1, [sentence(6, 24), sentence(11, 24)]
    yield "bert@gpu4", bert, nvidia_gpu(), 4, [sentence(6, 24), sentence(11, 24)]
    # The step index crosses to the GPU once a step: DEVICE_COPY runs.
    yield "lstm@gpu1", lstm, nvidia_gpu(), 1, lstm_inputs


# What the cases above read on the commit before the dispatch table
# (the 22-arm ``if opcode == ...`` chain): instruction_counts,
# dispatch_time_us, and the run_with_latency of each input. Exact floats:
# the table must charge the clock one instruction at a time, in order.
# (`lstm@gpu1` was re-recorded when device placement went module-wide:
# DEVICE_COPY 46 -> 14, 371.7 / 592.0 -> 242.1 / 361.9 us. The `bert*`
# rows were re-recorded when a symbolic shape became a value computed
# once: INVOKE_PACKED 90 -> 44, SHAPE_OF 72 -> 8, 193.0 / 165.9 ->
# 128.8 / 98.0 us on the CPU; kernel_time_us below did not move. The
# `lstm*` and `tree_lstm` rows were re-recorded when fusion learned
# multi-output groups — one kernel for the cell's split and both state
# updates: `lstm` INVOKE_PACKED 102 -> 74, ALLOC_STORAGE 102 -> 60,
# 216.2 / 241.2 -> 140.7 / 161.7 us; `tree_lstm` INVOKE_PACKED 53 -> 29,
# 170.3 / 39.0 -> 128.2 / 27.6 us; `lstm@gpu1` 242.1 / 361.9 -> 194.1 /
# 225.5 us with DEVICE_COPY still 14. The charges below moved with them.
# The `lstm*` rows were re-recorded again when a tail call handed its
# frame to the callee: the loop's Move / Goto / Ret after each step's
# Invoke no longer run, MOVE 104 -> 90, GOTO 14 -> 0, RET 18 -> 4,
# 140.7 / 161.7 -> 87.0 / 99.5 us; `lstm@gpu1` MOVE 90 -> 76, 194.1 /
# 225.5 -> 157.4 / 225.4 us. Their charges moved with them: each step's
# storage is back in the pool before the next step allocates. Every row
# was re-recorded when the compiler stopped emitting bookkeeping — no
# let-copy `Move`, forwarded tuple fields, one planned constant load a
# block, one kill a register: `lstm` MOVE 90 -> 2, GET_FIELD 30 -> 2,
# LOAD_CONST 196 -> 136, 87.0 / 99.5 -> 81.0 / 89.0 us; `bert` MOVE
# 48 -> 0, LOAD_CONST 92 -> 44, LOAD_CONSTI 108 -> 64, 128.8 / 98.0 ->
# 123.2 / 92.4 us. Kernel and allocation charges did not move. The
# `bert` row was re-recorded when CPU builds began combining Q/K/V into
# one GEMM and its head split into one kernel: INVOKE_PACKED 44 -> 38,
# SHAPE_OF 8 -> 12, 123.2 / 92.4 -> 104.6 / 76.6 us, and its charges
# with it. The `bert@gpu*` rows did not move. The `lstm*` and `tree_lstm`
# rows were re-recorded when builds began picking each kernel's schedule:
# their static GEMVs (one row) take tile 1, so only kernel time moved —
# `lstm` 81.0 / 89.0 -> 77.6 / 83.0 us, `tree_lstm` 121.1 / 25.3 -> 112.5
# / 22.6 us, `lstm@gpu1` 154.5 / 224.9 -> 150.2 / 212.0 us. Every count,
# dispatch, allocation and copy charge held; the `bert*` rows, whose
# kernels are symbolic and narrower than 2,048 columns, did not move.
# The `bert` row was re-recorded when its head split became the stacked
# Q/K/V GEMM's epilogue, one kernel per layer for the projections and
# heads: INVOKE_PACKED 38 -> 32, ALLOC_STORAGE 24 -> 22, ALLOC_TENSOR
# 20 -> 16, ALLOC_TENSOR_REG 26 -> 24, LOAD_CONSTI 50 -> 42, 104.6 /
# 76.6 -> 97.1 / 69.0 us; its charges moved with it (kernel 52.66 ->
# 51.21 us, allocation 66.0 -> 65.5 us, 8 -> 6 pooled allocations, the
# same peak). The `bert@gpu*` rows did not move. The `lstm*` and
# `tree_lstm` rows were re-recorded when a gate split became its GEMM's
# epilogue, the gate GEMM, its bias add and the gate math one kernel:
# `lstm` INVOKE_PACKED 74 -> 60, ALLOC_TENSOR 88 -> 74, LOAD_CONST 136
# -> 122, dispatch 33.44 -> 30.08 us, 77.6 / 83.0 -> 72.9 / 74.5 us;
# `tree_lstm` INVOKE_PACKED 29 -> 17, ALLOC_STORAGE 36 -> 29,
# ALLOC_TENSOR 41 -> 29, LOAD_CONST 70 -> 58, LOAD_CONSTI 41 -> 27,
# dispatch 27.76 -> 23.20 us, 112.5 / 22.6 -> 92.9 / 16.6 us;
# `lstm@gpu1` INVOKE_PACKED 74 -> 60, ALLOC_TENSOR 88 -> 74, LOAD_CONST
# 136 -> 122, dispatch 37.92 -> 34.56 us, 150.2 / 212.0 -> 126.4 /
# 149.2 us. Their charges moved with them: kernel time 82.18 -> 72.35,
# 57.05 -> 37.84 and 335.02 -> 237.37 us (fewer launches), peak bytes
# 1,024 -> 640, 768 -> 704 and 832 -> 576 (the pre-activation is a
# temporary of the kernel), `tree_lstm` allocation 50.25 -> 48.5 us and
# 25 -> 18 pooled allocations. The `bert*` rows did not move.)
_PARENT_COMMIT_READINGS = {
    "lstm": (
        {"ALLOC_ADT": 2, "ALLOC_STORAGE": 60, "ALLOC_TENSOR": 74, "GET_FIELD": 2,
         "IF": 16, "INVOKE": 16, "INVOKE_PACKED": 60, "LOAD_CONST": 122,
         "LOAD_CONSTI": 16, "MOVE": 2, "RET": 4, "SHAPE_OF": 2},
        30.07999999999971, [72.93622857375418, 74.49528567098547]),
    "tree_lstm": (
        {"ALLOC_ADT": 12, "ALLOC_STORAGE": 29, "ALLOC_TENSOR": 29, "GET_FIELD": 39,
         "GET_TAG": 12, "GOTO": 12, "IF": 17, "INVOKE": 12, "INVOKE_PACKED": 17,
         "LOAD_CONST": 58, "LOAD_CONSTI": 27, "MOVE": 12, "RET": 14},
        23.199999999999857, [92.90616372460029, 16.635150697787893]),
    "bert": (
        {"ALLOC_STORAGE": 22, "ALLOC_TENSOR": 16, "ALLOC_TENSOR_REG": 24,
         "INVOKE_PACKED": 32, "LOAD_CONST": 40, "LOAD_CONSTI": 42,
         "RET": 2, "SHAPE_OF": 12},
        15.200000000000012, [97.09178742608665, 69.01503523446729]),
    "bert@gpu1": (
        {"ALLOC_STORAGE": 26, "ALLOC_TENSOR": 14, "ALLOC_TENSOR_REG": 30,
         "INVOKE_PACKED": 44, "LOAD_CONST": 44, "LOAD_CONSTI": 64,
         "RET": 2, "SHAPE_OF": 8},
        18.559999999999956, [160.12456422989916, 125.82703836468826]),
    "bert@gpu4": (
        {"ALLOC_STORAGE": 26, "ALLOC_TENSOR": 14, "ALLOC_TENSOR_REG": 30,
         "INVOKE_PACKED": 44, "LOAD_CONST": 44, "LOAD_CONSTI": 64,
         "RET": 2, "SHAPE_OF": 8, "STREAM_EVENT": 4, "STREAM_WAIT": 4},
        19.199999999999942, [163.78456422989916, 126.70310320153607]),
    "lstm@gpu1": (
        {"ALLOC_ADT": 2, "ALLOC_STORAGE": 74, "ALLOC_TENSOR": 74, "DEVICE_COPY": 14,
         "GET_FIELD": 2, "IF": 16, "INVOKE": 16, "INVOKE_PACKED": 60,
         "LOAD_CONST": 122, "LOAD_CONSTI": 44, "MOVE": 2, "RET": 4, "SHAPE_OF": 2},
        34.55999999999962, [126.42785387718862, 149.21907274267744]),
}

# The same runs' kernel_time_us, alloc_time_us, copy_time_us and the
# allocator's (fresh_allocs, pooled_allocs, frees, peak_bytes), read on
# the commit before operands were decoded once per VM: a shared constant
# object, a decoded layout or a decoded copy cost must not move a charge.
_PARENT_COMMIT_CHARGES = {
    "lstm": (72.35151424473939, 45.0, 0.0, (8, 52, 60, 640)),
    "tree_lstm": (37.84131442238859, 48.5, 0.0, (11, 18, 29, 704)),
    "bert": (51.20584759130132, 65.5, 0.0, (16, 6, 22, 12480)),
    "bert@gpu1": (245.6695736348043, 101.5, 0.0, (20, 6, 26, 14592)),
    "bert@gpu4": (245.6695736348043, 101.5, 0.0, (20, 6, 26, 14592)),
    "lstm@gpu1": (237.36532550095487, 61.25, 84.01866666666668, (9, 65, 74, 576)),
}


def _dense_relu_module(units=8):
    """relu(dense(x, w)) over a dynamic row count: planned allocations
    and one fused compute kernel, straight-line. At 8 units the output
    has its input's symbolic shape and no shape function runs; at any
    other width the shape is new and one does."""
    x = Var("x", TensorType((Any(), 8), "float32"))
    w = const(np.zeros((units, 8), np.float32))
    return IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))


def _scalar_add_exe(platform, addend=200):
    """``x + addend`` over rank-0 int64, built for *platform*: one real
    kernel to hand-assemble functions around, its index and its device."""
    x = Var("x", TensorType((), "int64"))
    exe, _ = nimble.build(
        IRModule.from_expr(Function([x], api.add(x, const(np.array(addend, np.int64))))),
        platform)
    packed = next(i for i in exe.functions[0].instructions
                  if i.opcode == ins.Opcode.INVOKE_PACKED)
    return exe, packed


def _assembled(platform, instructions, registers, constants, kernels=(), num_params=0):
    return Executable(
        platform.name, [VMFunction("main", num_params, list(instructions), registers)],
        {"main": 0}, list(constants), list(kernels))


def _watch_allocs(ctx):
    """Every ``nbytes`` the interpreter hands this context's allocator."""
    seen, real = [], ctx.allocator.alloc

    def alloc(nbytes, alignment, device, pool=None):
        seen.append(nbytes)
        return real(nbytes, alignment, device, pool)

    ctx.allocator.alloc = alloc
    return seen


def _source(exe):
    from repro.vm.generator import function_code

    return function_code(exe.functions[0], exe.constants).source


class TestConstantScalars:
    """A rank-0 host integer constant a block loads is a literal in that
    block's generated code; everything else reads its array per use."""

    @staticmethod
    def _sized_by(constant, device=None, platform=None):
        """``LoadConst`` of *constant*, then an ``AllocStorage`` it sizes."""
        platform = platform or intel_cpu()
        device = device or platform.host
        program = [
            ins.LoadConst(0, 0), ins.AllocStorage(0, 64, device, 1),
            ins.LoadConsti(0, 2), ins.AllocTensor(1, 2, (1,), "uint8", 3), ins.Ret(3),
        ]
        return _assembled(platform, program, 4, [constant])

    def test_which_constants_are_literals(self):
        for value, dtype in ((4096, np.int64), (7, np.int32)):
            source = _source(self._sized_by(array(np.array(value, dtype))))
            assert f"A.alloc({value}, 64, " in source and "read_scalar" not in source
        for other in (
            array(np.array([4096], np.int64)),           # rank 1
            array(np.array(4096.0, np.float32)),         # float
            array(np.array(True)),                       # bool
            array(np.array(4096, np.int64), device=gpu(0)),  # reading it synchronises
            array(np.zeros((2, 2), np.float32)),         # a weight
        ):
            source = _source(self._sized_by(other))
            assert "n = read_scalar(R[0], C, S)" in source and "A.alloc(n, 64, " in source

    def test_a_compiled_models_planned_sizes_are_literals(self):
        """The one scalar the generated code reads at run time is the
        row count a host kernel wrote; every planned size and offset is
        a literal."""
        exe, _ = nimble.build(_dense_relu_module(), intel_cpu())
        code = exe.functions[0].instructions
        source = _source(exe)
        kernel_written = {r for i in code if i.opcode == ins.Opcode.INVOKE_PACKED
                          for r in i.outputs}
        sizes = [i.allocation_size for i in code if i.opcode == ins.Opcode.ALLOC_STORAGE]
        assert source.count("read_scalar(") == 1
        assert [r for r in sizes if f"read_scalar(R[{r}]" in source] == [
            r for r in sizes if r in kernel_written] != []
        assert "A.alloc(64, 64, " in source and "s.view(0, " in source
        vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
        for obj, constant in zip(vm._constants, exe.constants):
            assert type(obj) is TensorObj and obj.array is constant

    def test_a_constant_that_is_an_alloc_size_and_a_kernel_input(self):
        exe, packed = _scalar_add_exe(intel_cpu(), addend=200)
        host = intel_cpu().host
        program = [
            ins.LoadConst(0, 1),                # 200: the kernel's operand ...
            ins.AllocStorage(1, 64, host, 2),   # ... and the size of its output
            ins.LoadConsti(0, 3),
            ins.AllocTensor(2, 3, (), "int64", 4),
            ins.InvokePacked(packed.packed_index, (0, 1), (4,), host),
            ins.Ret(4),
        ]
        ctx = ExecutionContext(intel_cpu())
        exe = _assembled(intel_cpu(), program, 5, [array(np.array(200, np.int64))],
                         exe.kernels, 1)
        source = _source(exe)
        assert "A.alloc(200, 64, " in source and "read_scalar" not in source
        assert "x1 = R[1].array.data" in source  # the kernel reads the tensor
        vm = VirtualMachine(exe, ctx)
        seen = _watch_allocs(ctx)
        for x in (1, 41):
            assert vm.run(np.array(x, np.int64)).numpy().item() == x + 200
        assert seen == [200, 200]
        assert ctx.allocator.stats.bytes_allocated == 256
        assert ctx.allocator.live_bytes == 0

    def test_a_constant_loaded_in_another_block_reads_its_array(self):
        """A load in one block reaches a size in the next through the
        register: not a literal there, so the size reads the array."""
        host = intel_cpu().host
        program = [
            ins.LoadConst(0, 0), ins.Goto(1),  # the Goto ends the load's block
            ins.AllocStorage(0, 64, host, 1),
            ins.LoadConsti(0, 2), ins.AllocTensor(1, 2, (1,), "uint8", 3), ins.Ret(3),
        ]
        ctx = ExecutionContext(intel_cpu())
        exe = _assembled(intel_cpu(), program, 4, [array(np.array(300, np.int64))])
        assert "n = read_scalar(R[0], C, S)" in _source(exe)
        vm = VirtualMachine(exe, ctx)
        seen = _watch_allocs(ctx)
        vm.run()
        assert seen == [300] and type(seen[0]) is int
        assert ctx.allocator.live_bytes == 0

    @pytest.mark.parametrize("constant,want", [
        (np.array([300], np.int64), 300),
        (np.array(300.75, np.float32), 300),
        (np.array(True), 1),
    ], ids=["rank1", "float", "bool"])
    def test_other_constants_read_their_array_as_before(self, constant, want):
        ctx = ExecutionContext(intel_cpu())
        exe = self._sized_by(array(constant))
        assert "n = read_scalar(R[0], C, S)" in _source(exe)
        vm = VirtualMachine(exe, ctx)
        seen = _watch_allocs(ctx)
        vm.run()
        assert seen == [want] and type(seen[0]) is int
        assert ctx.allocator.live_bytes == 0

    def test_a_gpu_tagged_constant_still_synchronises(self):
        platform = nvidia_gpu()
        device = platform.compute
        on_device = self._sized_by(array(np.array(512, np.int64), device=device),
                                   device, platform)
        assert "n = read_scalar(R[0], C, S)" in _source(on_device)
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(on_device, ctx)
        synced, real = [], ctx.clock.sync
        ctx.clock.sync = lambda dev: (synced.append(dev), real(dev))[1]
        seen = _watch_allocs(ctx)
        vm.run()
        assert seen == [512] and synced == [device]
        # The same program over a host constant is a literal and syncs nothing.
        host_exe = self._sized_by(array(np.array(512, np.int64)), device, platform)
        assert "A.alloc(512, 64, " in _source(host_exe)
        VirtualMachine(host_exe, ctx).run()
        assert seen == [512, 512] and synced == [device]

    def test_alloc_size_from_immediate_constant_and_kernel_output(self):
        """`AllocStorage` / `AllocTensor` take their scalar from a
        `LoadConsti`, a `LoadConst` or a tensor a kernel wrote: the
        allocator is asked for the same Python int each way."""
        exe, packed = _scalar_add_exe(intel_cpu(), addend=200)
        host = intel_cpu().host
        size = 1000

        def tail(size_reg, first):
            """Allocate *size_reg* bytes, carve int64[size // 8] at offset 0."""
            return [
                ins.AllocStorage(size_reg, 64, host, first),
                ins.LoadConsti(0, first + 1),
                ins.AllocTensor(first, first + 1, (size // 8,), "int64", first + 2),
                ins.Ret(first + 2),
            ]

        programs = {
            "immediate": ([ins.LoadConsti(size, 0)] + tail(0, 1), [], ()),
            "constant": ([ins.LoadConst(0, 0)] + tail(0, 1),
                         [array(np.array(size, np.int64))], ()),
            "kernel": ([
                ins.LoadConsti(8, 1), ins.AllocStorage(1, 64, host, 2),
                ins.LoadConsti(0, 3), ins.AllocTensor(2, 3, (), "int64", 4),
                ins.LoadConst(0, 5),
                ins.InvokePacked(packed.packed_index, (0, 5), (4,), host),
            ] + tail(4, 6), [array(np.array(200, np.int64))], (np.array(size - 200, np.int64),)),
        }
        asked = {}
        for name, (program, constants, inputs) in programs.items():
            ctx = ExecutionContext(intel_cpu())
            vm = VirtualMachine(_assembled(
                intel_cpu(), program, 10, constants, exe.kernels, len(inputs)), ctx)
            seen = _watch_allocs(ctx)
            out = vm.run(*inputs)
            assert out.numpy().shape == (size // 8,) and out.dtype == "int64"
            assert ctx.allocator.live_bytes == 0
            asked[name] = (seen[-1], type(seen[-1]), ctx.allocator.stats.peak_bytes)
        assert asked["immediate"] == asked["constant"] == (size, int, 1024)
        assert asked["kernel"] == (size, int, 1024 + 64)


def _tanh_exe(n=4, platform=None):
    x = Var("x", TensorType((n,)))
    return nimble.build(IRModule.from_expr(Function([x], api.tanh(x))), platform or intel_cpu())[0]


class TestGeneratedExecutor:
    """Each function runs as generated Python, one function per basic
    block (`repro.vm.generator`), under `VirtualMachine._execute`."""

    def test_every_opcode_has_one_emitter(self):
        """A 23rd opcode must be given a meaning: it cannot be silently
        unknown to the generator."""
        from repro.vm import generator

        assert set(generator._EMIT) == set(ins.Opcode)
        assert all(callable(emit) for emit in generator._EMIT.values())

    def test_blocks_are_cut_at_targets_after_control_flow_and_into_pieces(self):
        """A generated block is a basic block, or a `PIECE`-instruction
        piece of a longer one: a 300-instruction straight-line run is
        ten pieces, each falling through to the next, and a planned size
        loaded before a cut is still a literal after it."""
        from repro.vm.cfg import CFG
        from repro.vm.generator import PIECE, function_code

        assert PIECE == 32
        loop = ([ins.LoadConsti(0, 0), ins.LoadConsti(0, 1),
                 ins.If(0, 1, 1, 3), ins.Goto(2), ins.Move(0, 2), ins.LoadConsti(64, 3)]
                + [ins.Move(0, 2)] * 297
                + [ins.AllocStorage(3, 64, cpu(), 4), ins.Ret(2)])
        shape = CFG(loop)
        assert len(loop) == 305
        assert shape.blocks == [(0, 3), (3, 4), (4, 5), (5, 305)]
        assert shape.target(5) == 3 and shape.target(305) is None and shape.target(-1) is None
        exe = _assembled(intel_cpu(), loop, 5, [])
        code = function_code(exe.functions[0], exe.constants)
        assert [len(opcodes) for opcodes in code.opcodes] == [3, 1, 1] + [32] * 9 + [12, 0]
        assert all(f"return {b + 1}\n" in code.sources[b] for b in range(3, 12))
        assert "A.alloc(64, 64," in code.sources[12] and "read_scalar" not in code.source
        vm = VirtualMachine(exe)
        assert vm.run() == 0
        assert sum(vm.profile.instruction_counts.values()) == 3 + 1 + 300

    def test_the_lstm_loop_source_matches_golden(self):
        """The toy LSTM's loop, generated: a set or dict order leaking into
        generation moves it (CI runs this under two hash seeds)."""
        from pathlib import Path

        from repro.models.lstm import LSTMWeights, build_lstm_module
        from repro.vm.generator import function_code

        mod = build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
        exe, _ = nimble.build(mod, intel_cpu())
        loop = exe.functions[exe.func_index["lstm_loop"]]
        golden = Path(__file__).parent / "golden" / "lstm_loop_vm.txt"
        assert function_code(loop, exe.constants).source == golden.read_text()

    def test_the_tree_eval_source_matches_golden(self):
        """The toy TreeLSTM's recursion, generated: a branchy function
        (a ``GetTag``, two ``If``, two ``Goto``, two plain ``Invoke`` and a
        ``Fatal`` on the path no constructor takes), so its blocks, their successors and the register
        kinds joined where paths meet are all pinned (CI runs this under
        two hash seeds)."""
        from collections import Counter
        from pathlib import Path

        from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module
        from repro.vm.generator import function_code

        mod = build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
        exe, _ = nimble.build(mod, intel_cpu())
        tree_eval = exe.functions[exe.func_index["tree_eval"]]
        ops = Counter(i.opcode for i in tree_eval.instructions)
        # 76 before the compiler shared registers, 56 before a gate split
        # joined its GEMM.
        assert len(tree_eval.instructions) == 47
        assert (ops[ins.Opcode.GET_TAG], ops[ins.Opcode.IF], ops[ins.Opcode.GOTO],
                ops[ins.Opcode.INVOKE], ops[ins.Opcode.FATAL]) == (1, 2, 2, 2, 1)
        golden = Path(__file__).parent / "golden" / "tree_eval_vm.txt"
        assert function_code(tree_eval, exe.constants).source == golden.read_text()

    def test_a_vm_over_generated_bytecode_generates_nothing(self, monkeypatch):
        """Workers and fleet restores build VMs every pass: the second VM
        over the same bytecode (the same executable, or one loaded from
        its bytes) binds the cached code."""
        from repro.vm import generator

        exe, _ = nimble.build(_dense_relu_module(units=16), intel_cpu())
        data = np.zeros((5, 8), np.float32)
        first = VirtualMachine(exe)
        want = first.run(data).numpy()
        made = []
        real = generator.FunctionCode.__init__

        def counting(self, *args, **kwargs):
            made.append(args[0].name)
            real(self, *args, **kwargs)

        monkeypatch.setattr(generator.FunctionCode, "__init__", counting)
        for again in (exe, Executable.load(exe.save())):
            vm = VirtualMachine(again)
            assert np.array_equal(vm.run(data).numpy(), want)
            assert vm._programs[0].code is first._programs[0].code
            assert vm._programs[0].blocks[0] is not first._programs[0].blocks[0]
        assert made == []

    def test_the_cache_key_is_made_once_per_function(self, monkeypatch):
        """Binding a function walks its instructions once: a second VM
        over the same executable finds the key on the function; one
        loaded from the bytes walks its own functions once and still
        hits; a function swapped for different content misses."""
        from repro.vm import generator

        exe, _ = nimble.build(_dense_relu_module(units=16), intel_cpu())
        data = np.zeros((5, 8), np.float32)
        first = VirtualMachine(exe)
        want = first.run(data).numpy()
        code = first._programs[0].code
        loads = sum(i.opcode == ins.Opcode.LOAD_CONST for i in exe.functions[0].instructions)
        assert loads
        walked = []
        real = generator._literal
        monkeypatch.setattr(generator, "_literal", lambda array: walked.append(1) or real(array))

        def bound(executable):
            vm = VirtualMachine(executable)
            assert np.array_equal(vm.run(data).numpy(), want)
            return vm._programs[0].code

        assert bound(exe) is code and walked == []
        assert bound(Executable.load(exe.save())) is code and len(walked) == loads
        func = exe.functions[0]
        exe.functions[0] = VMFunction(
            func.name, func.num_params, list(func.instructions), func.register_count + 1)
        assert bound(exe) is not code

    def test_the_cache_stays_bounded(self, monkeypatch):
        import linecache
        from collections import OrderedDict

        from repro.vm import generator

        monkeypatch.setattr(generator, "_CACHE", OrderedDict())
        first = None
        for value in range(generator.CACHE_SIZE + 5):
            exe = _assembled(intel_cpu(), [ins.LoadConsti(value, 0), ins.Ret(0)], 1, [])
            vm = VirtualMachine(exe)
            assert vm.run() == value
            first = first or vm._programs[0].code
            assert len(generator._CACHE) <= generator.CACHE_SIZE
        assert first not in generator._CACHE.values()
        assert not any(name in linecache.cache for name in first.filenames)

    @pytest.mark.parametrize("case", ["goto", "if"])
    def test_a_jump_outside_the_function_raises_and_drains(self, case):
        """A ``Goto(-1)`` in front of a function used to run its last
        instruction and return None; an ``If`` past the end likewise ran
        off unchecked. Both targets are found at generation and raise."""
        exe = _tanh_exe()
        func = exe.functions[0]
        code, registers = list(func.instructions), func.register_count
        if case == "goto":
            code.insert(0, ins.Goto(-1))
            message = rf"main: jump from pc 0 to -1, outside \[0, {len(code)}\)"
        else:
            # After the kernel, with its output buffer live: jump past the end.
            at = next(pc for pc, i in enumerate(code) if i.opcode == ins.Opcode.INVOKE_PACKED) + 1
            code[at:at] = [ins.LoadConsti(1, registers), ins.If(registers, registers, 99, 1)]
            registers += 1
            message = rf"main: jump from pc {at + 1} to {at + 100}, outside \[0, {len(code)}\)"
        exe.functions[0] = VMFunction(func.name, func.num_params, code, registers)
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        with pytest.raises(VMError, match=message):
            vm.run(np.zeros(4, np.float32))
        assert ctx.allocator.live_bytes == 0
        assert ctx.allocator.stats.frees == ctx.allocator.stats.total_allocs
        counts = vm.profile.instruction_counts
        assert counts["GOTO" if case == "goto" else "IF"] == 1
        if case == "if":
            assert counts["INVOKE_PACKED"] == 1 and ctx.allocator.stats.total_allocs > 0

    def test_a_run_that_raises_counts_and_charges_up_to_the_instruction(self):
        """A planted ``Fatal`` at each position of a 139-instruction
        straight-line function, one block: the counts, the dispatch charge
        and the clock are those of the instructions before it plus its
        own, added here one at a time without the generator, and the
        allocator drains."""
        from collections import Counter

        from repro.hardware import calibration

        platform = intel_cpu()
        host = platform.host
        exe, packed = _scalar_add_exe(platform)
        packed_index = packed.packed_index
        body = [
            ins.LoadConsti(8, 1), ins.AllocStorage(1, 64, host, 2),
            ins.LoadConsti(0, 3), ins.AllocTensor(2, 3, (), "int64", 4),
            ins.LoadConst(0, 5),
            ins.InvokePacked(packed_index, (0, 5), (4,), host),
            ins.AllocADT(-1, (4, 5), 6), ins.GetField(6, 0, 7),
        ] + [ins.Move(7, 8)] * 130 + [ins.Ret(8)]
        assert len(body) == 139
        constants = [array(np.array(200, np.int64))]
        instr_us = platform.vm_instruction_us
        fresh_us = calibration.ALLOC_FRESH_US[platform.name]
        x = np.array(5, np.int64)
        kernel_us = exe.kernels[packed_index].invoke_cost(((), ())).duration_us
        for at in range(len(body)):
            planted = body[:at] + [ins.Fatal("planted")] + body[at + 1:]
            ctx = ExecutionContext(platform)
            vm = VirtualMachine(_assembled(platform, planted, 9, constants, exe.kernels, 1), ctx)
            with pytest.raises(VMError, match="VM fatal: planted"):
                vm.run(x)
            ran = planted[:at + 1]
            host_us = dispatch_us = 0.0
            for instr in ran:
                host_us += instr_us
                dispatch_us += instr_us
                if instr.opcode == ins.Opcode.ALLOC_STORAGE:
                    host_us += fresh_us
                elif instr.opcode == ins.Opcode.INVOKE_PACKED:
                    host_us += kernel_us
            assert vm.profile.instruction_counts == Counter(i.opcode.name for i in ran), at
            assert vm.profile.dispatch_time_us == dispatch_us, at
            assert ctx.clock.host_us == host_us, at
            assert ctx.allocator.live_bytes == 0, at

    def test_class_patches_made_after_warm_up_are_observed(self, monkeypatch):
        """bench/trace.py wraps these class attributes after the VMs
        exist: the interpreter must look them up at call time."""
        from repro.codegen.kernels import KernelSet, ShapeFuncKernel
        from repro.runtime.allocator import PoolingAllocator

        exe, _ = nimble.build(_dense_relu_module(units=16), intel_cpu())
        vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
        data = np.zeros((5, 8), np.float32)
        vm.run(data)  # built, decoded and warmed before anything is patched
        patched = [(KernelSet, "invoke_cost"), (KernelSet, "run"), (ShapeFuncKernel, "run"),
                   (PoolingAllocator, "alloc"), (PoolingAllocator, "free")]
        seen = dict.fromkeys(patched, 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for owner, attr in patched:
            monkeypatch.setattr(owner, attr, counting((owner, attr), getattr(owner, attr)))
        # Straight-line bytecode: every instruction runs once per run.
        instructions = [i for f in exe.functions for i in f.instructions]
        packed = [i for i in instructions if i.opcode == ins.Opcode.INVOKE_PACKED]
        shape_funcs = [i for i in packed if i.kind == "shape_func"]
        priced = len(packed) - len(shape_funcs)
        allocs = [i for i in instructions if i.opcode == ins.Opcode.ALLOC_STORAGE]
        vm.run(data)
        assert seen[KernelSet, "invoke_cost"] == seen[KernelSet, "run"] == priced > 0
        assert seen[ShapeFuncKernel, "run"] == len(shape_funcs) > 0
        assert seen[PoolingAllocator, "alloc"] == seen[PoolingAllocator, "free"] == len(allocs) > 0

    def test_a_profile_assigned_after_warm_up_gets_the_next_run(self):
        """`Worker._specialized_vm` reassigns `vm.profile` after
        construction: nothing may hold on to the first one."""
        from repro.vm.profiler import VMProfile

        exe, _ = nimble.build(_dense_relu_module(units=16), intel_cpu())
        vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
        data = np.zeros((5, 8), np.float32)
        vm.run(data)
        first, before = vm.profile, vars(vm.profile).copy()
        before["instruction_counts"] = dict(first.instruction_counts)
        vm.profile = VMProfile()
        vm.run(data)
        assert dict(vm.profile.instruction_counts) == before["instruction_counts"]
        for field in ("runs", "dispatch_time_us", "kernel_time_us", "kernel_invocations",
                      "shape_func_time_us", "alloc_time_us"):
            assert getattr(vm.profile, field) > 0
            assert getattr(first, field) == before[field]
        assert dict(first.instruction_counts) == before["instruction_counts"]

    def test_a_function_swapped_after_warm_up_is_generated_again(self):
        exe = _tanh_exe()
        vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
        vm.run(np.zeros(4, np.float32))
        func = exe.functions[0]
        exe.functions[0] = VMFunction(
            func.name, func.num_params, [ins.Fatal("swapped in")], func.register_count)
        with pytest.raises(VMError, match="swapped in"):
            vm.run(np.zeros(4, np.float32))

    def test_a_warmed_vm_is_freed_by_reference_counting_alone(self):
        """The generated blocks bind the VM's clock, allocator, kernels,
        constants and run state, never the VM: no cycle for the cyclic
        GC to find."""
        import gc
        import weakref

        exe, _ = nimble.build(_dense_relu_module(), intel_cpu())
        gc.collect()
        gc.disable()
        try:
            vm = VirtualMachine(exe, ExecutionContext(intel_cpu()))
            vm.run(np.zeros((5, 8), np.float32))
            assert any(program is not None for program in vm._programs)
            gone = weakref.ref(vm)
            del vm
            assert gone() is None
        finally:
            gc.enable()

    def test_bad_kernel_operands_raise_the_same_errors_and_drain(self):
        exe, _ = nimble.build(_dense_relu_module(), intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        data = np.zeros((5, 8), np.float32)
        vm.run(data)
        with pytest.raises(VMError, match="ShapeOf: expected a tensor object, got ADTObj"):
            vm.run(ADTObj(0, []))
        assert ctx.allocator.live_bytes == 0

        x = Var("x", TensorType((4,)))
        static, _ = nimble.build(IRModule.from_expr(Function([x], api.tanh(x))), intel_cpu())
        static_vm = VirtualMachine(static, ctx)
        with pytest.raises(VMError, match="kernel input: expected a tensor object, got ADTObj"):
            static_vm.run(ADTObj(0, []))
        assert ctx.allocator.live_bytes == 0

        class Misshapen:
            """A kernel handed buffers one row short of its result."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def run(self, inputs, outputs):
                return self.inner.run(inputs, [out[1:] for out in outputs])

        index = next(i.packed_index for i in exe.functions[0].instructions
                     if i.opcode == ins.Opcode.INVOKE_PACKED and i.kind == "compute")
        original = exe.kernels[index]
        exe.kernels[index] = Misshapen(original)
        with pytest.raises(VMError, match=r"kernel output shape \(5, 8\) does not fit "
                                          r"buffer \(4, 8\)"):
            vm.run(data)
        assert ctx.allocator.live_bytes == 0
        assert ctx.allocator.stats.frees == ctx.allocator.stats.total_allocs
        exe.kernels[index] = original
        assert vm.run(data).numpy().shape == (5, 8)
        assert ctx.allocator.live_bytes == 0

    def test_error_in_nested_frame_drains_and_counts_the_faulting_instruction(self):
        mod = IRModule()
        gtv = mod.get_global_type_var("NestedOpt")
        data = TypeData(gtv, [], [("A", []), ("B", [])])
        mod.add_type_data(data)
        pick = mod.get_global_var("pick")
        t = Var("t", TypeCall(gtv, []))
        x = Var("x", TensorType((16,)))
        sb = ScopeBuilder()
        a = sb.let("a", api.tanh(x))  # the callee holds a buffer when it dies
        m = sb.let("m", Match(t, [Clause(PatternConstructor(data.constructor("A"), []), a)]))
        mod[pick] = Function([t, x], sb.get(m), TensorType((16,)))
        main_t = Var("t", TypeCall(gtv, []))
        main_x = Var("x", TensorType((16,)))
        mod["main"] = Function(
            [main_t, main_x], Call(pick, [main_t, api.sigmoid(main_x)]), TensorType((16,)))
        exe, _ = nimble.build(mod, intel_cpu())
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        with pytest.raises(VMError, match="no matching clause"):
            vm.run(ADTObj(1, []), np.zeros(16, np.float32))
        counts = vm.profile.instruction_counts
        assert counts["INVOKE"] == 1 and counts["RET"] == 0  # died inside the callee
        assert counts["FATAL"] == 1
        assert vm.profile.dispatch_time_us == pytest.approx(
            sum(counts.values()) * intel_cpu().vm_instruction_us)
        assert ctx.allocator.live_bytes == 0
        assert ctx.allocator.stats.frees == ctx.allocator.stats.total_allocs
        good = vm.run(ADTObj(0, []), np.ones(16, np.float32))
        assert np.allclose(good.numpy(), np.tanh(1 / (1 + np.exp(-np.ones(16, np.float32)))))
        assert ctx.allocator.live_bytes == 0

    @pytest.mark.parametrize("case", _paper_model_cases(), ids=lambda case: case[0])
    def test_models_read_what_the_parent_commit_read(self, case):
        name, mod, platform, streams, inputs = case
        exe, _ = nimble.build(
            mod, platform, options=nimble.CompilerOptions(device_streams=streams))
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(exe, ctx)
        latencies = [vm.run_with_latency(x)[1] for x in inputs]
        counts, dispatch_us, want_latencies = _PARENT_COMMIT_READINGS[name]
        assert dict(vm.profile.instruction_counts) == counts
        assert vm.profile.dispatch_time_us == dispatch_us
        assert latencies == want_latencies
        assert ctx.allocator.live_bytes == 0
        stats = ctx.allocator.stats
        assert (
            vm.profile.kernel_time_us, vm.profile.alloc_time_us, vm.profile.copy_time_us,
            (stats.fresh_allocs, stats.pooled_allocs, stats.frees, stats.peak_bytes),
        ) == _PARENT_COMMIT_CHARGES[name]


class TestHostPathCost:
    """The host's share of an inference, counted instead of timed:
    Python-level calls under src/repro in one warmed run of the LSTM
    64->128 at length 16 (full numerics). Per executed instruction on
    intel_cpu / nvidia_gpu with two streams: 7.97 / 7.24 with kernels
    lowered and operands decoded once (17.1 before that on the CPU),
    4.83 / 4.31 once planned sizes were ints, registers were written in
    the handlers and a tensor counted its storage's references itself.
    Since the LSTM cell's split and both state updates are one kernel
    the bound is per inference — 5,150 / 5,838 calls before, 3,726 /
    4,142 after; per instruction that reads 5.10 / 5.11, because the
    instructions fusion removed were cheap ones. With kernels run as
    generated functions: 3,548 / 3,964 (4.86 / 4.89), the generated
    kernel frames counted. With the VM's functions run as generated
    blocks instead of a dispatch loop over a handler table: 1,855 /
    2,239 (2.54 / 2.76), the block frames counted; 1,887 / 2,271 (2.58
    / 2.80) once a field read no longer took its kind from an ADT made
    in the same block; 1,608 / 1,944 (2.20 / 2.40) once kernels wrote
    their output buffers, launches were logged and folded into the
    profile once per run, and a planned AllocStorage held its free list;
    1,366 / 1,702 (1.87 / 2.10) once kernels called NumPy directly —
    elementwise ops their ufuncs, split views, each output's last op
    writing its buffer — without a compute frame per op; 1,302 / 1,638
    (1.78 / 2.02) once the cell's three sigmoids were one call over the
    sections they read, with reshape, concatenate and take calling NumPy;
    1,190 / 1,526 (1.74 / 2.00) once a tail call handed its frame to the
    callee, the step's Move / Goto / Ret and its frame push left unrun.
    The bounds are that pair plus 2%. CI's "Size trajectory" step prints
    both."""

    @staticmethod
    def _calls_per_inference(platform, streams):
        import os
        import sys

        from repro.models.lstm import LSTMWeights, build_lstm_module

        mod = build_lstm_module(
            LSTMWeights.create(input_size=64, hidden_size=128, num_layers=1, seed=0))
        exe, _ = nimble.build(
            mod, platform, options=nimble.CompilerOptions(device_streams=streams))
        vm = VirtualMachine(exe, ExecutionContext(platform))
        x = np.random.RandomState(0).randn(16, 64).astype(np.float32)
        vm.run(x)
        vm.profile.reset()
        root = os.path.dirname(os.path.abspath(nimble.__file__)) + os.sep
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls += 1

        sys.setprofile(profiler)
        try:
            vm.run(x)
        finally:
            sys.setprofile(None)
        instructions = sum(vm.profile.instruction_counts.values())
        print(f"python calls per VM instruction ({platform.name}, {streams} stream(s)): "
              f"{calls / instructions:.2f} ({calls} calls, {instructions} instructions)")
        return calls

    def test_python_calls_per_inference(self):
        assert self._calls_per_inference(intel_cpu(), 1) <= 1_213

    def test_python_calls_per_inference_on_the_gpu_with_two_streams(self):
        """The path the serving benchmark runs: launch_async and one
        host->GPU DeviceCopy a step."""
        assert self._calls_per_inference(nvidia_gpu(), 2) <= 1_556


def _tail_lstm(layers, platform, streams, input_size=12, hidden_size=16):
    from repro.models.lstm import LSTMWeights, build_lstm_module

    mod = build_lstm_module(LSTMWeights.create(
        input_size=input_size, hidden_size=hidden_size, num_layers=layers, seed=0))
    exe, _ = nimble.build(mod, platform, options=nimble.CompilerOptions(device_streams=streams))
    return mod, exe


def _sentence(length, width=12):
    return np.random.RandomState(length).randn(length, width).astype(np.float32)


def _cold_run(exe, platform, length, width=12):
    """One run of *exe* on a fresh VM and allocator: (vm, ctx, output)."""
    ctx = ExecutionContext(platform)
    vm = VirtualMachine(exe, ctx)
    return vm, ctx, vm.run(_sentence(length, width))


class TestTailCalls:
    """An ``Invoke`` whose result its frame returns through nothing but
    ``Move``s and ``Goto``s is a tail call (`repro.vm.generator`): the
    caller's frame is released before the callee runs, and the callee's
    frame takes its place on the trampoline, so the dynamic LSTM's loop
    — a recursive function, one call a step — runs in one frame's
    memory at any length. The oracle is the IR evaluator, bit for bit."""

    CASES = [(1, intel_cpu, 1), (2, intel_cpu, 1), (1, nvidia_gpu, 2), (2, nvidia_gpu, 2)]
    IDS = ["1-layer-intel", "2-layer-intel", "1-layer-nvidia-2", "2-layer-nvidia-2"]

    @pytest.mark.parametrize("layers,make_platform,streams", CASES, ids=IDS)
    def test_a_cold_runs_memory_does_not_grow_with_length(self, layers, make_platform, streams):
        platform = make_platform()
        _, exe = _tail_lstm(layers, platform, streams)
        seen = {}
        for length in (4, 64):
            vm, ctx, _ = _cold_run(exe, platform, length)
            stats = ctx.allocator.stats
            assert ctx.allocator.live_bytes == 0 and stats.frees == stats.total_allocs
            assert vm.profile.instruction_counts["RET"] == 2
            seen[length] = (stats.peak_bytes, stats.fresh_allocs)
        assert seen[4] == seen[64]

    @pytest.mark.parametrize("layers,make_platform,streams", CASES, ids=IDS)
    def test_outputs_are_the_evaluators_bit_for_bit(self, layers, make_platform, streams):
        from repro.evaluator import evaluate

        platform = make_platform()
        mod, exe = _tail_lstm(layers, platform, streams)
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(exe, ctx)
        for runs, length in enumerate((1, 3, 40), start=1):
            x = _sentence(length)
            got = vm.run(x).numpy()
            want = np.asarray(evaluate(mod, x))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), length
            # main's and the last step's: no step returns through its caller.
            assert vm.profile.instruction_counts["RET"] == 2 * runs
            assert ctx.allocator.live_bytes == 0

    def test_five_thousand_steps_run_in_one_steps_memory(self):
        platform = intel_cpu()
        _, exe = _tail_lstm(1, platform, 1, input_size=16, hidden_size=16)
        peaks = {}
        for length in (4, 5_000):
            vm, ctx, out = _cold_run(exe, platform, length, width=16)
            assert out.numpy().shape == (1, 16)
            assert ctx.allocator.live_bytes == 0
            assert ctx.allocator.stats.frees == ctx.allocator.stats.total_allocs
            assert vm.profile.instruction_counts["INVOKE"] == length + 1
            peaks[length] = ctx.allocator.stats.peak_bytes
        assert peaks[4] == peaks[5_000]

    def test_cold_lstm_peak_and_fresh_allocations(self):
        """What CI's "Size trajectory" step prints: the bench-size 2-layer
        LSTM (300 -> 512) on a fresh VM, at two lengths."""
        platform = intel_cpu()
        _, exe = _tail_lstm(2, platform, 1, input_size=300, hidden_size=512)
        seen = []
        for length in (16, 64):
            _, ctx, _ = _cold_run(exe, platform, length, width=300)
            stats = ctx.allocator.stats
            seen.append((length, stats.peak_bytes, stats.fresh_allocs))
        print("dynamic LSTM cold run: " + ", ".join(
            f"L={length} peak {peak:,} B, {fresh} fresh allocations"
            for length, peak, fresh in seen))
        assert seen[0][1:] == seen[1][1:]

    def test_a_fault_in_a_tail_called_frame_drains_and_counts(self):
        """The first layer's cell kernel (its gate GEMM and gate math,
        one launch a step) raises on its 3rd launch: step 3's first
        layer, in the frame step 2's tail call handed over. Every storage returns, the run counts the
        instructions it ran, and the VM runs on."""
        platform = intel_cpu()
        _, exe = _tail_lstm(2, platform, 1)
        loop = exe.functions[exe.func_index["lstm_loop"]]
        index = next(i.packed_index for i in loop.instructions
                     if i.opcode == ins.Opcode.INVOKE_PACKED and "split" in exe.kernels[i.packed_index].name)

        class FailsOnThird:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def run(self, inputs, outputs):
                self.calls += 1
                if self.calls == 3:
                    raise VMError("planted fault")
                return self.inner.run(inputs, outputs)

        x = _sentence(8)
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(exe, ctx)
        original = exe.kernels[index]
        exe.kernels[index] = FailsOnThird(original)
        try:
            with pytest.raises(VMError, match="planted fault"):
                vm.run(x)
        finally:
            exe.kernels[index] = original
        stats = ctx.allocator.stats
        assert ctx.allocator.live_bytes == 0 and stats.frees == stats.total_allocs
        counts = vm.profile.instruction_counts
        assert counts["RET"] == 0 and counts["INVOKE"] == 3  # main's call, two steps'
        assert vm.profile.dispatch_time_us == pytest.approx(
            sum(counts.values()) * platform.vm_instruction_us)
        _, _, fresh = _cold_run(exe, platform, 8)
        assert vm.run(x).numpy().tobytes() == fresh.numpy().tobytes()
        assert ctx.allocator.live_bytes == 0


def _fold_law_cases():
    """(name, module, platform, device_streams, inputs): the paper's three
    models of `_paper_model_cases` on `intel_cpu` and on two GPU streams."""
    cases = {name: (mod, inputs) for name, mod, platform, _, inputs in _paper_model_cases()
             if platform.name == "intel"}
    for name in ("lstm", "tree_lstm", "bert"):
        mod, inputs = cases[name]
        yield name, mod, intel_cpu(), 1, inputs
        yield f"{name}@gpu2", mod, nvidia_gpu(), 2, inputs


class TestLaunchLog:
    """Each kernel launch appends ``(invocation, kernel, stream)`` to the
    run's launch log, and the run's end folds it into `VMProfile`
    (`VMProfile.record_launches`): the kernel fields must read what
    charging each launch as it happened reads, float for float."""

    @staticmethod
    def _priced_launches(monkeypatch, exe):
        """Every compute launch, in order, as ``[kernel, invocation,
        stream]``: priced by `KernelSet.invoke_cost`, its stream taken
        from the `launch_async` that follows on a GPU."""
        from repro.codegen.kernels import KernelSet
        from repro.runtime.clock import VirtualClock

        kinds = {}
        for func in exe.functions:
            for instr in func.instructions:
                if instr.opcode == ins.Opcode.INVOKE_PACKED:
                    kinds.setdefault(instr.packed_index, set()).add(instr.kind)
        compute = {id(exe.kernels[i]) for i, kind in kinds.items() if kind == {"compute"}}
        assert all(len(kind) == 1 for kind in kinds.values())
        launches, real_cost, real_launch = [], KernelSet.invoke_cost, VirtualClock.launch_async

        def invoke_cost(kernel, shapes):
            invocation = real_cost(kernel, shapes)
            launches.append([kernel, invocation, 0, id(kernel) in compute])
            return invocation

        def launch_async(clock, device, duration_us, launch_us, stream=0):
            launches[-1][2] = stream
            return real_launch(clock, device, duration_us, launch_us, stream)

        monkeypatch.setattr(KernelSet, "invoke_cost", invoke_cost)
        monkeypatch.setattr(VirtualClock, "launch_async", launch_async)
        return launches

    @pytest.mark.parametrize("case", _fold_law_cases(), ids=lambda case: case[0])
    def test_the_kernel_fields_are_the_launches_folded_in_order(self, case, monkeypatch):
        from collections import Counter

        name, mod, platform, streams, inputs = case
        exe, _ = nimble.build(
            mod, platform, options=nimble.CompilerOptions(device_streams=streams))
        vm = VirtualMachine(exe, ExecutionContext(platform))
        seen = self._priced_launches(monkeypatch, exe)
        for x in inputs:
            vm.run(x)
        launches = [(kernel, inv, stream) for kernel, inv, stream, compute in seen if compute]
        assert launches and not vm._state.launches
        total, stream_us = 0.0, Counter()
        for _, invocation, stream in launches:
            total += invocation.duration_us
            stream_us[stream] += invocation.duration_us
        profile = vm.profile
        assert profile.kernel_time_us == total
        assert profile.kernel_invocations == len(launches)
        assert profile.stream_kernel_us == stream_us
        assert list(profile.stream_kernel_us) == list(stream_us)  # first launch first
        names = [kernel.name for kernel, _, _ in launches]
        assert profile.kernel_counts == Counter(names)
        assert list(profile.kernel_counts) == list(dict.fromkeys(names))
        impls = [invocation.impl for _, invocation, _ in launches]
        assert profile.impl_counts == Counter(impls)
        assert list(profile.impl_counts) == list(dict.fromkeys(impls))
        assert profile.stream_kernel_invocations == Counter(s for _, _, s in launches)
        if name == "bert@gpu2":  # the LSTM and TreeLSTM chains stay on one stream
            assert len(profile.stream_kernel_us) == 2

    def test_a_raising_run_counts_its_launches_and_leaves_an_empty_log(self, monkeypatch):
        from repro.codegen.kernels import KernelSet

        _, mod, platform, _, inputs = next(_fold_law_cases())
        exe, _ = nimble.build(mod, platform)
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(exe, ctx)
        vm.run(inputs[0])
        clean = vm.profile.kernel_invocations
        seen = self._priced_launches(monkeypatch, exe)
        real_run, runs = KernelSet.run, []

        def run(kernel, inputs, outputs=None):
            runs.append(kernel)
            if len(runs) == 5:
                raise RuntimeError("kernel fault")
            return real_run(kernel, inputs, outputs)

        monkeypatch.setattr(KernelSet, "run", run)
        with pytest.raises(RuntimeError, match="kernel fault"):
            vm.run(inputs[0])
        launched = sum(compute for *_, compute in seen)
        assert seen[-1][0] is runs[-1] and seen[-1][3]  # the launch that raised...
        assert vm.profile.kernel_invocations == clean + launched  # ...is counted
        assert vm._state.launches == []
        assert ctx.allocator.live_bytes == 0
        monkeypatch.setattr(KernelSet, "run", real_run)
        vm.run(inputs[0])
        assert vm.profile.kernel_invocations == clean + launched + clean


class TestBoundFreeLists:
    """An ``AllocStorage`` of a planned size binds its allocator's free
    list when its block is bound to a VM (`PoolingAllocator.free_list`),
    and a storage returns to the list it came from: emptying the pools
    must not leave a VM that exists holding lists of its own."""

    @staticmethod
    def _second_run(worker: bool, rebuild: bool):
        """Allocator and profile readings of two runs after a reset (the
        second one served from the pool), by the VM that ran before it or
        by one built after it."""
        from repro.serve.worker import Worker

        _, mod, platform, _, inputs = next(_fold_law_cases())
        exe, _ = nimble.build(mod, platform)
        if worker:
            owner = Worker(0, exe, platform, numerics="full")
            ctx, vm = owner.ctx, owner.vm
        else:
            ctx = ExecutionContext(platform)
            vm = VirtualMachine(exe, ctx)
        vm.run(inputs[0])  # binds every free list, and fills them
        if worker:
            owner.reset()
        else:
            ctx.allocator.release_all()
            ctx.allocator.stats.reset()
        if rebuild:
            vm = VirtualMachine(exe, ctx)
        vm.profile.reset()
        vm.run(inputs[1])
        vm.run(inputs[1])
        stats = ctx.allocator.stats
        assert ctx.allocator.live_bytes == 0
        return (stats.fresh_allocs, stats.pooled_allocs, stats.frees, stats.peak_bytes,
                stats.alloc_time_us, vm.profile.alloc_time_us)

    @pytest.mark.parametrize("worker", [False, True], ids=["release_all", "worker_reset"])
    def test_a_vm_built_before_a_reset_allocates_as_one_built_after(self, worker):
        kept = self._second_run(worker, rebuild=False)
        assert kept == self._second_run(worker, rebuild=True)
        fresh, pooled = kept[:2]
        assert fresh > 0 and pooled > 0

    def test_wrappers_installed_after_a_vm_ran_see_every_launch_and_allocation(self, monkeypatch):
        """bench/trace.py wraps `KernelSet.run`, `PoolingAllocator.alloc`
        and `free` after the VMs exist: bound free lists and destination
        passing must still go through them, in loops as well."""
        from repro.codegen.kernels import KernelSet
        from repro.runtime.allocator import PoolingAllocator

        _, mod, platform, _, inputs = next(_fold_law_cases())
        exe, _ = nimble.build(mod, platform)
        ctx = ExecutionContext(platform, numerics="full")
        vm = VirtualMachine(exe, ctx)
        vm.run(inputs[0])
        patched = [(KernelSet, "invoke_cost"), (KernelSet, "run"),
                   (PoolingAllocator, "alloc"), (PoolingAllocator, "free")]
        seen = dict.fromkeys(patched, 0)

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for owner, attr in patched:
            monkeypatch.setattr(owner, attr, counting((owner, attr), getattr(owner, attr)))
        stats = ctx.allocator.stats
        allocs, frees, launches = stats.total_allocs, stats.frees, vm.profile.kernel_invocations
        vm.run(inputs[1])
        assert seen[PoolingAllocator, "alloc"] == stats.total_allocs - allocs > 0
        assert seen[PoolingAllocator, "free"] == stats.frees - frees == stats.total_allocs - allocs
        # Full numerics: every priced kernel runs, and every compute one is counted.
        assert seen[KernelSet, "run"] == seen[KernelSet, "invoke_cost"]
        assert seen[KernelSet, "run"] >= vm.profile.kernel_invocations - launches > 0


class TestProfileAllocTime:
    def test_two_vms_on_one_context_split_the_allocator_total(self):
        """Regression: each ALLOC_STORAGE used to *assign* the context's
        running total to the running VM's profile, so profiles sharing an
        allocator (a Worker's tiers) each held the sum over all of them."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        w = const(np.zeros((8, 8), np.float32))
        dense = IRModule.from_expr(Function([x], api.relu(api.dense(x, w))))
        y = Var("y", TensorType((Any(), 8), "float32"))
        chain = IRModule.from_expr(Function([y], api.tanh(api.sigmoid(api.dense(y, w)))))
        ctx = ExecutionContext(intel_cpu())
        a = VirtualMachine(nimble.build(dense, intel_cpu())[0], ctx)
        b = VirtualMachine(nimble.build(chain, intel_cpu())[0], ctx)
        for rows in (3, 9, 3, 17):
            a.run(np.zeros((rows, 8), np.float32))
            b.run(np.zeros((rows + 1, 8), np.float32))
        total = ctx.allocator.stats.alloc_time_us
        assert a.profile.alloc_time_us > 0 and b.profile.alloc_time_us > 0
        assert a.profile.alloc_time_us + b.profile.alloc_time_us == total
        assert a.profile.alloc_time_us != b.profile.alloc_time_us


class TestHostSyncWait:
    def test_a_device_to_host_copy_waits_for_the_kernels_remainder(self):
        """`VMProfile.host_sync_wait_us` is the host time `clock.sync`
        adds: the host enqueues a GPU kernel (it pays the launch only),
        then a GPU->CPU copy waits for what is left of it. The clock reads
        the same with the field as without."""
        platform = nvidia_gpu()
        device, host = platform.compute, platform.host
        x = Var("x", TensorType((4096,), "float32"))
        exe, _ = nimble.build(IRModule.from_expr(Function([x], api.tanh(x))), platform)
        packed = next(i for i in exe.functions[0].instructions
                      if i.opcode == ins.Opcode.INVOKE_PACKED)
        assert packed.device == device
        program = [
            ins.LoadConsti(4096 * 4, 1), ins.AllocStorage(1, 64, device, 2),
            ins.LoadConsti(0, 3), ins.AllocTensor(2, 3, (4096,), "float32", 4),
            ins.InvokePacked(packed.packed_index, (0,), (4,), device),
            ins.DeviceCopy(4, 5, device, host),
            ins.Ret(5),
        ]
        ctx = ExecutionContext(platform)
        vm = VirtualMachine(_assembled(platform, program, 6, [], exe.kernels, 1), ctx)
        clock = ctx.clock
        remainders, real = [], clock.sync

        def sync(dev):
            remainders.append(clock.device_ready(dev) - clock.host_us)
            real(dev)

        clock.sync = sync
        data = np.linspace(-1, 1, 4096, dtype=np.float32)
        out, latency = vm.run_with_latency(data)
        assert np.array_equal(out.numpy(), np.tanh(data)) and out.device == host
        (remainder,) = remainders
        assert 0 < remainder < vm.profile.kernel_time_us
        assert vm.profile.host_sync_wait_us == remainder
        # Host path + the wait is the whole latency: nothing is pending after.
        assert latency == clock.host_us == clock.elapsed_us
        # A host->GPU copy waits for nothing.
        program[5] = ins.DeviceCopy(4, 5, host, device)
        vm = VirtualMachine(_assembled(platform, program, 6, [], exe.kernels, 1),
                            ExecutionContext(platform))
        vm.run(data)
        assert vm.profile.host_sync_wait_us == 0.0 and vm.profile.copy_time_us > 0


def _parent_allocator(platform, clock):
    """`PoolingAllocator` with `alloc` / `free` / `_charge` / `_size_class`
    exactly as they stood before the charge was written out inline, and
    `release_all` as it stood before free lists could be held: the
    reference the shipped allocator must match number for number."""
    from repro.hardware import calibration
    from repro.runtime.allocator import PoolingAllocator
    from repro.tensor.storage import Storage

    def size_class(nbytes):
        size = 64
        while size < nbytes:
            size <<= 1
        return size

    class ParentAllocator(PoolingAllocator):
        def alloc(self, nbytes, alignment, device):
            size = size_class(max(1, int(nbytes)))
            pool = self._pools[device][size]
            if pool:
                storage = pool.pop()
                storage.freed = False
                self.stats.pooled_allocs += 1
                self._charge(calibration.ALLOC_POOLED_US[self.platform.name])
            else:
                storage = Storage(size, alignment, device)
                self.stats.fresh_allocs += 1
                self.stats.bytes_allocated += size
                self._charge(calibration.ALLOC_FRESH_US[self.platform.name])
            self._live_bytes += size
            self.stats.peak_bytes = max(self.stats.peak_bytes, self._live_bytes)
            return storage

        def free(self, storage):
            if storage.freed:
                return
            storage.free()
            self.stats.frees += 1
            self._live_bytes -= storage.size
            self._pools[storage.device][storage.size].append(storage)

        def _charge(self, us):
            self.stats.alloc_time_us += us
            if self.clock is not None:
                self.clock.host_advance(us)

        def release_all(self):
            self._pools.clear()

    return ParentAllocator(platform, clock)


class TestAllocatorAccounting:
    @settings(max_examples=120, deadline=None)
    @given(
        clocked=st.booleans(),
        ops=st.lists(st.one_of(
            st.tuples(st.just("alloc"), st.integers(-3, 5000), st.integers(0, 1), st.booleans()),
            st.tuples(st.just("alloc"), st.sampled_from([0, 1, 63, 64, 65, 4096, 1 << 20]),
                      st.integers(0, 1), st.booleans()),
            st.tuples(st.just("free"), st.integers(0, 40), st.booleans()),
            st.tuples(st.just("release")),
        ), max_size=60),
    )
    def test_stats_live_bytes_and_clock_match_the_parents_allocator(self, clocked, ops):
        """Calibration read once, the charge and the peak written out
        inline, a closed-form size class, free lists a caller holds:
        `AllocStats`, `live_bytes`, the size and device of every block
        and `clock.host_us` stay bit-equal to the allocator that looked
        the tables up and called `_charge` per allocation — across two
        devices, double frees, an allocator without a clock, and allocations through a free list bound before a
        `release_all`."""
        from dataclasses import asdict

        from repro.runtime.allocator import PoolingAllocator
        from repro.runtime.clock import VirtualClock

        platform = nvidia_gpu()
        devices = (platform.host, platform.compute)
        clocks = [VirtualClock() if clocked else None for _ in range(2)]
        for clock in filter(None, clocks):
            clock.host_advance(0.1)  # not a round number: additions must keep their order
        new = PoolingAllocator(platform, clocks[0])
        old = _parent_allocator(platform, clocks[1])
        blocks = []
        bound = {}  # (nbytes, device index) -> the free list bound at first use
        for op in ops:
            if op[0] == "alloc":
                _, nbytes, which, bind = op
                pool = None
                if bind:
                    pool = bound.setdefault((nbytes, which), new.free_list(nbytes, devices[which]))
                pair = (new.alloc(nbytes, 64, devices[which], pool),
                        old.alloc(nbytes, 64, devices[which]))
                assert (pair[0].size, pair[0].device, pair[0].freed) == (
                    pair[1].size, pair[1].device, pair[1].freed)
                blocks.append(pair)
            elif op[0] == "release":
                new.release_all()
                old.release_all()
            elif blocks:
                _, index, forget = op
                pair = blocks[index % len(blocks)]
                new.free(pair[0])
                old.free(pair[1])
                if forget:
                    blocks.remove(pair)  # else it may be freed again: a no-op
            assert asdict(new.stats) == asdict(old.stats)
            assert new.live_bytes == old.live_bytes
            if clocked:
                assert clocks[0].host_us == clocks[1].host_us
        if clocked:
            assert clocks[0].host_us - 0.1 == pytest.approx(new.stats.alloc_time_us)


class TestProfileResetMergeSymmetry:
    """merge/reset walk the dataclass fields, so every field — present
    and future — must survive the symmetry: populate, merge == manual
    sums, reset == pristine. A field either of them misses fails here."""

    @staticmethod
    def populated(scale=1):
        from collections import Counter
        from dataclasses import fields

        from repro.vm.profiler import VMProfile

        p = VMProfile()
        for i, f in enumerate(fields(p), start=1):
            value = getattr(p, f.name)
            if isinstance(value, Counter):
                value.update({f"k{i}": i * scale, i % 3: 2 * i * scale})
            elif isinstance(value, float):
                setattr(p, f.name, (i + 0.5) * scale)
            else:
                setattr(p, f.name, i * scale)
        return p

    def test_populator_touches_every_field(self):
        from dataclasses import fields

        p = self.populated()
        for f in fields(p):
            assert getattr(p, f.name), f"field {f.name} not populated"

    def test_merge_sums_every_field(self):
        from collections import Counter
        from dataclasses import fields

        a, b = self.populated(1), self.populated(10)
        expect = self.populated(11)  # populate is linear in scale
        a.merge(b)
        for f in fields(a):
            got, want = getattr(a, f.name), getattr(expect, f.name)
            if isinstance(got, Counter):
                assert got == want, f.name
            else:
                assert got == pytest.approx(want), f.name

    def test_reset_zeroes_every_field(self):
        from dataclasses import fields

        from repro.vm.profiler import VMProfile

        p = self.populated()
        p.reset()
        assert p == VMProfile()
        for f in fields(p):
            assert not getattr(p, f.name), f"field {f.name} survived reset"

    def test_reset_does_not_alias_fresh_profiles(self):
        """reset() must clear Counters in place (merged references stay
        live) and never share state with a new profile."""
        from repro.vm.profiler import VMProfile

        p = self.populated()
        counts = p.instruction_counts
        p.reset()
        assert counts is p.instruction_counts  # cleared, not replaced
        p.instruction_counts["X"] += 1
        assert VMProfile().instruction_counts == {}

    def test_shape_func_invocations_reset_regression(self):
        from repro.vm.profiler import VMProfile

        p = VMProfile()
        p.record_shape_func(3.0)
        p.record_shape_func(4.0)
        assert p.shape_func_invocations == 2
        p.reset()
        assert p.shape_func_invocations == 0
        assert p.shape_func_time_us == 0.0

    def test_merge_then_reset_roundtrip(self):
        from repro.vm.profiler import VMProfile

        a = self.populated(3)
        b = VMProfile()
        b.merge(a)
        assert b == a
        a.reset()
        a.merge(b)
        assert a == b


class TestCompilerOptions:
    """A compile varies two things: the stream count and the verify gate.
    The codegen ablations (Figure 3, library selection, schedules) are
    ``KernelSet`` arguments the studies set directly; on the options they
    were a second route, and a wrong one — the shared kernel cache is
    keyed without them, so a warm cache handed back default kernels."""

    @pytest.mark.parametrize(
        ("name", "value"),
        [("tune", True), ("schedule", None), ("num_dispatch_kernels", 1),
         ("allow_library", False), ("tuning_trials", 8)],
    )
    def test_removed_codegen_knobs_are_refused(self, name, value):
        with pytest.raises(TypeError, match=name):
            nimble.CompilerOptions(**{name: value})

    def test_the_kernel_cache_builds_only_what_its_key_names(self):
        """The key is the prim and the platform, and that is everything a
        kernel is built from: the schedule a miss searches is a function
        of the prim, so a cache whose searches other builds filled makes
        the kernel a fresh one makes."""
        from repro.codegen.kernels import KernelCache, KernelSet, build_schedule, is_symbolic_prim

        platform, spec = intel_cpu(), intel_cpu().compute_spec
        warm = KernelCache()
        prims = []
        for units in (8, 16):
            mod = _dense_relu_module(units)
            for exe in (nimble.build(mod, platform, kernel_cache=warm)[0],
                        nimble.specialize(mod, platform, shapes=[(5, 8)], kernel_cache=warm)[0]):
                prims += [k.prim for k in exe.kernels if isinstance(k, KernelSet)]
        assert {is_symbolic_prim(prim) for prim in prims} == {True, False}
        for prim in prims:
            with pytest.raises(TypeError):
                warm.kernel(prim, platform, spec, allow_library=False)
            kernel = warm.kernel(prim, platform, spec)
            fresh = KernelCache().kernel(prim, platform, spec)
            built = KernelSet(prim, platform, spec, schedule=build_schedule(prim, {}))
            for knob in ("schedule", "symbolic", "num_dispatch_kernels", "allow_library"):
                assert getattr(kernel, knob) == getattr(fresh, knob) == getattr(built, knob), knob


def _pair(rows_a, rows_b):
    """A tuple-typed entry argument of two (rows, 4) tensors."""
    return ADTObj(ADTObj.TUPLE_TAG, [TensorObj(array(np.ones((rows, 4), np.float32)))
                                     for rows in (rows_a, rows_b)])


def _contract(markers, batch=None):
    return Executable("intel_cpu", [], {}, [], [], specialized_shapes=markers,
                      specialized_batch=batch).entry_contract


# (what, specialized_shapes, specialized_batch, the one input, accepted)
ENTRY_ROWS = [
    ("the exact shape", ((4, 8),), None, np.zeros((4, 8)), True),
    ("rank mismatch", ((4, 8),), None, np.zeros((4, 8, 1)), False),
    ("static-dim mismatch", ((4, 8),), None, np.zeros((4, 9)), False),
    ("an Any dim takes one extent", ((None, 8),), None, np.zeros((1, 8)), True),
    ("an Any dim takes another", ((None, 8),), None, np.zeros((37, 8)), True),
    ("an Any dim does not free the next", ((None, 8),), None, np.zeros((37, 9)), False),
    ("tuple: right count", (((2, 4), (3, 4)),), None, _pair(2, 3), True),
    ("tuple: a Python tuple, which the VM cannot take", (((2, 4), (3, 4)),), None,
     (np.zeros((2, 4)), np.zeros((3, 4))), False),
    ("tuple: wrong count", (((2, 4), (3, 4)),), None,
     ADTObj(ADTObj.TUPLE_TAG, [TensorObj(array(np.ones((2, 4), np.float32)))]), False),
    ("tuple: wrong inner dim", (((2, 4), (3, 4)),), None, _pair(2, 2), False),
    ("tuple: a tensor where a tuple goes", (((2, 4), (3, 4)),), None, np.zeros((2, 4)), False),
    ("stacked batch", ((5, 8),), 2, np.zeros((10, 8)), True),
    ("stacked batch: one member", ((5, 8),), 2, np.zeros((5, 8)), False),
    ("stacked batch: a member too many", ((5, 8),), 2, np.zeros((15, 8)), False),
    ("batched tuple: stacked fields", (((2, 4), (3, 4)),), 3, _pair(6, 9), True),
    ("batched tuple: member fields", (((2, 4), (3, 4)),), 3, _pair(2, 3), False),
    ("Python float, rank 0", ((),), None, 3.0, True),
    ("Python int, rank 0", ((),), None, 7, True),
    ("NumPy scalar, rank 0", ((),), None, np.float32(1.5), True),
    ("Python scalar, rank 1", ((1,),), None, 3.0, False),
    ("opaque object", ((4, 8),), None, object(), False),
    ("opaque object, Any dims", ((None, None),), None, object(), False),
    ("an ADT parameter takes anything", (None,), None, object(), True),
    ("a dynamic build takes anything", None, None, object(), True),
]


class TestEntryContract:
    """One function decides whether inputs may run an executable:
    `entry_mismatch` over the contract its specialization derives."""

    @pytest.mark.parametrize("what, markers, batch, value, accepted", ENTRY_ROWS,
                             ids=[row[0] for row in ENTRY_ROWS])
    def test_table(self, what, markers, batch, value, accepted):
        mismatch = entry_mismatch(_contract(markers, batch), (value,))
        assert (mismatch is None) == accepted, mismatch
        assert mismatch is None or mismatch.startswith("guard: param 0")

    def test_the_contract_is_derived(self):
        assert _contract(((None, 8), ((2, 4), (3,)), None, ())) == \
            ((None, 8), ((2, 4), (3,)), None, ())
        # Stacked: each leaf's leading dim, never a rank-0 leaf.
        assert _contract(((5, 8), ((2, 4), ())), 3) == ((15, 8), ((6, 4), ()))
        assert _contract(None) is None
        assert not Executable("intel_cpu", [], {}, [], [], specialized_shapes=((4, 8),),
                              specialized_batch=2).is_partial
        # A batched partial variant is refused at build and flagged by
        # `check_guard` on a blob; deriving its contract must not raise.
        claims = Executable("intel_cpu", [], {}, [], [], specialized_shapes=((None, 8),),
                            specialized_batch=2)
        assert claims.entry_contract == ((None, 8),) and claims.is_partial
        assert [f.checker for f in check_guard(claims)] == ["guard"]

    def test_the_count_of_inputs_is_checked(self):
        contract = _contract(((4,), (4,)))
        assert "1 inputs" in entry_mismatch(contract, (np.zeros(4),))
        assert entry_mismatch(contract, (np.zeros(4), np.zeros(4))) is None

    def test_a_batched_tuple_parameter_is_checked_on_the_vm(self):
        """`SpecializeBatch` stacks tuple-typed parameters: a run of the
        member shapes is refused before anything runs."""
        a = Any()
        t = Var("t", TupleType([TensorType((a, 4), "float32"), TensorType((a, 4), "float32")]))
        mod = IRModule.from_expr(
            Function([t], api.add(TupleGetItem(t, 0), TupleGetItem(t, 1))))
        exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[((3, 4), (3, 4))], batch=2)
        assert exe.entry_contract == (((6, 4), (6, 4)),)
        ctx = ExecutionContext(intel_cpu())
        vm = VirtualMachine(exe, ctx)
        with pytest.raises(ShapeGuardError, match=r"param 0\.0 dim 0 is 3"):
            vm.run(_pair(3, 3))
        assert vm.profile.runs == 0 and ctx.allocator.stats.total_allocs == 0
        assert vm.run(_pair(6, 6)).shape == (6, 4)
