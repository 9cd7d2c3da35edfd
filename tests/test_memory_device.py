"""Manifest allocation, memory planning (§4.3), device placement (§4.4)."""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nimble as nimble
from repro.analysis import verify_executable
from repro.core.device import DevicePlace
from repro.core.memory import ManifestAlloc, MemoryPlan
from repro.core.memory.liveness import AliasLiveness
from repro.core.typing import infer_types
from repro.errors import ShapeError
from repro.hardware import intel_cpu, nvidia_gpu
from repro.ir import (
    Any,
    Call,
    Function,
    If,
    IRModule,
    Let,
    Op,
    ScopeBuilder,
    TensorType,
    Tuple,
    TupleGetItem,
    Var,
    const,
    iter_nodes,
    pretty_module,
)
from repro.models import build_gram_module
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.ops import api
from repro.ops.dynamic import _nms_reference
from repro.passes import DeadCodeElimination, FuseOps, Sequential, ToANF
from repro.runtime.context import ExecutionContext
from repro.tensor.device import cpu, gpu
from repro.utils.union_find import UnionFind
from repro.vm import instruction as ins
from repro.vm.executable import Executable
from repro.vm.interpreter import VirtualMachine


def _lower(func, plan=True, platform=None):
    platform = platform or intel_cpu()
    # Same order as nimble.build: placement before planning.
    passes = [ToANF(), FuseOps(), ManifestAlloc(), DevicePlace(platform.host, platform.compute)]
    if plan:
        passes.append(MemoryPlan())
    mod = infer_types(IRModule.from_expr(func))
    return Sequential(passes).run(mod)


def _op_calls(func, name):
    out = []
    for node in iter_nodes(func.body):
        if isinstance(node, Call) and isinstance(node.op, Op) and node.op.name == name:
            out.append(node)
    return out


class TestManifestAlloc:
    def test_static_call_gets_explicit_allocation(self):
        x = Var("x", TensorType((4, 8)))
        w = Var("w", TensorType((8, 8)))
        mod = _lower(Function([x, w], api.dense(x, w)), plan=False)
        main = mod.main
        assert len(_op_calls(main, "memory.alloc_storage")) == 1
        assert len(_op_calls(main, "memory.alloc_tensor")) == 1
        assert len(_op_calls(main, "vm.invoke_mut")) == 1
        # Static shapes: no shape functions needed.
        assert len(_op_calls(main, "vm.shape_of")) == 0

    def test_dynamic_call_gets_shape_function(self):
        """The paper's §4.3 dynamic-concat lowering: shape_of on each input,
        a shape-function invocation, size computation, then the kernel."""
        x = Var("x", TensorType((Any(), 2), "float32"))
        y = Var("y", TensorType((1, 2), "float32"))
        mod = _lower(Function([x, y], api.concatenate([x, y], axis=0)), plan=False)
        main = mod.main
        assert len(_op_calls(main, "vm.shape_of")) == 2
        invokes = _op_calls(main, "vm.invoke_mut")
        kinds = sorted(c.attrs.get("kind", "compute") for c in invokes)
        assert kinds == ["compute", "host_scalar", "shape_func"]

    def test_data_dependent_op_receives_values(self):
        x = Var("x", TensorType((6,), "float32"))
        mod = _lower(Function([x], api.unique(x)), plan=False)
        main = mod.main
        # Data-dependent: shape function consumes the value, not shape_of.
        sf = [c for c in _op_calls(main, "vm.invoke_mut") if c.attrs.get("kind") == "shape_func"]
        assert len(sf) == 1
        assert len(_op_calls(main, "vm.shape_of")) == 0

    def test_upper_bound_op_gets_slice(self):
        boxes = Var("b", TensorType((8, 4), "float32"))
        scores = Var("s", TensorType((8,), "float32"))
        mod = _lower(
            Function([boxes, scores], api.non_max_suppression(boxes, scores)), plan=False
        )
        main = mod.main
        slices = _op_calls(main, "vm.slice_upper_bound")
        assert len(slices) == 1


def _kinds(func):
    """How many `vm.invoke_mut` of each kind *func* holds, branches included."""
    kinds = [c.attrs.get("kind", "compute") for c in _op_calls(func, "vm.invoke_mut")]
    return {k: kinds.count(k) for k in set(kinds)}


def _weight(units, width=8):
    return const(np.full((units, width), 0.1, np.float32))


def _toy_bert():
    return build_bert_module(BertWeights.create(
        BertConfig(hidden=24, num_heads=3, num_layers=3, ffn=48), seed=0))


def _two_layer_mlp():
    rng = np.random.RandomState(0)
    w1 = const((rng.randn(16, 8) * 0.1).astype(np.float32))
    w2 = const((rng.randn(8, 16) * 0.1).astype(np.float32))
    x = Var("x", TensorType((Any(), 8), "float32"))
    return IRModule.from_expr(Function([x], api.dense(api.relu(api.dense(x, w1)), w2)))


# sha256 over the outputs of the three models at 1, 5 and 9 rows
# (`RandomState(rows).randn`), read on the commit before shape classes
# on intel_cpu and on nvidia_gpu with 1, 2 and 4 streams — all equal.
_PARENT_COMMIT_OUTPUTS = {
    "bert3": "f937708df00795671669c06b7716090a1a6244469e18dbbf5fffd9c752a86533",
    "gram": "b6e29c96376fbd4639723052ebcc850e7eab28bbce8bdc5e8b38e4a6ae678a28",
    "mlp": "cd7c0dd15d877b857cd9379439c6c8152b78b887cb96c980321b5e0558f08b63",
}


def _run(mod, *inputs, platform=None, streams=1):
    platform = platform or intel_cpu()
    exe, _ = nimble.build(mod, platform, options=nimble.CompilerOptions(device_streams=streams))
    assert [f for f in verify_executable(exe) if f.severity == "error"] == []
    ctx = ExecutionContext(platform)
    out = VirtualMachine(exe, ctx).run(*inputs)
    assert ctx.allocator.live_bytes == 0
    return exe, out


class TestShapeClasses:
    """A symbolic shape is a value computed once: one shape function per
    shape class (the output type's dims, each `Any` replaced by its
    token) and scope chain, one `vm.storage_size` per symbolic byte size."""

    def test_distinct_tokens_share_no_class(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        y = Var("y", TensorType((Any(), 8), "float32"))
        main = _lower(Function([x, y], api.add(x, y)), plan=False).main
        assert _kinds(main) == {"shape_func": 1, "host_scalar": 1, "compute": 1}
        assert len(_op_calls(main, "vm.shape_of")) == 2
        # ... and the shape function still is the runtime check.
        mod = IRModule.from_expr(Function([x, y], api.add(x, y)))
        _, out = _run(mod, np.ones((1, 8), np.float32), np.ones((3, 8), np.float32))
        assert out.numpy().shape == (3, 8)
        with pytest.raises(ShapeError, match="broadcast"):
            _run(mod, np.ones((2, 8), np.float32), np.ones((3, 8), np.float32))

    def test_the_class_of_an_argument_needs_one_shape_of_and_no_shape_function(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        y = Var("y", TensorType(x.type_annotation.shape, "float32"))  # same token
        body = api.dense(api.add(x, y), _weight(8))  # two kernels, both (?a, 8)
        main = _lower(Function([x, y], body), plan=False).main
        assert _kinds(main) == {"host_scalar": 1, "compute": 2}
        assert len(_op_calls(main, "vm.shape_of")) == 1
        assert len(_op_calls(main, "memory.alloc_storage")) == 3  # one size scalar, two tensors

    def test_an_argument_dim_the_output_lacks_keeps_the_shape_function(self):
        """dense(x: (?a, ?k), w: (8, 8)) -> (?a, 8): nothing else checks k == 8."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        rows = x.type_annotation.shape[0]
        y = Var("y", TensorType((rows, Any()), "float32"))
        body = Tuple([api.relu(x), api.dense(y, _weight(8))])
        main = _lower(Function([x, y], body), plan=False).main
        assert _kinds(main)["shape_func"] == 1
        mod = IRModule.from_expr(Function([x, y], body))
        with pytest.raises(ShapeError, match="dense"):
            _run(mod, np.ones((2, 8), np.float32), np.ones((2, 7), np.float32))

    def test_concatenate_and_a_new_width_run_one_shape_function_each(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        sb = ScopeBuilder()
        cat = sb.let("cat", api.concatenate([x, x], axis=0))  # (?c, 8): a fresh dim
        same = sb.let("same", api.dense(cat, _weight(8)))  # (?c, 8) again
        wide = sb.let("wide", api.dense(same, _weight(16)))  # (?c, 16): new
        wide2 = sb.let("wide2", api.dense(same, _weight(16)))  # ... and again
        func = Function([x], sb.get(Tuple([wide, wide2])))
        main = _lower(func, plan=False).main
        assert _kinds(main) == {"shape_func": 2, "host_scalar": 2, "compute": 4}
        _, out = _run(IRModule.from_expr(func), np.ones((3, 8), np.float32))
        assert [f.numpy().shape for f in out] == [(6, 16), (6, 16)]

    def test_a_class_made_inside_a_branch_dies_with_it(self):
        x = Var("x", TensorType((Any(), 8), "float32"))
        c = Var("c", TensorType((), "bool"))

        def func(before):
            sb = ScopeBuilder()
            if before:
                sb.let("outer", api.dense(x, _weight(16)))
            picked = sb.let("picked", If(c, api.dense(x, _weight(16)), api.dense(x, _weight(16))))
            after = sb.let("after", api.dense(x, _weight(16)))
            return Function([x, c], sb.get(Tuple([picked, after])))

        # Made in each branch, made again after the `if`...
        assert _kinds(_lower(func(before=False), plan=False).main)["shape_func"] == 3
        # ... but one made before it serves both branches and what follows.
        assert _kinds(_lower(func(before=True), plan=False).main)["shape_func"] == 1
        for before in (False, True):
            _, out = _run(IRModule.from_expr(func(before)), np.ones((5, 8), np.float32),
                          np.array(True))
            assert [f.numpy().shape for f in out] == [(5, 16), (5, 16)]

    def test_data_dependent_and_upper_bound_ops_run_theirs_every_time(self):
        x = Var("x", TensorType((Any(),), "float32"))
        twice = Function([x], Tuple([api.nonzero(x), api.nonzero(x)]))
        # CSE is not in `_lower`: the two calls stay two kernels.
        assert _kinds(_lower(twice, plan=False).main)["shape_func"] == 2
        boxes = Var("b", TensorType((Any(), 4), "float32"))
        scores = Var("s", TensorType((boxes.type_annotation.shape[0],), "float32"))
        sb = ScopeBuilder()
        keep = sb.let("keep", api.non_max_suppression(boxes, scores))
        keep2 = sb.let("keep2", api.non_max_suppression(boxes, scores, iou_threshold=0.9))
        nms = Function([boxes, scores], sb.get(Tuple([keep, keep2])))
        # The padded buffer and the sliced result have one type and two
        # sizes: an upper-bound op shares no `vm.storage_size` either.
        assert _kinds(_lower(nms, plan=False).main) == {
            "shape_func": 2, "host_scalar": 4, "compute": 4}
        rng = np.random.RandomState(0)
        corners = rng.rand(9, 2).astype(np.float32)
        b = np.concatenate([corners, corners + 0.5], axis=1)
        sc = rng.rand(9).astype(np.float32)
        _, out = _run(IRModule.from_expr(nms), b, sc)
        for got, iou in zip(out, (0.5, 0.9)):
            assert got.numpy().tolist() == _nms_reference(b, sc, iou).tolist()

    def test_a_callee_s_token_names_no_value_of_the_caller(self):
        """`@f`'s return type carries `@f`'s own token at every call site:
        two results of different lengths must not share a class."""
        mod = IRModule()
        f = mod.get_global_var("f")
        p = Var("p", TensorType((Any(), 8), "float32"))
        mod[f] = Function([p], api.relu(p))
        y = Var("y", TensorType((Any(), 8), "float32"))
        z = Var("z", TensorType((Any(), 8), "float32"))
        sb = ScopeBuilder()
        r1, r2 = sb.let("r1", Call(f, [y])), sb.let("r2", Call(f, [z]))
        d1 = sb.let("d1", api.dense(r1, _weight(8)))
        d2 = sb.let("d2", api.dense(r2, _weight(8)))
        mod["main"] = Function([y, z], sb.get(Tuple([d1, d2])))
        _, out = _run(mod, np.ones((3, 8), np.float32), np.ones((5, 8), np.float32))
        assert [f.numpy().shape for f in out] == [(3, 8), (5, 8)]

    @pytest.mark.parametrize("model", ["bert3", "gram", "mlp"])
    def test_outputs_are_the_parent_commit_s_on_every_platform(self, model):
        make, width = {"bert3": (_toy_bert, 24), "gram": (build_gram_module, 6),
                       "mlp": (_two_layer_mlp, 8)}[model]
        for platform, streams in [(intel_cpu(), 1)] + [(nvidia_gpu(), s) for s in (1, 2, 4)]:
            digest = hashlib.sha256()
            exe = None
            for rows in (1, 5, 9):
                x = np.random.RandomState(rows).randn(rows, width).astype(np.float32)
                exe, out = _run(make(), x, platform=platform, streams=streams)
                loaded = VirtualMachine(Executable.load(exe.save()), ExecutionContext(platform))
                assert loaded.run(x).numpy().tobytes() == out.numpy().tobytes()
                digest.update(out.numpy().tobytes())
            assert digest.hexdigest() == _PARENT_COMMIT_OUTPUTS[model]
            calls = [i for f in exe.functions for i in f.instructions
                     if i.opcode == ins.Opcode.INVOKE_PACKED]
            assert sum(i.kind == "shape_func" for i in calls) <= {"bert3": 4, "gram": 1, "mlp": 1}[model]

    def test_bench_size_bert_runs_one_shape_function_per_symbolic_shape(self, capsys):
        """The 256-wide, 6-layer dynamic BERT of `bench/`, length 20, warm
        pool. Before shape classes: 90 shape functions, 90 size kernels,
        216 ShapeOf, 92 AllocStorage, 2,221 instructions, 1,096.5 us on
        intel_cpu and 871.7 us on nvidia_gpu with four streams. Compute
        launches went 90 -> 66 and GEMM launches 48 -> 36 when Q/K/V
        became one GEMM and the head split one kernel per layer (CPU
        only). CI's "Size trajectory" step prints the line."""
        mod = build_bert_module(BertWeights.create(
            BertConfig(hidden=256, num_heads=4, num_layers=6, ffn=1024), seed=0))
        x = np.random.RandomState(0).randn(20, 256).astype(np.float32)

        def warmed(platform, streams):
            exe, _ = nimble.build(
                mod, platform, options=nimble.CompilerOptions(device_streams=streams))
            vm = VirtualMachine(exe, ExecutionContext(platform))
            vm.run(x)
            vm.profile.reset()
            return exe, vm, vm.run_with_latency(x)[1]

        exe, vm, cpu_us = warmed(intel_cpu(), 1)
        counts = vm.profile.instruction_counts
        packed = [i for i in exe.functions[0].instructions
                  if i.opcode == ins.Opcode.INVOKE_PACKED]
        shape_funcs = sum(i.kind == "shape_func" for i in packed)
        size_kernels = sum(i.kind == "host_scalar" for i in packed)
        dynamic_allocs = counts["ALLOC_STORAGE"] - counts["ALLOC_TENSOR"]
        with capsys.disabled():
            print(f"\ndynamic BERT per inference on intel_cpu: {shape_funcs} shape functions, "
                  f"{counts['SHAPE_OF']} ShapeOf, {dynamic_allocs} dynamic AllocStorage, "
                  f"{sum(counts.values())} instructions, {vm.profile.kernel_invocations} compute "
                  f"launches, {vm.profile.gemm_invocations()} GEMM launches, {cpu_us:.1f} us")
        assert shape_funcs <= 6 and size_kernels <= 6
        assert counts["ALLOC_STORAGE"] <= 20 and sum(counts.values()) <= 900
        assert vm.profile.kernel_invocations == 66  # the compute kernels: none added, none lost
        assert cpu_us <= 0.5 * 1096.5
        assert warmed(nvidia_gpu(), 4)[2] <= 600.0

    def test_rebinding_a_dynamic_alloc_keeps_its_size_use(self):
        """`rebind_as_moves` on a dynamic `alloc_storage` keeps the use
        of the size variable: it lives to the rebound site, the
        conservative direction; `allocs_after` counts the reuse and the
        static byte totals do not move."""
        x = Var("x", TensorType((Any(), 8), "float32"))
        body = x
        for _ in range(4):
            body = api.dense(body, _weight(8))
        plan = MemoryPlan()
        p = intel_cpu()
        lowered = Sequential(
            [ToANF(), FuseOps(), ManifestAlloc(), DevicePlace(p.host, p.compute)]
        ).run(infer_types(IRModule.from_expr(Function([x], body))))
        live = AliasLiveness(lowered.main.body)
        dynamic = [i for i, (_, v) in enumerate(live.bindings)
                   if isinstance(v, Call) and getattr(v.op, "name", "") == "memory.alloc_storage"
                   and not v.attrs["static"]]
        assert len(dynamic) == 4
        (size,) = {live.bindings[i][1].args[0] for i in dynamic}  # one size variable
        first, last = dynamic[0], dynamic[-1]
        before = live.group_interval(size)
        live.rebind_as_moves({last: live.bindings[first][0]})
        assert live.bindings[last][1] is live.bindings[first][0]
        assert live.group_interval(size) == before and before[1] >= last
        plan.run(lowered)
        report = plan.report
        # Tensor k+2 takes tensor k's storage: 1 size scalar + 2 regions.
        assert (report.allocs_before, report.allocs_after) == (5, 3)
        assert report.static_bytes_before == report.static_bytes_after == 64


class TestMemoryPlan:
    def _bert_like(self, n_layers=4):
        """A chain of denses: successive temporaries have disjoint lives."""
        x = Var("x", TensorType((8, 16)))
        cur = x
        params = [x]
        import numpy as np
        from repro.ir import const

        for i in range(n_layers):
            w = const(np.zeros((16, 16), np.float32))
            cur = api.relu(api.dense(cur, w))
        return Function(params, cur)

    def test_coalescing_reduces_allocations(self):
        plan_pass = MemoryPlan()
        mod = infer_types(IRModule.from_expr(self._bert_like()))
        mod = Sequential([ToANF(), FuseOps(), ManifestAlloc(), plan_pass]).run(mod)
        report = plan_pass.report
        assert report.allocs_before > report.allocs_after
        assert report.alloc_reduction > 0.3

    def test_kills_inserted(self):
        plan_pass = MemoryPlan()
        mod = infer_types(IRModule.from_expr(self._bert_like()))
        mod = Sequential([ToANF(), FuseOps(), ManifestAlloc(), plan_pass]).run(mod)
        assert plan_pass.report.kills_inserted > 0
        assert len(_op_calls(mod.main, "memory.kill")) == plan_pass.report.kills_inserted

    def test_result_buffer_never_killed(self):
        plan_pass = MemoryPlan()
        mod = infer_types(IRModule.from_expr(self._bert_like()))
        mod = Sequential([ToANF(), FuseOps(), ManifestAlloc(), plan_pass]).run(mod)
        # Execute and verify the result buffer is intact (the VM would
        # raise use-after-free otherwise).
        from repro.vm.compiler import VMCompiler
        from repro.vm.interpreter import VirtualMachine

        exe = VMCompiler(intel_cpu()).compile(mod)
        vm = VirtualMachine(exe)
        out = vm.run(np.random.randn(8, 16).astype(np.float32))
        assert out.shape == (8, 16)

    def test_reuse_preserves_numerics(self):
        """The planner's non-overlap invariant: with and without planning,
        results are identical."""
        func = self._bert_like()
        x = np.random.RandomState(0).randn(8, 16).astype(np.float32)
        import repro.nimble as nimble

        results = []
        for plan in (False, True):
            exe, _ = nimble.build(IRModule.from_expr(func), intel_cpu(), plan_memory=plan)
            from repro.vm.interpreter import VirtualMachine

            results.append(VirtualMachine(exe).run(x).numpy())
        assert np.allclose(results[0], results[1])


@st.composite
def _op_chains(draw):
    """A random straight-line compute chain: each step applies a unary or
    binary elementwise op (or a dense) to previously-computed values."""
    n = draw(st.integers(min_value=3, max_value=10))
    steps = []
    for i in range(n):
        kind = draw(st.sampled_from(["relu", "tanh", "sigmoid", "dense", "add", "multiply"]))
        a = draw(st.integers(min_value=0, max_value=i))
        b = draw(st.integers(min_value=0, max_value=i)) if kind in ("add", "multiply") else None
        steps.append((kind, a, b))
    return steps


class TestPlannerProperty:
    """§4.3 soundness, property-based: whatever the liveness intervals, the
    planner never multiplexes two overlapping-lifetime buffers onto one
    storage slot — checked structurally on the planned IR and end-to-end on
    the numerics."""

    SHAPE = (8, 16)

    def _build(self, steps):
        from repro.ir import const

        rng = np.random.RandomState(0)
        w = const(rng.randn(self.SHAPE[1], self.SHAPE[1]).astype(np.float32) * 0.1)
        x = Var("x", TensorType(self.SHAPE, "float32"))
        vals = [x]
        for kind, a, b in steps:
            if kind == "dense":
                vals.append(api.dense(vals[a], w))
            elif kind in ("add", "multiply"):
                vals.append(getattr(api, kind)(vals[a], vals[b]))
            else:
                vals.append(getattr(api, kind)(vals[a]))
        return Function([x], vals[-1])

    @staticmethod
    def _storage_conflicts(main):
        """Group planned tensors by storage root; return any pair carved
        from one slot whose [def, last-use] intervals overlap."""
        bindings = []
        node = main.body
        while isinstance(node, Let):
            bindings.append((node.var, node.value))
            node = node.body
        tail = node

        def op_name(value):
            if isinstance(value, Call) and isinstance(value.op, Op):
                return value.op.name
            return None

        # Resolve storage aliases (Let var = other_storage_var) to roots.
        roots = {}
        for var, value in bindings:
            if op_name(value) == "memory.alloc_storage":
                roots[var] = var
            elif isinstance(value, Var) and value in roots:
                roots[var] = roots[value]

        index = {}
        tensor_storage = {}
        for i, (var, value) in enumerate(bindings):
            index[var] = i
            if op_name(value) == "memory.alloc_tensor":
                storage = value.args[0]
                if isinstance(storage, Var) and storage in roots:
                    tensor_storage[var] = roots[storage]

        # Last *real* use of each var: kills are destructor markers, not reads.
        last_use = {}
        for i, (var, value) in enumerate(bindings):
            if op_name(value) == "memory.kill":
                continue
            for node in iter_nodes(value):
                if isinstance(node, Var):
                    last_use[node] = i
        for node in iter_nodes(tail):
            if isinstance(node, Var):
                last_use[node] = len(bindings)

        by_storage = {}
        for tensor, storage in tensor_storage.items():
            interval = (index[tensor], max(index[tensor], last_use.get(tensor, -1)))
            by_storage.setdefault(storage, []).append((tensor, interval))

        conflicts = []
        for storage, tensors in by_storage.items():
            tensors.sort(key=lambda entry: entry[1])
            for (t1, (s1, e1)), (t2, (s2, e2)) in zip(tensors, tensors[1:]):
                if s2 <= e1:
                    conflicts.append((storage, t1, (s1, e1), t2, (s2, e2)))
        return conflicts

    @given(steps=_op_chains())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_no_overlapping_lifetimes_share_a_slot(self, steps):
        func = self._build(steps)
        plan_pass = MemoryPlan()
        platform = intel_cpu()
        # Same order as nimble.build: placement before planning.
        mod = infer_types(IRModule.from_expr(func))
        mod = Sequential(
            [ToANF(), FuseOps(), ManifestAlloc(),
             DevicePlace(platform.host, platform.compute), plan_pass]
        ).run(mod)
        assert self._storage_conflicts(mod.main) == []

        # End-to-end: reuse must be invisible in the numerics.
        import repro.nimble as nimble
        from repro.vm.interpreter import VirtualMachine

        x = np.random.RandomState(1).randn(*self.SHAPE).astype(np.float32)
        outputs = []
        for plan in (False, True):
            exe, _ = nimble.build(IRModule.from_expr(func), platform, plan_memory=plan)
            outputs.append(VirtualMachine(exe).run(x).numpy())
        assert np.allclose(outputs[0], outputs[1], atol=1e-5)


# The three queries as they were before the group table: each scans every
# union-find key. Kept here as the reference the indexed ones are compared
# against (and, unlike them, they register a variable they are asked about).
def _scan_interval(live, var):
    rep = live.aliases.find(var)
    members = [m for m in live.aliases.keys() if live.aliases.find(m) == rep]
    start = min(live.index_of.get(m, 0) for m in members)
    end = max(max(live.last_use.get(m, -1), live.index_of.get(m, -1)) for m in members)
    return start, end


def _scan_escapes(live, var):
    rep = live.aliases.find(var)
    return any(
        m in live.escaping or m not in live.index_of
        for m in list(live.aliases.keys()) if live.aliases.find(m) == rep
    )


def _scan_members(live, var):
    rep = live.aliases.find(var)
    return [m for m in live.aliases.keys() if live.aliases.find(m) == rep]


def _assert_same_answers(live, universe):
    registered = len(live.aliases)
    for var in universe:
        if var in live.aliases:
            assert live.group_interval(var) == _scan_interval(live, var)
            assert live.group_escapes(var) == _scan_escapes(live, var)
            assert live.group_members(var) == _scan_members(live, var)
        else:
            # The scan would register `var` and answer for the group {var}.
            assert live.group_escapes(var) is True
            assert live.group_interval(var) == (0, live.last_use.get(var, -1))
            assert live.group_members(var) == []
    assert len(live.aliases) == registered


def _chain(bindings, tail):
    out = tail
    for var, value in reversed(bindings):
        out = Let(var, value, out)
    return out


def _unchain(scope):
    """(bindings, tail) of a Let chain: the inverse of `_chain`."""
    bindings = []
    while isinstance(scope, Let):
        bindings.append((scope.var, scope.value))
        scope = scope.body
    return bindings, scope


def _static_alloc(nbytes, device=None):
    attrs = {"alignment": 64, "static": True}
    if device is not None:
        attrs["device"] = device
    return Call(Op.get("memory.alloc_storage"), [const(np.int64(nbytes), dtype="int64")], attrs)


def _is_static_alloc(value):
    return isinstance(value, Call) and getattr(value.op, "name", None) == "memory.alloc_storage"


def _tensor_from(storage):
    return Call(Op.get("memory.alloc_tensor"), [storage, const(np.int64(0), dtype="int64")], {})


_SCOPE_KINDS = [
    "alloc", "tensor", "move", "tuple", "proj", "slice", "reshape", "op",
    "closure", "lambda", "call", "if", "const",
]


@st.composite
def _scopes(draw):
    """A random scope over every construct the liveness distinguishes:
    (bindings, tail, every variable worth asking about)."""
    free = [Var(f"p{i}") for i in range(3)]
    callee = Var("callee")
    stranger = Var("stranger")  # appears nowhere in the scope
    known = list(free)
    bindings = []

    def pick():
        return known[draw(st.integers(min_value=0, max_value=len(known) - 1))]

    for i in range(draw(st.integers(min_value=1, max_value=14))):
        kind = draw(st.sampled_from(_SCOPE_KINDS))
        if kind == "alloc":
            value = _static_alloc(64)
        elif kind == "tensor":
            value = _tensor_from(pick())
        elif kind == "move":
            value = pick()
        elif kind == "tuple":
            value = Tuple([pick(), pick()])
        elif kind == "proj":
            value = TupleGetItem(pick(), 0)
        elif kind == "slice":
            value = Call(Op.get("vm.slice_upper_bound"), [pick(), pick()], {})
        elif kind == "reshape":
            value = Call(Op.get("vm.reshape_tensor"), [pick(), pick()], {})
        elif kind == "op":
            value = api.add(pick(), pick())
        elif kind == "closure":
            value = Call(Op.get("vm.alloc_closure"), [pick(), pick()], {})
        elif kind == "lambda":
            param = Var("q")
            value = Function([param], api.add(param, pick()))
        elif kind == "call":
            value = Call(callee, [pick()], {})
        elif kind == "if":
            inner = Var("t")
            value = If(pick(), Let(inner, api.tanh(pick()), inner), pick())
        else:
            value = const(np.float32(i))
        var = Var(f"v{i}")
        bindings.append((var, value))
        known.append(var)
    tail = pick() if draw(st.booleans()) else Tuple([pick(), pick()])
    return bindings, tail, known + [callee, stranger]


class TestAliasLiveness:
    def test_move_aliases_share_group(self):
        x = Var("x", TensorType((2,)))
        a = Var("a")
        b = Var("b")
        chain = Let(a, api.tanh(x), Let(b, a, b))
        live = AliasLiveness(chain)
        assert live.aliases.same(a, b)

    def test_escaping_tail(self):
        x = Var("x", TensorType((2,)))
        a = Var("a")
        chain = Let(a, api.tanh(x), a)
        live = AliasLiveness(chain)
        assert live.group_escapes(a)

    def test_non_escaping_intermediate(self):
        x = Var("x", TensorType((2,)))
        a, b = Var("a"), Var("b")
        chain = Let(a, api.tanh(x), Let(b, api.exp(a), b))
        live = AliasLiveness(chain)
        assert not live.group_escapes(a)
        assert live.group_interval(a) == (0, 1)

    def test_queries_leave_the_analysis_unchanged(self):
        """A query on a variable the scope never bound or aliased answers
        "escapes", no members and [0, its last use] — the empty interval
        for one never seen at all — and registers nothing."""
        x = Var("x", TensorType((2,)))
        stranger = Var("stranger")
        a, b = Var("a"), Var("b")
        live = AliasLiveness(Let(a, api.tanh(x), Let(b, api.exp(a), b)))
        registered = len(live.aliases)
        for var, interval in ((x, (0, 0)), (stranger, (0, -1))):
            assert live.group_escapes(var) is True
            assert live.group_interval(var) == interval
            assert live.group_members(var) == []
        assert len(live.aliases) == registered
        assert x not in live.aliases and stranger not in live.aliases

    @given(scope=_scopes(), data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_group_table_answers_what_the_full_scans_answered(self, scope, data):
        bindings, tail, universe = scope
        live = AliasLiveness(_chain(bindings, tail))
        _assert_same_answers(live, universe)

        # Coalescing's rewrite: some static allocations become moves of an
        # earlier storage. The one liveness, updated in place, must hold
        # what a fresh analysis of the rewritten chain holds.
        storages = [i for i, (_, v) in enumerate(bindings) if _is_static_alloc(v)]
        moves = {}
        for i in storages[1:]:
            if data.draw(st.booleans()):
                earlier = [k for k in storages if k < i]
                moves[i] = bindings[data.draw(st.sampled_from(earlier))][0]
        live.rebind_as_moves(moves)
        rewritten = [(var, moves.get(i, value)) for i, (var, value) in enumerate(bindings)]
        assert live.bindings == rewritten
        fresh = AliasLiveness(_chain(rewritten, tail))
        _assert_same_answers(live, universe)
        for var in universe:
            assert live.group_interval(var) == fresh.group_interval(var)
            assert live.group_escapes(var) == fresh.group_escapes(var)
            assert live.group_members(var) == fresh.group_members(var)


class TestDevicePlacement:
    def _lower_gpu(self, func, **kw):
        return _lower(func, platform=nvidia_gpu(), **kw)

    def test_cpu_platform_no_copies(self):
        x = Var("x", TensorType((Any(), 2), "float32"))
        y = Var("y", TensorType((1, 2), "float32"))
        place = DevicePlace(cpu(0), cpu(0))
        mod = infer_types(IRModule.from_expr(Function([x, y], api.concatenate([x, y], axis=0))))
        mod = Sequential([ToANF(), FuseOps(), ManifestAlloc(), place]).run(mod)
        assert place.report.copies_inserted == 0

    def test_gpu_kernels_on_device_shape_funcs_on_host(self):
        x = Var("x", TensorType((Any(), 2), "float32"))
        y = Var("y", TensorType((1, 2), "float32"))
        mod = self._lower_gpu(Function([x, y], api.concatenate([x, y], axis=0)), plan=False)
        invokes = _op_calls(mod.main, "vm.invoke_mut")
        for call in invokes:
            kind = call.attrs.get("kind", "compute")
            device = call.attrs.get("device")
            if kind == "compute":
                assert device.is_gpu
            else:
                assert device.is_cpu

    def test_alloc_storage_gets_device_attr(self):
        x = Var("x", TensorType((4, 8), "float32"))
        w = Var("w", TensorType((8, 8), "float32"))
        mod = self._lower_gpu(Function([x, w], api.dense(x, w)))
        allocs = _op_calls(mod.main, "memory.alloc_storage")
        assert all("device" in a.attrs for a in allocs)
        assert any(a.attrs["device"].is_gpu for a in allocs)

    def test_data_dependent_shape_func_forces_copy(self):
        """unique's shape function needs the VALUE on the host: on a GPU
        platform a device_copy must appear (§4.4)."""
        x = Var("x", TensorType((6,), "float32"))
        func = Function([x], api.unique(api.tanh(x)))
        mod = self._lower_gpu(func, plan=False)
        copies = _op_calls(mod.main, "device.device_copy")
        assert len(copies) >= 1

    def test_scalar_kernels_go_to_host(self):
        i = Var("i", TensorType((), "int64"))
        n = Var("n", TensorType((), "int64"))
        func = Function([i, n], api.less(i, n))
        mod = self._lower_gpu(func)
        invokes = _op_calls(mod.main, "vm.invoke_mut")
        assert all(c.attrs["device"].is_cpu for c in invokes)


    # -- module-wide domains: hand-built two-function modules on nvidia_gpu --

    SCALAR = TensorType((), "int64")

    @staticmethod
    def _place(mod, lift=False):
        """(placed module, PlacementReport) of a whole module on nvidia_gpu."""
        from repro.passes import LambdaLift

        platform = nvidia_gpu()
        place = DevicePlace(platform.host, platform.compute)
        passes = [ToANF()] + ([LambdaLift()] if lift else []) + [FuseOps(), ManifestAlloc(), place]
        return Sequential(passes).run(infer_types(mod)), place.report

    @staticmethod
    def _rows(x):
        """A host-produced scalar: x.shape[0], taken by a host kernel."""
        return api.take(api.shape_of(x), const(np.int64(0)), axis=None)

    def _caller_and_callee(self, callee_body):
        """main(x) = @f(x.shape[0], x) over f(s, y) = callee_body(s, y)."""
        mod = IRModule()
        f = mod.get_global_var("f")
        s, y = Var("s", self.SCALAR), Var("y", TensorType((Any(), 8), "float32"))
        mod[f] = Function([s, y], callee_body(s, y))
        x = Var("x", TensorType((Any(), 8), "float32"))
        mod["main"] = Function([x], Call(f, [self._rows(x), x]))
        return mod, f

    @staticmethod
    def _copy_devices(func):
        return [(c.attrs["src_device"], c.attrs["dst_device"])
                for c in _op_calls(func, "device.device_copy")]

    def test_host_scalar_argument_used_by_host_kernels_needs_no_copy(self):
        mod, _ = self._caller_and_callee(
            lambda s, y: Tuple([api.less(s, const(np.int64(3))), api.tanh(y)]))
        placed, report = self._place(mod)
        assert (report.host_to_device, report.device_to_host) == (0, 0)
        assert report.copies_inserted == 0 and report.device_kernels == 1
        assert not any(_op_calls(f, "device.device_copy") for f in placed.functions.values())

    def test_host_scalar_argument_used_by_a_device_kernel_is_copied_in_the_callee(self):
        mod, f = self._caller_and_callee(lambda s, y: api.take(y, s, axis=0))
        placed, report = self._place(mod)
        assert (report.host_to_device, report.device_to_host) == (1, 0)
        assert report.copies_inserted == 1
        assert self._copy_devices(placed[f]) == [(cpu(0), gpu(0))]
        assert self._copy_devices(placed.main) == []
        (take,) = _op_calls(placed[f], "vm.invoke_mut")
        assert take.attrs["device"].is_gpu
        assert take.args[1].fields[1].name_hint.startswith("dcopy")

    def test_a_tail_position_call_unifies_like_a_bound_one(self):
        mod, f = self._caller_and_callee(lambda s, y: api.take(y, s, axis=0))
        lowered = Sequential([ToANF(), FuseOps(), ManifestAlloc()]).run(infer_types(mod))
        bindings, tail = _unchain(lowered.main.body)
        bound, call = bindings.pop()
        assert bound is tail and call.op is f  # let %r = @f(...); %r  ->  @f(...)
        lowered[lowered.get_global_var("main")] = Function(
            lowered.main.params, _chain(bindings, call), lowered.main.ret_type)
        place = DevicePlace(cpu(0), gpu(0))
        placed = place.run(lowered)
        assert (place.report.host_to_device, place.report.device_to_host) == (1, 0)
        assert self._copy_devices(placed[f]) == [(cpu(0), gpu(0))]

    def test_call_sites_on_different_devices_copy_at_the_one_that_disagrees(self):
        """f's parameter lives where its first producer put it (the host);
        the second call site passes a device value and gets the copy —
        before, the mismatched argument was passed silently."""
        mod = IRModule()
        f = mod.get_global_var("f")
        s = Var("s", TensorType((), "float32"))
        mod[f] = Function([s], api.multiply(s, const(np.float32(2))))
        x = Var("x", TensorType((Any(), 8), "float32"))
        on_host = api.cast(self._rows(x), "float32")
        on_device = api.sum_(x)
        mod["main"] = Function([x], api.add(Call(f, [on_host]), Call(f, [on_device])))
        placed, report = self._place(mod)
        assert (report.host_to_device, report.device_to_host) == (0, 1)
        assert self._copy_devices(placed[f]) == []
        assert self._copy_devices(placed.main) == [(gpu(0), cpu(0))]
        first, second = [value for _, value in _unchain(placed.main.body)[0]
                         if isinstance(value, Call) and value.op is f]
        assert not first.args[0].name_hint.startswith("dcopy")
        assert second.args[0].name_hint.startswith("dcopy")

    def test_a_loop_passes_its_bound_straight_through_on_the_host(self):
        """loop(i, n, acc): n -> n through the recursive call, i fed by a
        host kernel: neither scalar ever crosses, acc stays on the device."""
        mod = IRModule()
        loop = mod.get_global_var("loop")
        state = TensorType((4, 8), "float32")
        i, n, acc = Var("i", self.SCALAR), Var("n", self.SCALAR), Var("acc", state)
        step = Call(loop, [api.add(i, const(np.int64(1))), n, api.tanh(acc)])
        mod[loop] = Function([i, n, acc], If(api.less(i, n), step, acc), state)
        x, y = Var("x", TensorType((Any(), 8), "float32")), Var("y", state)
        mod["main"] = Function([x, y], Call(loop, [const(np.int64(0)), self._rows(x), y]))
        placed, report = self._place(mod)
        assert report.copies_inserted == 0
        assert (report.host_kernels, report.device_kernels) == (3, 1)
        (less,) = [value for _, value in _unchain(placed[loop].body)[0]
                   if isinstance(value, Call) and value.op.name == "vm.invoke_mut"]
        assert less.attrs["device"].is_cpu
        assert [v.name_hint for v in less.args[1].fields] == ["i", "n"]

    def test_entry_scalar_parameters_stay_on_the_compute_device(self):
        i, n = Var("i", self.SCALAR), Var("n", self.SCALAR)
        _, report = self._place(IRModule.from_expr(Function([i, n], api.less(i, n))))
        assert (report.host_to_device, report.device_to_host) == (0, 2)

    @pytest.mark.parametrize("lift", [True, False], ids=["lifted", "literal"])
    def test_a_closures_parameters_stay_pinned(self, lift):
        """A closure is reached through InvokeClosure: its callers are not
        known statically, so its parameter is assumed on the compute
        device even when this caller passes a host scalar."""
        from repro.ir import ScopeBuilder

        x, z = Var("x", TensorType((Any(), 8), "float32")), Var("z", self.SCALAR)
        sb = ScopeBuilder()
        rows = sb.let("n", self._rows(x))
        closure = sb.let("clo", Function([z], api.add(z, const(np.int64(1))), self.SCALAR))
        out = sb.let("out", Call(closure, [rows]))
        placed, report = self._place(IRModule.from_expr(Function([x], sb.get(out))), lift=lift)
        assert (report.host_to_device, report.device_to_host) == (0, 1)
        copies = [c for f in placed.functions.values() for c in self._copy_devices(f)]
        assert copies == [(gpu(0), cpu(0))]
        assert self._copy_devices(placed.main) == ([] if lift else copies)

    def test_the_lstm_copies_the_step_index_and_nothing_else(self):
        """§4.4 on the loop: t, n and the condition never leave the host;
        take(x, t) gets the one real copy (3 device->host before)."""
        import repro.nimble as nimble
        from repro.models.bert import BertConfig, BertWeights, build_bert_module

        lstm = TestNoPhantomCopies._lstm()
        for compile_ in (
            lambda: nimble.build(lstm, nvidia_gpu()),
            lambda: nimble.specialize(lstm, nvidia_gpu(), shapes=[(7, 12)]),
            lambda: nimble.specialize(lstm, nvidia_gpu(), shapes=[(7, 12)], batch=4),
        ):
            placement = compile_()[1].placement
            assert placement.copies_inserted == 1
            assert (placement.host_to_device, placement.device_to_host) == (1, 0)
        bert = build_bert_module(BertWeights.create(
            BertConfig(hidden=24, num_heads=3, num_layers=1, ffn=48), seed=0))
        assert nimble.build(bert, nvidia_gpu())[1].placement.copies_inserted == 0


class TestNoPhantomCopies:
    """Every DeviceCopy a placed model executes on nvidia_gpu moves a
    tensor that lives where the instruction says it does. Before
    placement crossed function boundaries the LSTM loop assumed t and n
    on the GPU: 3L + 2 copies per length-L run, all GPU->CPU, every one a
    phantom (`to_device` returned the source) that had already drained
    the device and paid the link."""

    @pytest.fixture
    def copies(self, monkeypatch):
        """(src_device, dst_device, where the source really was) of each
        DeviceCopy executed, in order: the generator emits a call to a
        recorder ahead of each copy, into a cache of its own."""
        from collections import OrderedDict

        from repro.vm import generator
        from repro.vm import instruction as ins

        seen = []
        opcode = ins.Opcode.DEVICE_COPY
        emit = generator._EMIT[opcode]

        def emitting(block, pc, instr):
            def record(value):
                seen.append((instr.src_device, instr.dst_device, value.array.device))

            block.out(f"{block.const('SEEN', record)}(R[{instr.src}])")
            emit(block, pc, instr)

        monkeypatch.setitem(generator._EMIT, opcode, emitting)
        monkeypatch.setattr(generator, "_CACHE", OrderedDict())
        return seen

    @staticmethod
    def _run(exe, platform, x):
        from repro.runtime.context import ExecutionContext
        from repro.vm.interpreter import VirtualMachine

        ctx = ExecutionContext(platform)
        out = VirtualMachine(exe, ctx).run(x).numpy()
        assert ctx.allocator.live_bytes == 0
        return out

    @staticmethod
    def _lstm(input_size=12, hidden_size=16):
        from repro.models.lstm import LSTMWeights, build_lstm_module

        return build_lstm_module(LSTMWeights.create(
            input_size=input_size, hidden_size=hidden_size, num_layers=1, seed=0))

    @pytest.mark.parametrize("streams", [1, 2])
    def test_every_lstm_tier_copies_the_step_index_once_a_step(self, copies, streams):
        import repro.nimble as nimble

        mod, length = self._lstm(), 7
        rng = np.random.RandomState(0)
        members = [rng.randn(length, 12).astype(np.float32) for _ in range(4)]
        reference = nimble.build(mod, intel_cpu())[0]
        want = [self._run(reference, intel_cpu(), x) for x in members]
        options = nimble.CompilerOptions(device_streams=streams)
        step = [(cpu(0), gpu(0), cpu(0))] * length  # host -> GPU, found on the host

        dynamic = nimble.build(mod, nvidia_gpu(), options=options)[0]
        member = nimble.specialize(mod, nvidia_gpu(), shapes=[(length, 12)], options=options)[0]
        for exe in (dynamic, member):
            del copies[:]
            assert np.array_equal(self._run(exe, nvidia_gpu(), members[0]), want[0])
            assert copies == step
        batched = nimble.specialize(
            mod, nvidia_gpu(), shapes=[(length, 12)], options=options, batch=4)[0]
        del copies[:]
        stacked = self._run(batched, nvidia_gpu(), np.concatenate(members, axis=0))
        assert all(np.array_equal(got, w) for got, w in zip(np.split(stacked, 4, axis=0), want))
        assert copies == step

    def test_copies_per_lstm_step_at_the_serving_size(self, copies):
        """The number CI's "Size trajectory" step prints: LSTM 64->128 at
        length 16 on two streams executed 50 copies (3.1 a step), 50 of
        them phantom, before this test existed."""
        import repro.nimble as nimble

        length = 16
        exe = nimble.build(self._lstm(64, 128), nvidia_gpu(),
                           options=nimble.CompilerOptions(device_streams=2))[0]
        self._run(exe, nvidia_gpu(), np.random.RandomState(0).randn(length, 64).astype(np.float32))
        phantom = [c for c in copies if c[2] == c[1]]
        print(f"DeviceCopy per LSTM step (nvidia, 2 streams, length {length}): "
              f"{len(copies) / length:.1f} ({len(copies)} executed, {len(phantom)} phantom)")
        assert len(copies) == length and not phantom
        assert not any(src.is_gpu for src, _, _ in copies)  # none synchronises

    def test_bert_copies_nothing(self, copies):
        import repro.nimble as nimble
        from repro.models.bert import BertConfig, BertWeights, build_bert_module

        mod = build_bert_module(BertWeights.create(
            BertConfig(hidden=24, num_heads=3, num_layers=1, ffn=48), seed=0))
        x = np.random.RandomState(0).randn(6, 24).astype(np.float32)
        want = self._run(nimble.build(mod, intel_cpu())[0], intel_cpu(), x)
        assert np.array_equal(self._run(nimble.build(mod, nvidia_gpu())[0], nvidia_gpu(), x), want)
        assert copies == []

    def test_tree_lstm_at_toy_width_copies_no_more_than_it_did(self, copies):
        """At hidden size 8 `_is_scalar_kernel` sends the tiny `hl + hr`
        kernel to the host (at bench width it emits no copy at all), and
        the inputs are host-resident ADTs (`tree_to_adt` builds them on
        cpu(0)) that placement assumes on the device — an entry-input
        contract left open. The commit before module-wide placement
        executed 47 copies, 6 phantom, and 14, 0 on these trees; that
        commit also wrote h of a Node into a copy of its buffer (the
        (h, c) tuple had unified a host kernel's output with the device)
        and returned garbage — solving in execution order lets the
        producer decide. The bounds are what a Node costs since the gate
        kernels became one multi-output kernel and a scope's result takes
        its tail's domain from the start, so a recursive call's (h, c)
        is found where the Leaf's kernel wrote it: hl and hr to the host
        and their sum back, 3 copies a Node, none phantom (43, 3 and
        13, 0 before)."""
        import repro.nimble as nimble
        from repro.data import Tree, embedding_table
        from repro.models.tree_lstm import (
            TreeLSTMWeights, build_tree_lstm_module, tree_to_adt)

        mod = build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
        embeddings = embedding_table(vocab_size=32, dim=12, seed=0)
        big = Tree.node(
            Tree.node(Tree.leaf(1), Tree.leaf(2)),
            Tree.node(Tree.leaf(3), Tree.node(Tree.leaf(4), Tree.leaf(5))))
        small = Tree.node(Tree.leaf(7), Tree.leaf(8))
        on_cpu, on_gpu = nimble.build(mod, intel_cpu())[0], nimble.build(mod, nvidia_gpu())[0]
        for tree, most_copies, most_phantom in ((big, 12, 0), (small, 3, 0)):
            want = self._run(on_cpu, intel_cpu(), tree_to_adt(tree, embeddings))
            del copies[:]
            got = self._run(on_gpu, nvidia_gpu(), tree_to_adt(tree, embeddings))
            assert np.array_equal(got, want)
            phantom = [c for c in copies if c[2] == c[1]]
            assert len(copies) <= most_copies and len(phantom) <= most_phantom
            # A copy that is not a phantom finds its source where it was placed.
            assert all(c[2] == c[0] for c in copies if c not in phantom)


def _planned_models():
    """(name, compile): the paper's three models at toy sizes, the BERT
    also on four GPU streams, two static LSTM variants, and the LSTM loop
    on two GPU streams."""
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

    def lstm():
        return build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=1, seed=0))

    def tree():
        return build_tree_lstm_module(
            TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))

    bert = _toy_bert
    streams4 = nimble.CompilerOptions(device_streams=4)
    yield "lstm", lambda: nimble.build(lstm(), intel_cpu())
    yield "tree_lstm", lambda: nimble.build(tree(), intel_cpu())
    yield "bert3", lambda: nimble.build(bert(), intel_cpu())
    yield "bert3@gpu4", lambda: nimble.build(bert(), nvidia_gpu(), options=streams4)
    yield "bert3[len=5]", lambda: nimble.specialize(bert(), intel_cpu(), shapes=[(5, 24)])
    yield "lstm[len=7]", lambda: nimble.specialize(lstm(), intel_cpu(), shapes=[(7, 12)])
    yield "lstm[len=7]x4", lambda: nimble.specialize(
        lstm(), intel_cpu(), shapes=[(7, 12)], batch=4)
    yield "lstm@gpu2", lambda: nimble.build(
        lstm(), nvidia_gpu(), options=nimble.CompilerOptions(device_streams=2))


# What the cases above read on the commit before the group table, the
# shared liveness and the ordered pool: sha256 of `pretty_module` of the
# planned module, the MemoryPlanReport, sha256 of `Executable.save()`.
# (`lstm@gpu2` was recorded on the commit that made device placement
# module-wide — the first pin on GPU loop bytecode. `bert3` and
# `bert3@gpu4` were re-recorded when shape classes and dynamic storage
# reuse landed — they are the only models here with a dynamically shaped
# kernel output: allocs 135 -> 47 became 52 -> 17. `bert3[len=5]` was
# recorded on the commit before that one and must never move with it: a
# specialized module has no symbolic shape. Every LSTM and TreeLSTM case
# was re-recorded when fusion learned multi-output groups: the cell's
# `split` and both state updates are one kernel, so `lstm` allocs
# 11 -> 8 became 7 -> 5 and `tree_lstm` 13 -> 10 became 7 -> 6.
# `lstm[len=7]x4` re-pinned its two hashes, not its plan, when every
# specialization resumed from a prefix: ANF now runs before the batch
# rewrite, so the cell's temporaries are named `%t0_1`, not `%t5`.
# Every `save()` hash was re-pinned at executable format v6, which writes
# an `InvokePacked`'s inputs and outputs as two length-prefixed tuples
# where v5 wrote `arity`, `output_size` and one tuple, and whose version
# every embedded artifact key folds in: `_SAVED_LENGTHS` holds the
# lengths those bytes kept. Every `save()` hash was re-pinned again when
# payloads stopped carrying `Any` tokens (`repro.ir.codec`): each `Any`
# is written as a bare `Any()`, and the kernels section is protocol 5.
# Every `save()` hash was re-pinned once more, its module hash and plan
# unmoved, when the VM compiler stopped emitting bookkeeping: no `Move`
# per let-copy, a forwarded tuple field, one pool entry per planned
# integer constant, one kill per register. The `bert3` and `bert3[len=5]`
# rows (the CPU builds) were re-recorded when Q/K/V became one GEMM and
# BERT's head split one three-output kernel: fewer bindings to plan, and
# the three head outputs live at once (static arena 3008 -> 4352 B at
# length 5). `bert3@gpu4` did not move. Every `save()` hash was re-pinned
# at executable format v7, plans unmoved, and `lstm[len=7]x4`'s module
# hash with it: its batched GEMM prints as `nn.dense(..., batch=4)`, not
# `nn.batch_dense`.)
_PARENT_COMMIT_PLANS = {
    "lstm": (
        "785463360bf6e8d677131b66127cfa31f670f044f2e03a6cf9ffbdfcfc1b27c4",
        {"allocs_before": 7, "allocs_after": 5, "static_bytes_before": 704,
         "static_bytes_after": 576, "kills_inserted": 0},
        "ac64d6500c07451b9fa1c5dce4c7aa9eecac26adc4b942f26d95acd75dd8b082"),
    "tree_lstm": (
        "2a23724fc63774e7c23cc7057f1b0c6ad4727a1ed3bc546f403c0b286e75d08c",
        {"allocs_before": 7, "allocs_after": 6, "static_bytes_before": 576,
         "static_bytes_after": 512, "kills_inserted": 6},
        "a7c2b69100897444e18c735bf6c86862196aff6acfb256584322fa2fe51eeb76"),
    "bert3": (
        "ba2dfe16959fa4b979bbd45510583ccd559fb7e040e03ec688d05b036a4bc0f1",
        {"allocs_before": 49, "allocs_after": 18, "static_bytes_before": 640,
         "static_bytes_after": 576, "kills_inserted": 68},
        "b8001252e2a532d45a29dfac099dca16786b5cbb01bcc887d9c65e80c72bdbed"),
    "bert3@gpu4": (
        "5ad1c634e869475dae4f702de63d735d351b505c907ad7a47e7aa2f08b0c5e2a",
        {"allocs_before": 52, "allocs_after": 17, "static_bytes_before": 448,
         "static_bytes_after": 448, "kills_inserted": 131},
        "5f1c4f0d1f040d3d5939865c12e2505c38c04ba0af569caebefc08903d5f63be"),
    "bert3[len=5]": (
        "eb55d23d0ddbd0c25c77ac3a127086759a1853d5662e5639f6cf7f24760e00fd",
        {"allocs_before": 39, "allocs_after": 7, "static_bytes_before": 23040,
         "static_bytes_after": 4352, "kills_inserted": 51},
        "ea04b97e77abed20e79c5e3e3c29967987b9709d177dd32bb2af4bc48d2799c1"),
    "lstm[len=7]": (
        "eeca15d5b228b473a3fc1d48b3dd878c394b36a9e06e640fe500c53c49da235b",
        {"allocs_before": 7, "allocs_after": 5, "static_bytes_before": 704,
         "static_bytes_after": 576, "kills_inserted": 0},
        "08537a98cebee22efdd903ee85a4da7e218ff2fd4edf6fb7e37ba26aa9a17247"),
    "lstm[len=7]x4": (
        "675821a0114f04b24aa0252203b58ac2ab832fab45bdc511134355a187e9a94c",
        {"allocs_before": 8, "allocs_after": 6, "static_bytes_before": 2432,
         "static_bytes_after": 2112, "kills_inserted": 0},
        "37b2f3fb0e105ba31512fcd808927a4111c7e7ec2c58bf997c175fb75981219a"),
    "lstm@gpu2": (
        "73952837b109b9d3b550a3ab6183fcdc912a28ebe121a395f561e63626fb4fd7",
        {"allocs_before": 7, "allocs_after": 6, "static_bytes_before": 704,
         "static_bytes_after": 640, "kills_inserted": 3},
        "83b2bc62214c381baafe1626603f9abe9e4afc48035b77242f7711d813ec7a21"),
}


# `len(Executable.save())` and `bytecode_size_bytes()` of the cases above
# at executable format v5, which wrote a tuple's length in a count field
# (`arity`, `num_fields`, `num_captured`) where v6 length-prefixes it.
# The saved lengths of the dynamic cases fell 17 B each when payloads
# stopped carrying `Any` tokens; the bytecode lengths did not move. All
# of them fell when the VM compiler stopped emitting bookkeeping (one
# pool entry per planned integer constant, fewer instructions): `lstm`
# (13671, 407) -> (13452, 348), `bert3` (71095, 3368) -> (69150, 2336).
# The CPU BERT rows moved when Q/K/V became one GEMM: fewer constants
# and instructions, a larger fused head-split kernel; `bert3` (69150,
# 2336) -> (69564, 1991), `bert3[len=5]` (67654, 1958) -> (68073, 1555).
# `lstm[len=7]x4` fell 6 B, (14756, 399) -> (14750, 399), when its
# batched GEMM's op name went from `nn.batch_dense` to `nn.dense`.
_SAVED_LENGTHS = {
    "lstm": (13452, 348),
    "tree_lstm": (9857, 427),
    "bert3": (69564, 1991),
    "bert3@gpu4": (69604, 2521),
    "bert3[len=5]": (68073, 1555),
    "lstm[len=7]": (13454, 348),
    "lstm[len=7]x4": (14750, 399),
    "lstm@gpu2": (13729, 368),
}


class TestSavedLengths:
    @pytest.mark.parametrize("case", _planned_models(), ids=lambda case: case[0])
    def test_saved_bytes_are_as_long_as_at_v5(self, case):
        name, compile_ = case
        exe, _ = compile_()
        assert (len(exe.save()), exe.bytecode_size_bytes()) == _SAVED_LENGTHS[name]


class TestLinearPlanner:
    """The planner is linear in the length of the scope and plans exactly
    what the quadratic one planned."""

    @pytest.mark.parametrize("case", _planned_models(), ids=lambda case: case[0])
    def test_models_plan_what_the_parent_commit_planned(self, case, monkeypatch):
        name, compile_ = case
        planned = []
        real_run = MemoryPlan.run

        def recording_run(self, mod):
            planned.append(real_run(self, mod))
            return planned[-1]

        monkeypatch.setattr(MemoryPlan, "run", recording_run)
        exe, report = compile_()
        (module,) = planned
        assert (
            hashlib.sha256(pretty_module(module).encode()).hexdigest(),
            asdict(report.memory),
            hashlib.sha256(exe.save()).hexdigest(),
        ) == _PARENT_COMMIT_PLANS[name]

    @staticmethod
    def _plan(bindings, tail):
        """Planned bindings of a hand-written scope, kills dropped."""
        mod = MemoryPlan().run(IRModule.from_expr(Function([], _chain(bindings, tail))))
        out = {}
        node = mod.main.body
        while isinstance(node, Let):
            out[node.var] = node.value
            node = node.body
        return out

    @staticmethod
    def _scope(sizes_devices, dying_order, requests):
        """Storages of the given (size, device), each carrying one tensor;
        the tensors die in *dying_order*; then one allocation per request,
        all alive at the tail."""
        storages = [Var(f"s{i}") for i in range(len(sizes_devices))]
        tensors = [Var(f"t{i}") for i in range(len(sizes_devices))]
        bindings = []
        for s, t, (size, device) in zip(storages, tensors, sizes_devices):
            bindings += [(s, _static_alloc(size, device)), (t, _tensor_from(s))]
        bindings += [(Var("u"), api.tanh(tensors[i])) for i in dying_order]
        asked, results = [], []
        for size, device in requests:
            asked.append(Var("r"))
            results.append(Var("rt"))
            bindings += [(asked[-1], _static_alloc(size, device)),
                         (results[-1], _tensor_from(asked[-1]))]
        return bindings, Tuple(results), storages, asked

    def test_equal_sizes_the_earlier_released_storage_is_taken(self):
        bindings, tail, (s0, s1), (r0, r1) = self._scope(
            [(64, cpu(0)), (64, cpu(0))], dying_order=[1, 0],
            requests=[(64, cpu(0)), (64, cpu(0))])
        planned = self._plan(bindings, tail)
        assert planned[r0] is s1  # bound second, released first
        assert planned[r1] is s0

    def test_a_storage_on_another_device_is_never_taken(self):
        bindings, tail, (s0,), (r0, r1) = self._scope(
            [(256, gpu(0))], dying_order=[0],
            requests=[(64, cpu(0)), (64, gpu(0))])
        planned = self._plan(bindings, tail)
        assert _is_static_alloc(planned[r0])
        assert planned[r1] is s0

    def test_smallest_sufficient_storage_wins_over_an_earlier_larger_one(self):
        bindings, tail, (big, small), (r0, r1, r2) = self._scope(
            [(256, cpu(0)), (128, cpu(0))], dying_order=[0, 1],
            requests=[(100, cpu(0)), (300, cpu(0)), (200, cpu(0))])
        planned = self._plan(bindings, tail)
        assert planned[r0] is small
        assert _is_static_alloc(planned[r1])  # nothing pooled is large enough
        assert planned[r2] is big

    def test_work_doubles_when_depth_doubles(self, monkeypatch):
        """No stopwatch: union-find lookups inside `MemoryPlan.run` for a
        12-layer BERT are at most 2.2x those for a 6-layer one (the
        full-scan queries made it 3.98x)."""
        import repro.nimble as nimble
        from repro.models.bert import BertConfig, BertWeights, build_bert_module

        finds = [0]
        planning = []
        real_find, real_run = UnionFind.find, MemoryPlan.run

        def counting_find(self, key):
            finds[0] += bool(planning)
            return real_find(self, key)

        def flagged_run(self, mod):
            planning.append(True)
            try:
                return real_run(self, mod)
            finally:
                planning.pop()

        monkeypatch.setattr(UnionFind, "find", counting_find)
        monkeypatch.setattr(MemoryPlan, "run", flagged_run)

        def work(layers):
            finds[0] = 0
            nimble.build(build_bert_module(BertWeights.create(
                BertConfig(hidden=32, num_heads=4, num_layers=layers, ffn=64), seed=0)),
                intel_cpu())
            return finds[0]

        six, twelve = work(6), work(12)
        assert six > 0
        assert twelve <= 2.2 * six
