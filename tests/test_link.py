"""Linking (`repro.vm.link`): an executable whose entry shapes are all
static runs its bounded recursion straight-line, and computes what the
rolled loop computes, bit for bit."""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

import repro.nimble as nimble
from repro.analysis import all_mutants, check_bytecode, check_lifetimes, check_races
from repro.analysis import verify_executable
from repro.errors import ShapeGuardError
from repro.evaluator import evaluate
from repro.hardware import intel_cpu, nvidia_gpu
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module
from repro.runtime.context import ExecutionContext
from repro.vm import instruction as ins
from repro.vm import link
from repro.vm.cfg import is_straight_line
from repro.vm.executable import Executable
from repro.vm.interpreter import VirtualMachine

WIDTH = 12

# (name, platform, device streams)
TARGETS = [("cpu", intel_cpu, 1), ("gpu", nvidia_gpu, 1), ("gpu2", nvidia_gpu, 2)]


@pytest.fixture(scope="module")
def lstm():
    return build_lstm_module(
        LSTMWeights.create(input_size=WIDTH, hidden_size=16, num_layers=1, seed=0))


def _variant(mod, platform, length, batch=1, streams=1):
    return nimble.specialize(
        mod, platform(), shapes=[(length, WIDTH)], batch=batch,
        options=nimble.CompilerOptions(device_streams=streams))[0]


def _rolled(exe):
    """The same bytecode with no static shapes: nothing links."""
    return dataclasses.replace(exe, specialized_shapes=None, specialized_batch=None)


def _run(exe, platform, x, numerics="full"):
    ctx = ExecutionContext(platform(), numerics=numerics)
    vm = VirtualMachine(exe, ctx)
    out = vm.run(x)
    assert ctx.allocator.live_bytes == 0
    return out.numpy().tobytes(), vm


def _members(length, batch, seed=0):
    rng = np.random.RandomState(seed)
    return [rng.randn(length, WIDTH).astype(np.float32) for _ in range(batch)]


def _entry(exe):
    return exe.functions[exe.func_index[exe.entry]]


@pytest.mark.parametrize("name, platform, streams", TARGETS)
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("length", [1, 2, 7])
def test_linked_equals_rolled_dynamic_and_the_evaluator(lstm, name, platform, streams,
                                                        batch, length):
    exe = _variant(lstm, platform, length, batch, streams)
    linked = link.linked(exe)
    assert linked is not exe and is_straight_line(_entry(linked))
    members = _members(length, batch)
    stacked = np.concatenate(members, axis=0)
    got, _ = _run(exe, platform, stacked)
    rolled, _ = _run(_rolled(exe), platform, stacked)
    dynamic = nimble.build(lstm, platform(), options=nimble.CompilerOptions(
        device_streams=streams))[0]
    each = b"".join(_run(dynamic, platform, x)[0] for x in members)
    oracle = b"".join(np.asarray(evaluate(lstm, x)).tobytes() for x in members)
    assert got == rolled == each == oracle


@pytest.mark.parametrize("name, platform, streams", TARGETS)
@pytest.mark.parametrize("batch", [1, 3])
def test_the_budget_edge_links_and_one_step_past_it_stays_rolled(lstm, name, platform,
                                                                  streams, batch):
    """A linked entry's length is affine in the trip count; the longest
    one inside `LINK_BUDGET` links, one step more runs as compiled, and
    both compute what the rolled loop and the evaluator do."""
    sizes = [len(_entry(link.linked(_variant(lstm, platform, n, batch, streams)))
                 .instructions) for n in (3, 4, 5)]
    step = sizes[1] - sizes[0]
    assert sizes[2] - sizes[1] == step > 0
    edge = 3 + (link.LINK_BUDGET - sizes[0]) // step
    for length, links in ((edge, True), (edge + 1, False)):
        exe = _variant(lstm, platform, length, batch, streams)
        linked = link.linked(exe)
        assert (linked is not exe) == links
        if links:
            assert len(_entry(linked).instructions) <= link.LINK_BUDGET
        members = _members(length, batch)
        stacked = np.concatenate(members, axis=0)
        got = _run(exe, platform, stacked)[0]
        oracle = b"".join(np.asarray(evaluate(lstm, x)).tobytes() for x in members)
        assert got == _run(_rolled(exe), platform, stacked)[0] == oracle


def test_what_linking_removes(lstm):
    """Per run: no loop test, no step counter, no call, no If, and each
    constant loaded once; the kernels that compute are the rolled
    loop's, in the same order."""
    length = 6
    exe = _variant(lstm, intel_cpu, length)
    x = _members(length, 1)[0]
    _, rolled = _run(_rolled(exe), intel_cpu, x)
    _, linked = _run(exe, intel_cpu, x)
    before, after = rolled.profile.instruction_counts, linked.profile.instruction_counts
    for opcode in ("INVOKE", "IF", "LOAD_CONSTI", "SHAPE_OF"):
        assert before[opcode] > 0 and after[opcode] == 0
    # less each step and once more, add each step, the entry's take of
    # the length: evaluated when linking.
    folded = {"fused_less", "fused_add", "fused_take"}
    assert sum(rolled.profile.kernel_counts[k] for k in folded) == 2 * length + 2
    assert dict(linked.profile.kernel_counts) == {
        k: n for k, n in rolled.profile.kernel_counts.items() if k not in folded}
    loads = [i.const_index for i in _entry(link.linked(exe)).instructions
             if i.opcode == ins.Opcode.LOAD_CONST]
    assert len(loads) == len(set(loads))
    assert sum(after.values()) < sum(before.values()) / 2
    assert linked.profile.dispatch_time_us < rolled.profile.dispatch_time_us
    # On a GPU the memory planner kills two buffers a step: the kills
    # stay, and only the If's immediates go.
    exe = _variant(lstm, nvidia_gpu, length)
    _, rolled = _run(_rolled(exe), nvidia_gpu, x)
    _, linked = _run(exe, nvidia_gpu, x)
    kills = sum(i.opcode == ins.Opcode.LOAD_CONSTI for i in _entry(link.linked(exe)).instructions)
    assert kills == linked.profile.instruction_counts["LOAD_CONSTI"] == 2 * length
    assert rolled.profile.instruction_counts["LOAD_CONSTI"] == 2 * length + length + 1


def test_dead_writes_go_but_a_kill_stays():
    """What nothing reads is dropped; a write over a register holding a
    counted value is where that value is released, and stays."""
    from repro.tensor.device import cpu

    code = [
        ins.LoadConsti(64, 1),
        ins.LoadConsti(0, 2),
        ins.AllocStorage(1, 64, cpu(), 3),
        ins.AllocStorage(1, 64, cpu(), 4),            # nothing reads it
        ins.AllocTensor(3, 2, (4,), "float32", 5),
        ins.LoadConsti(0, 3),                         # a kill of a live storage
        ins.LoadConsti(0, 6),                         # over nothing counted
        ins.Ret(5),
    ]
    kept = link._drop_dead(code, num_params=1)
    assert kept == [code[i] for i in (0, 1, 2, 4, 5, 7)]


@pytest.mark.parametrize("name, platform, streams", TARGETS)
def test_memory_stays_constant_in_the_length_and_warm_runs_use_pools(lstm, name, platform,
                                                                     streams):
    """Cold fresh allocations and peak bytes do not grow with the trip
    count, and a warm run allocates only from the pools."""
    cold = set()
    for length in (4, 8, 16):
        exe = _variant(lstm, platform, length, streams=streams)
        assert link.linked(exe) is not exe
        ctx = ExecutionContext(platform())
        vm = VirtualMachine(exe, ctx)
        x = _members(length, 1)[0]
        vm.run(x)
        stats = ctx.allocator.stats
        cold.add((stats.fresh_allocs, stats.peak_bytes))
        stats.reset()
        vm.run(x)
        assert stats.fresh_allocs == 0 and stats.pooled_allocs > 0
        assert ctx.allocator.live_bytes == 0
    assert len(cold) == 1


def test_save_load_link_run_is_equal_and_the_executable_does_not_move(lstm):
    """The linked form is the VM's: the executable keeps its functions
    and constants (so its bytecode, and what it saves of them), and one
    loaded from its bytes links and runs to the same output."""
    exe = _variant(lstm, intel_cpu, 5)
    functions, constants = list(exe.functions), list(exe.constants)
    bytecode = exe._serialize_bytecode()
    x = _members(5, 1)[0]
    want, vm = _run(exe, intel_cpu, x)
    assert vm._code is not exe and exe.functions == functions
    assert all(a is b for a, b in zip(exe.functions + exe.constants, functions + constants))
    assert len(exe.constants) == len(constants) < len(vm._code.constants)
    assert exe._serialize_bytecode() == bytecode
    loaded = Executable.load(exe.save())
    assert loaded.linked is None
    got, _ = _run(loaded, intel_cpu, x)
    assert got == want and link.linked(loaded) is not loaded


def test_a_copy_links_by_content_once(lstm, monkeypatch):
    """A second executable of the same content (a store restore) takes
    the linked entry from the cache, as a function of its own."""
    exe = _variant(lstm, intel_cpu, 5)
    first = link.linked(exe)
    calls = []
    monkeypatch.setattr(link, "link", lambda e: calls.append(e))
    loaded = Executable.load(exe.save())
    again = link.linked(loaded)
    assert calls == []
    assert _entry(again) is not _entry(first)
    assert _entry(again).instructions is _entry(first).instructions
    assert loaded.entry_contract == exe.entry_contract == ((5, WIDTH),)


def test_the_cache_keeps_no_executable_alive():
    """The cache by content holds an instruction list and the appended
    constants, never a function bound by a VM: that function's
    generated-code key names its executable's weights."""
    import gc
    import weakref

    mod = build_lstm_module(
        LSTMWeights.create(input_size=WIDTH, hidden_size=16, num_layers=1, seed=1))
    exe = _variant(mod, intel_cpu, 5)
    _run(exe, intel_cpu, _members(5, 1)[0])
    weights = [weakref.ref(c.data) for c in exe.constants if c.data.ndim == 2]
    assert weights and link.linked(exe) is not exe
    del exe, mod
    nimble.clear_prefix_cache()
    gc.collect()
    assert all(w() is None for w in weights)


@pytest.mark.parametrize("linked", [True, False])
@pytest.mark.parametrize("batch", [1, 2])
def test_a_wrong_shape_is_refused_before_anything_runs(lstm, batch, linked, monkeypatch):
    """A static executable's run checks each parameter's whole shape,
    stacked for a batched variant, linked or not (past the budget)."""
    if not linked:
        monkeypatch.setattr(link, "LINK_BUDGET", 0)
        monkeypatch.setattr(link, "_CACHE", OrderedDict())
    length = 5
    exe = _variant(lstm, intel_cpu, length, batch)
    assert (link.linked(exe) is not exe) == linked
    assert exe.entry_contract == ((length * batch, WIDTH),)
    ctx = ExecutionContext(intel_cpu())
    vm = VirtualMachine(exe, ctx)
    for shape in ((length * batch + 1, WIDTH), (length * batch, WIDTH + 1),
                  (length * (batch + 1), WIDTH), (length * batch * WIDTH,)):
        with pytest.raises(ShapeGuardError):
            vm.run(np.zeros(shape, np.float32))
    assert vm.profile.runs == 0 and ctx.allocator.stats.total_allocs == 0
    out = vm.run(np.zeros((length * batch, WIDTH), np.float32))
    assert out.shape[0] == batch


def test_what_does_not_link():
    """A dynamic build, a partial variant, a TreeLSTM (its recursion is
    on an ADT) and a straight-line BERT run as compiled: the BERT's
    functions are the very objects it was built with."""
    lstm = build_lstm_module(
        LSTMWeights.create(input_size=WIDTH, hidden_size=16, num_layers=1, seed=0))
    tree = build_tree_lstm_module(TreeLSTMWeights.create(input_size=8, hidden_size=8, seed=0))
    bert = build_bert_module(BertWeights.create(
        BertConfig(hidden=24, num_heads=3, num_layers=1, ffn=48), seed=0))
    cpu = intel_cpu()
    for exe, contract in (
        (nimble.build(lstm, cpu)[0], None),
        (nimble.specialize(lstm, cpu, shapes=[(None, WIDTH)])[0], ((None, WIDTH),)),
        (nimble.build(tree, cpu)[0], None),
        (nimble.specialize(bert, cpu, shapes=[(6, 24)])[0], ((6, 24),)),
    ):
        functions = list(exe.functions)
        assert link.linked(exe) is exe and exe.entry_contract == contract
        vm = VirtualMachine(exe)
        assert vm._code is exe and all(a is b for a, b in zip(exe.functions, functions))


@pytest.mark.parametrize("name, platform, streams", TARGETS)
def test_the_verifier_proves_the_linked_form(lstm, name, platform, streams):
    """Bytecode, races and lifetimes report nothing on the linked LSTM,
    and the lifetime checker covers every instruction of its entry (it
    skips a function with control flow, which the rolled entry is)."""
    exe = _variant(lstm, platform, 6, streams=streams)
    linked = link.linked(exe)
    assert not is_straight_line(_entry(exe)) and is_straight_line(_entry(linked))
    for checker in (check_bytecode, check_races, check_lifetimes):
        assert [f for f in checker(linked) if f.severity == "error"] == []


@pytest.mark.parametrize("name, platform, streams", TARGETS)
def test_every_mutant_of_the_linked_form_is_killed(lstm, name, platform, streams):
    exe = _variant(lstm, platform, 6, streams=streams)
    rolled = {op for op, m in all_mutants(exe).items() if m is not None}
    mutants = {op: m for op, m in all_mutants(link.linked(exe)).items() if m is not None}
    assert rolled == {"undefine_register"}
    assert set(mutants) == {"alias_storage", "undefine_register"}
    for op, mutant in mutants.items():
        assert any(f.severity == "error" for f in verify_executable(mutant)), op


def test_a_second_served_simulation_generates_no_code(monkeypatch, tmp_path):
    """A serve_tiered-shaped simulation (GPU, two streams, batched and
    staged specialization over a store) links its exact variants and
    generates their code once; the same simulation on a new server,
    whose executables are new objects, finds all of it cached."""
    from repro.serve import InferenceServer, ServeConfig, long_tailed_traffic
    from repro.vm import generator

    mod = build_lstm_module(LSTMWeights.create(input_size=8, hidden_size=8, num_layers=1,
                                               seed=0))
    trace = long_tailed_traffic(96, input_size=8, mean_interarrival_us=1600.0,
                                hot_lengths=(5, 7, 9), hot_fraction=0.75, tail_min=4,
                                tail_max=10, seed=0)
    monkeypatch.setattr(generator, "_CACHE", OrderedDict())
    monkeypatch.setattr(link, "_CACHE", OrderedDict())
    made = []
    real = generator.FunctionCode.__init__

    def counting(self, func, values):
        made.append(func.name)
        real(self, func, values)

    monkeypatch.setattr(generator.FunctionCode, "__init__", counting)

    def simulate(name):
        nimble.clear_prefix_cache()
        config = ServeConfig(
            max_batch_size=4, max_delay_us=1500.0, num_workers=2, numerics="full",
            specialize=True, specialize_threshold=4, specialize_max_executables=2,
            specialize_compile_lanes=2, specialize_batch=True, specialize_staged=True,
            device_streams=2, artifact_dir=str(tmp_path / name))
        return InferenceServer(mod, nvidia_gpu(), config).simulate(trace)

    first = simulate("first")
    assert any(r.tier == "specialized" for r in first.responses)
    assert any(v is not None for v in link._CACHE.values())
    generated = len(made)
    assert generated > 0
    second = simulate("second")
    assert len(made) == generated
    assert [r.latency_us for r in second.responses] == [r.latency_us for r in first.responses]
