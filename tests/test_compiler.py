"""The IR -> bytecode walk (`repro.vm.compiler`) emits no bookkeeping.

A let-copy shares its value's register, a projection of a tuple built
in the function reads the field's register, a planned constant is
loaded once per basic block, a register is killed once on a path, and
a pure write nobody reads is dropped. Each is a place where a compiler
can emit wrong code at a control-flow boundary, so each is checked
three ways: hand-written scopes that put the case at a boundary verify
clean and run bitwise equal to `repro.evaluator`; the bytecode of the
paper's three models obeys the laws the walk promises, on the CPU and
on the GPU at 1, 2 and 4 streams; and every tier of every model, and a
saved and loaded executable, computes the evaluator's output bit for
bit. The generator's half of the contract is checked too: each planned
size or offset a block loads is a literal in the block's generated code.
"""

import re

import numpy as np
import pytest

import repro.nimble as nimble
from repro.analysis import verify_executable
from repro.codegen.kernels import KernelCache
from repro.data import Tree, embedding_table
from repro.errors import VerificationError
from repro.evaluator import compute, evaluate
from repro.hardware import intel_cpu, nvidia_gpu
from repro.ir import Call, Function, If, IRModule, Op, TensorType, Tuple, TupleGetItem, Var, fold_lets
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt
from repro.ops import api
from repro.runtime.context import ExecutionContext
from repro.vm import instruction as ins
from repro.vm.cfg import CFG, forward
from repro.vm.compiler import drop_unread_writes
from repro.vm.executable import Executable
from repro.vm.generator import function_code
from repro.vm.interpreter import VirtualMachine

_Op = ins.Opcode


def _kill(var):
    return Call(Op.get("memory.kill"), [var], {})


def _evaluated(mod, *args):
    """The oracle: the un-lowered module, a hand-written kill a no-op."""
    return evaluate(mod, *args, call=lambda name, inputs, attrs: (
        () if name == "memory.kill" else compute(name, inputs, attrs)))


def _run(exe, *args):
    platform = nvidia_gpu() if exe.platform_name == nvidia_gpu().name else intel_cpu()
    ctx = ExecutionContext(platform, numerics="full")
    out = VirtualMachine(exe, ctx).run(*args).numpy()
    assert ctx.allocator.live_bytes == 0
    return out


def _build(func, platform=None):
    mod = IRModule.from_expr(func)
    exe, _ = nimble.build(mod, platform or intel_cpu())
    assert not [f for f in verify_executable(exe) if f.severity == "error"]
    return mod, exe


def _kills(func):
    """pc -> register of each kill: a ``LoadConsti 0`` into a register
    that something else (or the caller) writes too."""
    writers = {}
    for pc, instr in enumerate(func.instructions):
        for r in ins.operands(instr)[1]:
            writers.setdefault(r, []).append(pc)
    return {pc: r for r, pcs in writers.items() for pc in pcs
            if func.instructions[pc].opcode == _Op.LOAD_CONSTI
            and func.instructions[pc].value == 0
            and (len(pcs) > 1 or r < func.num_params)}


def _arms(func):
    """The pcs of the true and the false arm of the function's first
    ``If`` whose true arm ends in a ``Goto``."""
    code = func.instructions
    for pc, instr in enumerate(code):
        if instr.opcode != _Op.IF:
            continue
        false_start = pc + instr.false_offset
        goto = code[false_start - 1]
        if goto.opcode == _Op.GOTO:
            join = false_start - 1 + goto.pc_offset
            return range(pc + 1, false_start - 1), range(false_start, join)
    raise AssertionError("no if/else in the function")


X = TensorType((4, 8), "float32")
C = TensorType((), "bool")


def _x(seed=0):
    return np.random.RandomState(seed).randn(4, 8).astype(np.float32)


class TestHandWrittenScopes:
    def test_a_tuple_field_killed_before_its_projection_is_read_from_the_tuple(self):
        x = Var("x", X)
        a, b, t, k, y, z = (Var(n) for n in ("a", "b", "t", "k", "y", "z"))
        func = Function([x], fold_lets([
            (a, api.tanh(x)), (b, api.sigmoid(x)), (t, Tuple([a, b])), (k, _kill(a)),
            (y, TupleGetItem(t, 0)), (z, api.add(y, TupleGetItem(t, 1))),
        ], z))
        mod, exe = _build(func)
        code = exe.functions[0].instructions
        # The killed field is read from the tuple, which still holds it;
        # the live one is forwarded.
        assert [i.field_index for i in code if i.opcode == _Op.GET_FIELD] == [0]
        assert np.array_equal(_run(exe, _x()), _evaluated(mod, _x()))

    def test_a_kill_in_both_arms_of_an_if_is_emitted_in_each(self):
        x, c = Var("x", X), Var("c", C)
        a, r, e, s, k1, k2 = (Var(n) for n in ("a", "r", "e", "s", "k1", "k2"))
        func = Function([x, c], fold_lets([
            (a, api.tanh(x)),
            (r, If(c, fold_lets([(e, api.tanh(a)), (k1, _kill(a))], e),
                   fold_lets([(s, api.sigmoid(a)), (k2, _kill(a))], s))),
        ], r))
        mod, exe = _build(func)
        main = exe.functions[0]
        kills = _kills(main)
        true_arm, false_arm = _arms(main)
        killed_in = [{r for pc, r in kills.items() if pc in arm} for arm in (true_arm, false_arm)]
        assert killed_in[0] & killed_in[1]  # `a`, once in each arm
        assert not _killed_twice_on_a_path(main)
        for flag in (True, False):
            cond = np.array(flag)
            assert np.array_equal(_run(exe, _x(), cond), _evaluated(mod, _x(), cond))

    def test_a_let_copy_shares_its_register_and_is_killed_once(self):
        """`b = a` emits nothing; kills of both names at the alias
        group's end clobber the one register once."""
        x = Var("x", X)
        a, b, c, d, k1, k2 = (Var(n) for n in ("a", "b", "c", "d", "k1", "k2"))
        func = Function([x], fold_lets([
            (a, api.tanh(x)), (b, a), (c, api.sigmoid(b)), (d, api.add(c, b)),
            (k1, _kill(a)), (k2, _kill(b)),
        ], d))
        mod, exe = _build(func)
        main = exe.functions[0]
        assert not [i for i in main.instructions if i.opcode == _Op.MOVE]
        killed = list(_kills(main).values())
        assert len(killed) == len(set(killed))
        assert np.array_equal(_run(exe, _x()), _evaluated(mod, _x()))

    def test_a_planned_constant_is_loaded_in_each_arm_and_after_the_join(self):
        """Offset 0 is one pool entry, used before the ``If``, in both
        arms and after the join: each block loads it, since a load in
        one arm has not run on the other arm's path."""
        x, c = Var("x", X), Var("c", C)
        a, r, e, s, z = (Var(n) for n in ("a", "r", "e", "s", "z"))
        func = Function([x, c], fold_lets([
            (a, api.tanh(x)),
            (r, If(c, fold_lets([(e, api.tanh(a))], e), fold_lets([(s, api.sigmoid(a))], s))),
            (z, api.add(r, a)),
        ], z))
        mod, exe = _build(func)
        main = exe.functions[0]
        offsets = {i.offset for i in main.instructions if i.opcode == _Op.ALLOC_TENSOR}
        loads = [i for i in main.instructions if i.opcode == _Op.LOAD_CONST and i.dst in offsets]
        assert len({i.const_index for i in loads}) == 1
        assert len(loads) == 4  # before the If, in each arm, after the join
        assert not _reloaded_in_a_block(main, exe)
        for flag in (True, False):
            cond = np.array(flag)
            assert np.array_equal(_run(exe, _x(), cond), _evaluated(mod, _x(), cond))

    @pytest.mark.xfail(strict=True, reason="the verifier counts a kill as a definition")
    def test_a_read_after_a_kill_is_refused_at_build_time(self):
        """`b = a` shares `a`'s register, so `kill(a)` before `c`'s last
        read clobbers what `d` reads: the VM raises at run time, and the
        verifier, which takes the kill's ``LoadConsti 0`` for a
        definition, passes it."""
        x = Var("x", X)
        a, b, c, k, d = (Var(n) for n in ("a", "b", "c", "k", "d"))
        func = Function([x], fold_lets([
            (a, api.tanh(x)), (b, a), (c, api.tanh(b)), (k, _kill(a)), (d, api.sigmoid(c)),
        ], d))
        with pytest.raises(VerificationError):
            _build(func)


# ------------------------------------------------------------------ laws
def _moves_outside_a_join(func):
    """``Move``s not into an ``If`` / ``Match`` join: each join move is
    followed by the ``Goto`` to the join, or falls through into it."""
    code = func.instructions
    joins = {pc + i.pc_offset for pc, i in enumerate(code) if i.opcode == _Op.GOTO}
    return [pc for pc, i in enumerate(code) if i.opcode == _Op.MOVE
            and code[pc + 1].opcode != _Op.GOTO and pc + 1 not in joins]


def _projections_of_live_fields(func):
    """``GetField``s of an ``AllocADT`` made earlier in the same block
    whose field register nothing has written since."""
    code, found = func.instructions, []
    for start, end in CFG(code).blocks:
        fields = {}
        for pc in range(start, end):
            instr = code[pc]
            if instr.opcode == _Op.GET_FIELD and instr.obj in fields:
                if fields[instr.obj][instr.field_index] is not None:
                    found.append(pc)
            for w in ins.operands(instr)[1]:
                fields = {t: tuple(None if f == w else f for f in fs) for t, fs in fields.items()}
            if instr.opcode == _Op.ALLOC_ADT:
                fields[instr.dst] = instr.fields
    return found


def _killed_twice_on_a_path(func):
    """Kills of a register some path into them has killed already."""
    code, kills, found = func.instructions, _kills(func), []
    cfg = CFG(code)

    def transfer(b, killed):
        killed = set(killed)
        start, end = cfg.blocks[b]
        for pc in range(start, end):
            if pc in kills:
                if kills[pc] in killed:
                    found.append(pc)
                killed.add(kills[pc])
        return frozenset(killed)

    forward(cfg, frozenset(), transfer, lambda a, b: a | b)
    return sorted(set(found))


def _unread_single_writes(func):
    """Registers written once, by a pure instruction, and never read."""
    reads, writers = set(), {}
    for pc, instr in enumerate(func.instructions):
        used, written = ins.operands(instr)
        reads.update(used)
        for r in written:
            writers.setdefault(r, []).append(pc)
    pure = {_Op.MOVE, _Op.LOAD_CONST, _Op.LOAD_CONSTI, _Op.ALLOC_ADT, _Op.GET_FIELD}
    return [pcs[0] for r, pcs in writers.items()
            if len(pcs) == 1 and r not in reads and func.instructions[pcs[0]].opcode in pure]


def _reloaded_in_a_block(func, exe):
    """A rank-0 integer constant loaded twice in one basic block."""
    code, found = func.instructions, []
    for start, end in CFG(code).blocks:
        seen = set()
        for pc in range(start, end):
            instr = code[pc]
            if instr.opcode != _Op.LOAD_CONST:
                continue
            data = exe.constants[instr.const_index].data
            if data.ndim == 0 and data.dtype.kind in "iu":
                if instr.const_index in seen:
                    found.append(pc)
                seen.add(instr.const_index)
    return found


def _model(name):
    if name == "lstm":
        return build_lstm_module(
            LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0))
    if name == "tree_lstm":
        return build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0))
    return build_bert_module(
        BertWeights.create(BertConfig(hidden=24, num_heads=3, num_layers=2, ffn=48), seed=0))


_LAW_CASES = [(m, p, s) for m in ("lstm", "tree_lstm", "bert")
              for p, s in (("intel_cpu", 1), ("nvidia_gpu", 1), ("nvidia_gpu", 2),
                           ("nvidia_gpu", 4))]


class TestBytecodeLaws:
    @pytest.mark.parametrize("model,platform,streams", _LAW_CASES,
                             ids=[f"{m}-{p}-{s}" for m, p, s in _LAW_CASES])
    def test_the_walk_emits_no_bookkeeping(self, model, platform, streams):
        target = intel_cpu() if platform == "intel_cpu" else nvidia_gpu()
        exe, _ = nimble.build(_model(model), target,
                              options=nimble.CompilerOptions(device_streams=streams))
        for func in exe.functions:
            assert _moves_outside_a_join(func) == [], func.name
            assert _projections_of_live_fields(func) == [], func.name
            assert _killed_twice_on_a_path(func) == [], func.name
            assert _unread_single_writes(func) == [], func.name
            assert _reloaded_in_a_block(func, exe) == [], func.name

    def test_each_planned_constant_is_one_pool_entry(self):
        exe, _ = nimble.build(_model("bert"), intel_cpu())
        scalars = [(str(c.data.dtype), int(c.data), c.device) for c in exe.constants
                   if c.data.ndim == 0 and c.data.dtype.kind in "iu"]
        assert len(scalars) == len(set(scalars))


def _instruction_sources(code):
    """pc -> the generated lines of each instruction of *code*, a
    `FunctionCode` (its blocks are the function's, in pc order)."""
    found = []
    for source, starts in zip(code.sources, code.starts):
        lines = source.splitlines()
        for first, after in zip(starts, starts[1:] + [len(lines) + 1]):
            found.append("\n".join(lines[first - 1:after - 1]))
    return found


def _planned_reads(func, exe):
    """``(pc, value, literal)`` for each planned size or offset that a
    ``LoadConst`` / ``LoadConsti`` wrote earlier in its basic block:
    whether the generated lines reading it have *value* as a literal."""
    code, found = func.instructions, []
    sources = _instruction_sources(function_code(func, exe.constants))
    reads = {_Op.ALLOC_STORAGE: ("allocation_size", "alloc({!r}, "),
             _Op.ALLOC_TENSOR: ("offset", "view({!r}, "),
             _Op.ALLOC_TENSOR_REG: ("offset", "view({!r}, ")}
    for start, end in CFG(code).blocks:
        loaded = {}
        for pc in range(start, end):
            instr = code[pc]
            if instr.opcode in reads:
                field, pattern = reads[instr.opcode]
                r = getattr(instr, field)
                if r in loaded:
                    found.append((pc, loaded[r], pattern.format(loaded[r]) in sources[pc]
                                  and "read_scalar" not in sources[pc]))
            for dst in ins.operands(instr)[1]:
                loaded.pop(dst, None)
                if instr.opcode == _Op.LOAD_CONSTI:
                    loaded[dst] = instr.value
                elif instr.opcode == _Op.LOAD_CONST:
                    data = exe.constants[instr.const_index].data
                    if data.ndim == 0 and data.dtype.kind in "iu":
                        loaded[dst] = int(data)
    return found


class TestLiterals:
    """The generator's half of "a planned constant is loaded once per
    basic block": a generated block is one basic block, so every such
    load reaches the sizes it feeds as a literal."""

    @pytest.mark.parametrize("model,platform,streams", _LAW_CASES,
                             ids=[f"{m}-{p}-{s}" for m, p, s in _LAW_CASES])
    def test_a_planned_size_loaded_in_its_block_is_a_literal(self, model, platform, streams):
        target = intel_cpu() if platform == "intel_cpu" else nvidia_gpu()
        options, cache = nimble.CompilerOptions(device_streams=streams), KernelCache()
        mod = _model(model)
        tiers = {"dynamic": nimble.build(mod, target, options=options, kernel_cache=cache)[0]}
        if model != "tree_lstm":  # its entry takes an ADT: no shape to specialize to
            width = 12 if model == "lstm" else 24
            for tier, shapes, batch in (("exact", (5, width), 1), ("partial", (None, width), 1),
                                        ("batched", (5, width), 2)):
                tiers[tier] = nimble.specialize(mod, target, shapes=[shapes], batch=batch,
                                                options=options, kernel_cache=cache)[0]
        for tier, exe in tiers.items():
            reads = [read for func in exe.functions for read in _planned_reads(func, exe)]
            assert reads, tier
            assert [read for read in reads if not read[2]] == [], tier

    def test_bench_size_bert_reads_only_what_a_kernel_wrote(self):
        """Bench-size BERT's ``main``, dynamic and specialized: every
        scalar its generated code reads at run time is a shape
        function's or host kernel's output, and the specialized build
        reads none (dynamically 10 -> 9 when Q/K/V became one GEMM, and
        9 -> 8 when the head split became that GEMM's epilogue)."""
        mod = build_bert_module(BertWeights.create(
            BertConfig(hidden=256, num_heads=4, num_layers=6, ffn=1024), seed=0))
        counts = []
        for exe in (nimble.build(mod, intel_cpu())[0],
                    nimble.specialize(mod, intel_cpu(), shapes=[(20, 256)])[0]):
            main = exe.functions[exe.func_index["main"]]
            code, sources = main.instructions, _instruction_sources(
                function_code(main, exe.constants))
            reads = 0
            for start, end in CFG(code).blocks:
                written = {}  # register -> the opcode that last wrote it, or filled it
                for pc in range(start, end):
                    for r in map(int, re.findall(r"read_scalar\(R\[(\d+)\]", sources[pc])):
                        assert written.get(r) == _Op.INVOKE_PACKED, (pc, r)
                        reads += 1
                    instr = code[pc]
                    for r in ins.operands(instr)[1] + getattr(instr, "outputs", ()):
                        written[r] = instr.opcode
            counts.append(reads)
        print(f"\nrun-time scalar reads in bench-size BERT main, dynamic / specialized: "
              f"{counts[0]} / {counts[1]}")
        assert counts == [8, 0]


class TestDropUnreadWrites:
    def test_jumps_are_repatched_around_dropped_writes(self):
        code = [
            ins.LoadConsti(1, 1),
            ins.LoadConsti(0, 2),  # unread: dropped
            ins.If(0, 1, 1, 4),
            ins.LoadConsti(7, 3),  # unread: dropped
            ins.Move(0, 4),
            ins.Goto(4),
            ins.LoadConsti(0, 5),  # read only by a dropped Move: dropped too
            ins.Move(5, 6),  # unread: dropped
            ins.Move(1, 4),
            ins.Ret(4),
        ]
        assert drop_unread_writes(code, num_params=1) == [
            ins.LoadConsti(1, 1),
            ins.If(0, 1, 1, 3),
            ins.Move(0, 4),
            ins.Goto(2),
            ins.Move(1, 4),
            ins.Ret(4),
        ]

    def test_a_register_with_an_effectful_write_keeps_its_kill(self):
        code = [ins.LoadConst(0, 1), ins.Invoke(1, (1,), 2), ins.LoadConsti(0, 2), ins.Ret(0)]
        assert drop_unread_writes(code, num_params=1) == code

    def test_an_unread_allocation_goes_with_its_kill(self):
        """The compiler and the linker drop one set of pure writes
        (``ins.PURE``): an allocation nothing reads is one of them."""
        code = [ins.LoadConst(0, 1), ins.AllocStorage(1, 64, intel_cpu().host, 2),
                ins.LoadConsti(0, 2), ins.Ret(0)]
        assert drop_unread_writes(code, num_params=1) == [ins.Ret(0)]


# ----------------------------------------------------------------- tiers
def _tiers(name):
    """(module, [(tier, executable, args)]): the dynamic build, the exact,
    partial and batched specializations sharing its kernel cache (not for
    the TreeLSTM, whose entry is an ADT), and the 4-stream GPU build."""
    mod, cache = _model(name), KernelCache()
    rng = np.random.RandomState(1)
    gpu4 = nimble.CompilerOptions(device_streams=4)
    if name == "tree_lstm":
        tree = Tree.node(Tree.node(Tree.leaf(1), Tree.leaf(2)), Tree.leaf(3))
        x = tree_to_adt(tree, embedding_table(vocab_size=8, dim=12, seed=0))
        return mod, [("dynamic", nimble.build(mod, intel_cpu())[0], [x]),
                     ("gpu4", nimble.build(mod, nvidia_gpu(), options=gpu4)[0], [x])]
    width = 12 if name == "lstm" else 24
    x = rng.randn(5, width).astype(np.float32)
    return mod, [
        ("dynamic", nimble.build(mod, intel_cpu(), kernel_cache=cache)[0], [x]),
        ("exact", nimble.specialize(mod, intel_cpu(), shapes=[(5, width)],
                                    kernel_cache=cache)[0], [x]),
        ("partial", nimble.specialize(mod, intel_cpu(), shapes=[(None, width)],
                                      kernel_cache=cache)[0], [x]),
        ("batched", nimble.specialize(mod, intel_cpu(), shapes=[(5, width)], batch=2,
                                      kernel_cache=cache)[0], [np.concatenate([x, x])]),
        ("gpu4", nimble.build(mod, nvidia_gpu(), options=gpu4)[0], [x]),
    ]


class TestTiers:
    @pytest.mark.parametrize("name", ["lstm", "tree_lstm", "bert"])
    def test_every_tier_and_a_loaded_executable_compute_the_evaluators_output(self, name):
        mod, tiers = _tiers(name)
        want = _evaluated(mod, *tiers[0][2])
        for tier, exe, args in tiers:
            expected = np.concatenate([want, want]) if tier == "batched" else want
            for runnable in (exe, Executable.load(exe.save())):
                assert np.array_equal(_run(runnable, *args), expected), tier
