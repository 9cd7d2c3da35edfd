"""The one reader of VM control flow (`repro.vm.cfg`): successors of each
instruction, the basic blocks cut over them, and the forward worklist
whose lattice the generator and the bytecode verifier each supply.

Unit level: hand-built bytecode pins the successors of every kind of
instruction, targets outside the function, the leaders after each
terminator, and the fixed point over a branch and a loop. Integration
level: on compiled LSTM and TreeLSTM executables, the blocks tile every
function and their successors are exactly the instruction successors of
each block's last pc.
"""

import pytest

import repro.nimble as nimble
from repro.hardware import intel_cpu
from repro.vm import instruction as ins
from repro.vm.cfg import CFG, forward, is_straight_line, successors


def test_successors_read_jumps_and_end_paths_at_ret_and_fatal():
    assert successors(4, ins.If(0, 1, 1, 3)) == (5, 7)
    assert successors(4, ins.Goto(-2)) == (2,)
    assert successors(4, ins.Ret(0)) == ()
    assert successors(4, ins.Fatal("no clause matched")) == ()
    # A call returns to the next instruction; so does everything else.
    assert successors(4, ins.Invoke(0, (1,), 2)) == (5,)
    assert successors(4, ins.InvokeClosure(1, (2,), 3)) == (5,)
    assert successors(4, ins.Move(0, 1)) == (5,)


def test_a_target_outside_the_function_is_kept_by_successors_and_left_out_of_blocks():
    code = [ins.LoadConsti(0, 0), ins.Goto(5), ins.Move(0, 1), ins.Goto(-9), ins.Ret(1)]
    assert successors(1, code[1]) == (6,)
    assert successors(3, code[3]) == (-6,)
    cfg = CFG(code)
    assert cfg.blocks == [(0, 2), (2, 4), (4, 5)]
    assert cfg.succs == [[], [], []]
    assert cfg.target(6) is None and cfg.target(-6) is None
    assert cfg.block_at[len(code)] == len(cfg.blocks)


@pytest.mark.parametrize("terminator", [
    ins.Invoke(0, (0,), 1),
    ins.InvokeClosure(0, (0,), 1),
    ins.Fatal("unreachable"),
    ins.Ret(0),
])
def test_a_block_ends_after_each_terminator(terminator):
    code = [ins.LoadConsti(0, 0), terminator, ins.Move(1, 2), ins.Ret(2)]
    cfg = CFG(code)
    assert cfg.blocks == [(0, 2), (2, 4)]
    falls_through = terminator.opcode in (ins.Opcode.INVOKE, ins.Opcode.INVOKE_CLOSURE)
    assert cfg.succs == [[1] if falls_through else [], []]


def test_an_empty_function_has_no_blocks_and_no_facts():
    cfg = CFG([])
    assert cfg.blocks == [] and cfg.succs == [] and cfg.block_at == {0: 0}
    assert forward(cfg, frozenset(), lambda b, facts: facts, frozenset.__and__) == []


def test_forward_meets_at_a_join_and_leaves_unreached_blocks_none():
    # 0: if r0 == r1 then 1 else 3; 1-2: then, goto 4; 3: else; 4: ret;
    # 5: after the ret, no path reaches it, and it falls off the end.
    code = [ins.If(0, 1, 1, 3), ins.Move(0, 2), ins.Goto(2), ins.Move(1, 2),
            ins.Ret(2), ins.Move(2, 3)]
    cfg = CFG(code)
    assert cfg.blocks == [(0, 1), (1, 3), (3, 4), (4, 5), (5, 6)]
    assert cfg.succs == [[1, 2], [3], [3], [], []]

    def seen(b, facts):
        return facts | {b}

    must = forward(cfg, frozenset(), seen, frozenset.__and__)
    assert must == [frozenset(), {0}, {0}, {0}, None]
    may = forward(cfg, frozenset(), seen, frozenset.__or__)
    assert may == [frozenset(), {0}, {0}, {0, 1, 2}, None]


def test_forward_reaches_a_fixed_point_around_a_loop():
    # 0: init; 1: the loop head; 2: its body, jumping back; 3: the exit.
    code = [ins.LoadConsti(0, 0), ins.If(0, 1, 1, 3), ins.Move(0, 2), ins.Goto(-2),
            ins.Ret(2)]
    cfg = CFG(code)
    assert cfg.blocks == [(0, 1), (1, 2), (2, 4), (4, 5)]
    assert cfg.succs == [[1], [2, 3], [1], []]
    calls = []

    def seen(b, facts):
        calls.append(b)
        return facts | {b}

    facts = forward(cfg, frozenset(), seen, frozenset.__or__)
    assert facts == [frozenset(), {0, 1, 2}, {0, 1, 2}, {0, 1, 2}]
    # The back edge grows the head's facts once; after that nothing changes.
    assert calls.count(1) == 2


def _compiled_functions():
    from repro.models.lstm import LSTMWeights, build_lstm_module
    from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module

    mods = [
        build_lstm_module(LSTMWeights.create(input_size=12, hidden_size=16, num_layers=2, seed=0)),
        build_tree_lstm_module(TreeLSTMWeights.create(input_size=12, hidden_size=8, seed=0)),
    ]
    return [f for mod in mods for f in nimble.build(mod, intel_cpu())[0].functions]


def test_blocks_tile_every_compiled_function_and_follow_its_successors():
    funcs = _compiled_functions()
    assert any(not is_straight_line(f) for f in funcs)
    for func in funcs:
        code = func.instructions
        cfg = CFG(code)
        assert [pc for start, end in cfg.blocks for pc in range(start, end)] == list(range(len(code)))
        for b, (start, end) in enumerate(cfg.blocks):
            for pc in range(start, end - 1):
                assert code[pc].opcode not in (ins.Opcode.IF, ins.Opcode.GOTO, ins.Opcode.RET,
                                               ins.Opcode.FATAL)
            assert cfg.succs[b] == [cfg.block_at[t] for t in successors(end - 1, code[end - 1])]
        if is_straight_line(func):
            assert len(cfg.blocks) == 1
