"""The control flow of VM bytecode, read in one place.

`successors` is the only code that reads an ``If``'s or a ``Goto``'s
offsets, or ends a path at ``Ret`` and ``Fatal``. `CFG` cuts a function
into basic blocks over it, and `forward` runs a forward dataflow over
those blocks to a fixed point, with the lattice its caller supplies:
the generator's register kinds (`repro.vm.generator`) and the bytecode
verifier's defined / non-storage registers (`repro.analysis.bytecode`)
are two lattices over this one graph, and each stays with its owner so
that the verifier checks the generator's assumptions independently.
`is_straight_line` says which functions the stream scheduler and the
race and lifetime checkers take.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.vm import instruction as ins
from repro.vm.executable import VMFunction

_Op = ins.Opcode

# Instructions after which control leaves a block: a jump, the end of a
# path, or a call (the caller resumes at the next instruction).
TERMINATORS = frozenset({_Op.IF, _Op.GOTO, _Op.RET, _Op.INVOKE, _Op.INVOKE_CLOSURE, _Op.FATAL})

# Any of these makes a function non-straight-line: control flow means a
# static event schedule could wait on a never-recorded event's *producer
# side effects*, and calls interleave another function's kernels into the
# middle of ours. Such functions keep the single-stream model.
_CONTROL_FLOW = frozenset({_Op.IF, _Op.GOTO, _Op.INVOKE, _Op.INVOKE_CLOSURE, _Op.ALLOC_CLOSURE})


def successors(pc: int, instr: ins.Instruction) -> Tuple[int, ...]:
    """The pcs control may go to after *instr* at *pc*: none after
    ``Ret`` / ``Fatal``, the targets of ``If`` / ``Goto``, else the next
    (a call returns there). A pc outside the function is kept: the
    caller reports it or raises on it."""
    op = instr.opcode
    if op == _Op.IF:
        return pc + instr.true_offset, pc + instr.false_offset
    if op == _Op.GOTO:
        return (pc + instr.pc_offset,)
    if op == _Op.RET or op == _Op.FATAL:
        return ()
    return (pc + 1,)


def is_tail_call(code: Sequence[ins.Instruction], pc: int) -> bool:
    """Whether the ``Invoke`` at *pc* is a tail call: what follows it
    reaches a ``Ret`` of its result through nothing but ``Move``s of it
    and ``Goto``s, which therefore never run."""
    result, seen = code[pc].dst, set()
    pc += 1
    while 0 <= pc < len(code) and pc not in seen:
        seen.add(pc)
        instr = code[pc]
        if instr.opcode == _Op.RET:
            return instr.result == result
        if instr.opcode == _Op.MOVE and instr.src == result:
            result = instr.dst
        elif instr.opcode != _Op.GOTO:
            return False
        pc = successors(pc, instr)[0]
    return False


def is_straight_line(func: VMFunction) -> bool:
    """True if the function has no control flow and no calls — the class
    of functions the static scheduler is sound for."""
    return not any(i.opcode in _CONTROL_FLOW for i in func.instructions)


class CFG:
    """The basic blocks of one function's code. Leaders are pc 0, every
    jump target inside the function, and the pc after each of
    `TERMINATORS`. ``blocks[b]`` is ``(start, end)``;
    ``block_at[pc]`` the block starting at *pc*, and ``block_at[n]`` is
    ``len(blocks)``, the end, where falling off raises; ``succs[b]`` the
    blocks control may go to from *b*, a target outside the function
    left out."""

    def __init__(self, code: Sequence[ins.Instruction]) -> None:
        n = len(code)
        self.n = n
        leaders = {0} if n else set()
        for pc, instr in enumerate(code):
            if instr.opcode in TERMINATORS:
                leaders.update(t for t in successors(pc, instr) + (pc + 1,) if 0 <= t < n)
        bounds = sorted(leaders) + [n]
        self.blocks: List[Tuple[int, int]] = list(zip(bounds, bounds[1:]))
        self.block_at = {start: b for b, (start, _) in enumerate(self.blocks)}
        self.block_at[n] = len(self.blocks)
        self.succs: List[List[int]] = [
            [self.block_at[t] for t in successors(end - 1, code[end - 1]) if 0 <= t < n]
            for _, end in self.blocks
        ]

    def target(self, pc: int) -> Optional[int]:
        """The block at *pc*, or None outside ``[0, n)``."""
        return self.block_at[pc] if 0 <= pc < self.n else None


Facts = TypeVar("Facts")


def forward(cfg: CFG, entry: Facts, transfer: Callable[[int, Facts], Facts],
            join: Callable[[Facts, Facts], Facts]) -> List[Optional[Facts]]:
    """The facts on entry to each block, to a fixed point: *entry* on
    entry to block 0, ``transfer(b, facts)`` on exit from block *b*, and
    ``join(old, new)`` where a path reaches a block again. None for a
    block no path reaches."""
    facts_in: List[Optional[Facts]] = [None] * len(cfg.blocks)
    if not cfg.blocks:
        return facts_in
    facts_in[0] = entry
    work = [0]
    while work:
        b = work.pop()
        out = transfer(b, facts_in[b])
        for s in cfg.succs[b]:
            old = facts_in[s]
            new = out if old is None else join(old, out)
            if new != old:
                facts_in[s] = new
                work.append(s)
    return facts_in
