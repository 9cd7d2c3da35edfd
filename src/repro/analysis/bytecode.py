"""Static bytecode verifier: abstract interpretation over each
:class:`VMFunction`.

Proves, without executing anything:

* every register is defined on **all** control-flow paths before it is
  read (parameters arrive pre-defined in registers ``0..num_params-1``);
* operands are structurally valid per opcode (register indices inside
  the declared register file, a static ``AllocTensor`` shape has no
  negative dimension);
* constant-pool, function-table, and kernel-table indices are in
  bounds, and ``Invoke`` passes the callee's declared parameter count;
* an ``InvokePacked`` names a known kernel kind, and calls a shape
  function exactly when its kind says ``shape_func`` (the interpreter
  prices and runs the two differently);
* a tensor is only ever allocated out of a register that can actually
  hold a storage block (``AllocStorage`` result, possibly moved) —
  never one that provably holds something else;
* jump targets stay inside the function and no path falls off the end
  (the interpreter raises ``VMError`` for that at run time; the
  verifier rejects it at load time);
* stream/event operands fit the executable's declared schedule
  (``stream < device_streams``, ``event_index < num_events``).

The analysis is a forward dataflow fixpoint (`repro.vm.cfg.forward`,
over the function's basic blocks) of two register facts: *definitely
defined* (meet = intersection — must hold on every path) and
*definitely not a storage block* (meet = intersection); each reachable
block is then replayed once to check every instruction against the
facts before it. Both facts are bitmasks over the register file, so the
transfer functions are integer ops and the whole pass costs a small
fraction of a compile (``benchmarks/bench_verify.py`` asserts <15%).
The lattice is this module's own, not the VM generator's register
kinds: the verifier checks what the generator assumes, independently.
"""

from __future__ import annotations

from functools import reduce
from typing import List, Tuple

from repro.codegen.kernels import ShapeFuncKernel
from repro.errors import Finding
from repro.vm import instruction as ins
from repro.vm.cfg import CFG, forward, successors
from repro.vm.executable import Executable, VMFunction

# The kinds the interpreter dispatches an InvokePacked on.
_KERNEL_KINDS = ("compute", "shape_func", "host_scalar")


# Opcodes whose destination certainly does NOT hold a storage block.
_NON_STORAGE_DEFS = (
    ins.AllocTensor,
    ins.AllocTensorReg,
    ins.AllocADT,
    ins.AllocClosure,
    ins.GetTag,
    ins.LoadConst,
    ins.LoadConsti,
    ins.DeviceCopy,
    ins.ShapeOf,
    ins.ReshapeTensor,
)


def _effect(instr: ins.Instruction, writes: Tuple[int, ...]) -> Tuple[int, int, int]:
    """What *instr* does to the facts, as register bitmasks ``(dst, src,
    known)``: it defines *dst*, which then copies *src*'s verdict (a
    ``Move``), is *known* not to hold a storage block, or else may hold
    one — a storage, a call's result, a field — so the check never lies."""
    if not writes:
        return 0, 0, 0
    dst = 1 << writes[0]
    if isinstance(instr, ins.Move):
        return dst, 1 << instr.src, 0
    return dst, 0, dst if isinstance(instr, _NON_STORAGE_DEFS) else 0


def _after(facts: Tuple[int, int], effect: Tuple[int, int, int]) -> Tuple[int, int]:
    """``(defined, nonstorage)`` after an instruction of *effect*."""
    d, s = facts
    dst, src, known = effect
    return d | dst, s & ~dst | known | (dst if s & src else 0)


def _structural_findings(
    func: VMFunction, exe: Executable, ops: List[Tuple]
) -> List[Finding]:
    """Per-instruction operand validity — no dataflow required."""
    findings: List[Finding] = []
    n = len(func.instructions)

    def bad(pc: int, message: str) -> None:
        findings.append(Finding("bytecode", func.name, pc, message))

    if func.num_params > func.register_count:
        findings.append(
            Finding(
                "bytecode", func.name, -1,
                f"{func.num_params} parameters exceed the register file "
                f"({func.register_count})",
            )
        )
    for pc, instr in enumerate(func.instructions):
        reads, writes = ops[pc]
        for reg in reads + writes:
            if not 0 <= reg < func.register_count:
                bad(pc, f"register r{reg} outside the register file "
                        f"(register_count={func.register_count})")
        if isinstance(instr, ins.InvokePacked):
            if not 0 <= instr.packed_index < len(exe.kernels):
                bad(pc, f"packed_index {instr.packed_index} outside the "
                        f"kernel table ({len(exe.kernels)})")
            elif instr.kind not in _KERNEL_KINDS:
                bad(pc, f"unknown kernel kind {instr.kind!r}")
            elif (instr.kind == "shape_func") != isinstance(
                exe.kernels[instr.packed_index], ShapeFuncKernel
            ):
                kernel = type(exe.kernels[instr.packed_index]).__name__
                bad(pc, f"{instr.kind} invocation of kernel "
                        f"{instr.packed_index}, a {kernel}")
            if not 0 <= instr.stream < max(1, exe.device_streams):
                bad(pc, f"stream {instr.stream} outside the declared "
                        f"schedule (device_streams={exe.device_streams})")
        elif isinstance(instr, (ins.Invoke, ins.AllocClosure)):
            if not 0 <= instr.func_index < len(exe.functions):
                bad(pc, f"func_index {instr.func_index} outside the "
                        f"function table ({len(exe.functions)})")
            elif isinstance(instr, ins.Invoke):
                want = exe.functions[instr.func_index].num_params
                if len(instr.args) != want:
                    bad(pc, f"@{exe.functions[instr.func_index].name} takes "
                            f"{want} parameter(s), called with {len(instr.args)}")
        elif isinstance(instr, ins.AllocTensor):
            if min(instr.shape, default=0) < 0:
                bad(pc, f"shape {instr.shape} has a negative dimension")
        elif isinstance(instr, ins.LoadConst):
            if not 0 <= instr.const_index < len(exe.constants):
                bad(pc, f"const_index {instr.const_index} outside the "
                        f"constant pool ({len(exe.constants)})")
        elif isinstance(instr, (ins.StreamEvent, ins.StreamWait)):
            if not 0 <= instr.event_index < max(1, exe.num_events):
                bad(pc, f"event_index {instr.event_index} outside the "
                        f"event table (num_events={exe.num_events})")
            if not 0 <= instr.stream < max(1, exe.device_streams):
                bad(pc, f"stream {instr.stream} outside the declared "
                        f"schedule (device_streams={exe.device_streams})")
        # Explicit jumps only: plain fall-through past the last
        # instruction is the dataflow pass's "falls off the end" finding,
        # not a bad jump target.
        if isinstance(instr, (ins.Goto, ins.If)):
            for target in successors(pc, instr):
                if not 0 <= target < n:
                    bad(pc, f"jump target {target} outside the function "
                            f"(length {n})")
    return findings


def check_function(func: VMFunction, exe: Executable) -> List[Finding]:
    """Verify one function; returns the (possibly empty) finding list."""
    ops = [ins.operands(i) for i in func.instructions]
    findings = _structural_findings(func, exe, ops)
    if findings:
        # Operand bounds are broken: the dataflow below would index off
        # the ends of its own lattices. The structural findings already
        # condemn the function.
        return findings

    n = len(func.instructions)
    if n == 0:
        return [Finding("bytecode", func.name, -1,
                        "empty function: execution falls off the end")]

    effects = [_effect(instr, writes) for instr, (_, writes) in zip(func.instructions, ops)]

    def transfer(b: int, facts: Tuple[int, int]) -> Tuple[int, int]:
        start, end = cfg.blocks[b]
        return reduce(_after, effects[start:end], facts)

    # (defined, nonstorage) on entry to each block; None marks a block
    # no path reaches, where there is nothing to prove.
    cfg = CFG(func.instructions)
    facts_in = forward(cfg, ((1 << func.num_params) - 1, 0), transfer,
                       lambda a, b: (a[0] & b[0], a[1] & b[1]))
    for (start, end), facts in zip(cfg.blocks, facts_in):
        if facts is None:
            continue
        for pc in range(start, end):
            d, s = facts
            instr = func.instructions[pc]
            for reg in ops[pc][0]:
                if not d & (1 << reg):
                    findings.append(
                        Finding("bytecode", func.name, pc,
                                f"register r{reg} read before definition on "
                                f"some path")
                    )
            if isinstance(instr, (ins.AllocTensor, ins.AllocTensorReg)):
                if d & (1 << instr.storage) and s & (1 << instr.storage):
                    findings.append(
                        Finding("bytecode", func.name, pc,
                                f"register r{instr.storage} provably does not "
                                f"hold a storage block")
                    )
            if pc + 1 == n and n in successors(pc, instr):
                findings.append(
                    Finding("bytecode", func.name, pc,
                            "execution falls off the end of the function")
                )
            facts = _after(facts, effects[pc])
    return findings


def check_bytecode(exe: Executable) -> List[Finding]:
    """Run the bytecode verifier over every function of *exe*."""
    findings: List[Finding] = []
    if exe.entry not in exe.func_index:
        findings.append(
            Finding("bytecode", exe.entry, -1,
                    f"entry function {exe.entry!r} missing from the "
                    f"function table")
        )
    for name, index in exe.func_index.items():
        if not 0 <= index < len(exe.functions):
            findings.append(
                Finding("bytecode", name, -1,
                        f"function index {index} outside the table "
                        f"({len(exe.functions)})")
            )
    for func in exe.functions:
        findings.extend(check_function(func, exe))
    return findings
