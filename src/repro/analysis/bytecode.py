"""Static bytecode verifier: abstract interpretation over each
:class:`VMFunction`.

Proves, without executing anything:

* every register is defined on **all** control-flow paths before it is
  read (parameters arrive pre-defined in registers ``0..num_params-1``);
* operands are structurally valid per opcode (register indices inside
  the declared register file, every count field — ``arity``,
  ``num_fields``, ``num_captured`` — agrees with the tuple it counts,
  ``output_size`` fits inside ``arity``, a static ``AllocTensor`` shape
  has no negative dimension);
* constant-pool, function-table, and kernel-table indices are in
  bounds, and ``Invoke`` passes the callee's declared parameter count;
* a tensor is only ever allocated out of a register that can actually
  hold a storage block (``AllocStorage`` result, possibly moved) —
  never one that provably holds something else;
* jump targets stay inside the function and no path falls off the end
  (the interpreter raises ``VMError`` for that at run time; the
  verifier rejects it at load time);
* stream/event operands fit the executable's declared schedule
  (``stream < device_streams``, ``event_index < num_events``).

The analysis is a forward dataflow fixpoint over two register facts:
*definitely defined* (meet = intersection — must hold on every path)
and *definitely not a storage block* (meet = intersection). Both are
bitmasks over the register file, so the transfer functions are integer
ops and the whole pass costs a small fraction of a compile
(``benchmarks/bench_verify.py`` asserts <15%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import Finding
from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction

# Instructions that terminate a path: control never falls through them.
_TERMINAL = (ins.Ret, ins.Fatal)


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


def _successors(pc: int, instr: ins.Instruction, length: int) -> List[int]:
    if isinstance(instr, _TERMINAL):
        return []
    if isinstance(instr, ins.Goto):
        return [pc + instr.pc_offset]
    if isinstance(instr, ins.If):
        return [pc + instr.true_offset, pc + instr.false_offset]
    return [pc + 1]


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
        for name, _, count in ins.layout(type(instr)):
            if count is None:
                continue
            claimed, actual = getattr(instr, count), len(getattr(instr, name))
            if claimed != actual:
                bad(pc, f"{count} {claimed} disagrees with {actual} "
                        f"register(s) in {name}")
        if isinstance(instr, ins.InvokePacked):
            if not 0 <= instr.output_size <= instr.arity:
                bad(pc, f"output_size {instr.output_size} outside "
                        f"[0, arity={instr.arity}]")
            if not 0 <= instr.packed_index < len(exe.kernels):
                bad(pc, f"packed_index {instr.packed_index} outside the "
                        f"kernel table ({len(exe.kernels)})")
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
            for target in _successors(pc, instr, n):
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

    params_mask = (1 << func.num_params) - 1
    # defined[pc] / nonstorage[pc]: facts on entry to pc. None marks a
    # pc the fixpoint has not reached (unreachable so far).
    defined: List[Optional[int]] = [None] * n
    nonstorage: List[Optional[int]] = [None] * n
    defined[0] = params_mask
    nonstorage[0] = 0
    work = [0]
    while work:
        pc = work.pop()
        instr = func.instructions[pc]
        d, s = defined[pc], nonstorage[pc]
        _, writes = ops[pc]
        for reg in writes:
            d |= 1 << reg
        if isinstance(instr, ins.Move):
            # dst inherits src's storage-ness verdict.
            if s & (1 << instr.src):
                s |= 1 << instr.dst
            else:
                s &= ~(1 << instr.dst)
        elif isinstance(instr, ins.AllocStorage):
            s &= ~(1 << instr.dst)
        elif isinstance(instr, _NON_STORAGE_DEFS):
            s |= 1 << instr.dst
        elif isinstance(instr, (ins.Invoke, ins.InvokeClosure, ins.GetField)):
            # Results of calls / field projections: unknown — assume
            # they *could* be storage so the check below never lies.
            s &= ~(1 << instr.dst)
        for target in _successors(pc, instr, n):
            if not 0 <= target < n:
                continue  # fall-through off the end: reported below
            if defined[target] is None:
                defined[target] = d
                nonstorage[target] = s
                work.append(target)
            else:
                nd = defined[target] & d
                ns = nonstorage[target] & s
                if nd != defined[target] or ns != nonstorage[target]:
                    defined[target] = nd
                    nonstorage[target] = ns
                    work.append(target)

    for pc, instr in enumerate(func.instructions):
        d = defined[pc]
        if d is None:
            continue  # unreachable: nothing to prove
        reads, _ = ops[pc]
        for reg in reads:
            if not d & (1 << reg):
                findings.append(
                    Finding("bytecode", func.name, pc,
                            f"register r{reg} read before definition on "
                            f"some path")
                )
        if isinstance(instr, (ins.AllocTensor, ins.AllocTensorReg)):
            if d & (1 << instr.storage) and nonstorage[pc] & (1 << instr.storage):
                findings.append(
                    Finding("bytecode", func.name, pc,
                            f"register r{instr.storage} provably does not "
                            f"hold a storage block")
                )
        if not isinstance(
            instr, _TERMINAL + (ins.Goto, ins.If)
        ) and pc + 1 == n:
            findings.append(
                Finding("bytecode", func.name, pc,
                        "execution falls off the end of the function")
            )
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
