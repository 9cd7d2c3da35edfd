"""Memory-plan lifetime checker.

The memory planner coalesces storage only when live ranges are provably
disjoint; the VM then releases every storage block by reference count at
frame teardown — on the return path *and* on error paths (``Fatal`` or a
raised ``VMError`` unwinds the frame, dropping every register and with
them the last references), which is why "released on all paths" is a
structural property of the frame model rather than per-path bookkeeping.
What can still go wrong statically, and what this checker proves never
does:

* two tensors carved out of the **same** storage token, with
  **intersecting byte ranges**, are never **live at the same time** —
  the planner's one invariant, re-proven from the bytecode instead of
  the planner's own interval data (N-version, like the race checker);
* a tensor is not read before anything has written it (uninitialized
  bytes) — *warning*, since a kernel may legitimately treat an output
  as scratch;
* every allocated storage block is actually carved into at least one
  tensor — *warning*: an unused allocation is dead weight the planner
  should have eliminated, not a soundness hole.

Scope: straight-line functions only — the ones the stream scheduler
restructures. The memory planner also coalesces inside functions with
control flow (the 16-wide LSTM's loop body: allocs 11 → 8), and those
this checker skips whole, proving nothing about them. Extents are
resolved by constant propagation over ``LoadConsti``/``LoadConst`` of
scalar integers — the form the compiler emits for every static
allocation site. A dynamic site (``AllocTensorReg``) at the constant
offset 0 is a *whole-storage* tensor of unknown extent: the planner puts
several of them on one dynamically sized token (a dead storage sized by
the same size variable is reused), so any two tensors on one token whose
byte ranges intersect *or are unknown* must have disjoint live ranges.
Only a register-valued offset that never resolves still makes its token
*unverifiable* and skipped. The host's own reads count as uses: the size
scalar of an ``AllocStorage`` and the shape vector of an
``AllocTensorReg`` are tensors too, and live as long as the last
allocation that reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.errors import Finding
from repro.vm import instruction as ins
from repro.vm.cfg import is_straight_line
from repro.vm.executable import Executable, VMFunction


@dataclass
class _Storage:
    token: int
    pc: int
    size: Optional[int]
    used: bool = False
    unverifiable: bool = False


@dataclass
class _Tensor:
    uid: int
    token: int
    pc: int
    offset: Optional[int]
    nbytes: Optional[int]
    first_write: Optional[int] = None
    last_use: int = -1
    has_read: bool = False
    escapes: bool = False


def _scalar_int(value) -> Optional[int]:
    arr = np.asarray(value.numpy() if hasattr(value, "numpy") else value)
    if arr.size == 1 and arr.dtype.kind in "iu":
        return int(arr.reshape(())[()])
    return None


def check_function_lifetimes(
    func: VMFunction, exe: Executable
) -> List[Finding]:
    if not is_straight_line(func):
        return []
    findings: List[Finding] = []
    consts: Dict[int, Optional[int]] = {}
    storages: List[_Storage] = []
    storage_of: Dict[int, Optional[int]] = {}  # register -> token
    tensors: List[_Tensor] = []
    held: Dict[int, FrozenSet[int]] = {}  # register -> tensor uids

    def define(reg: int, const=None, token=None, uids=frozenset()) -> None:
        """*reg* now holds *const*, storage *token*, tensors *uids*."""
        consts[reg], storage_of[reg], held[reg] = const, token, uids

    def read(reg: int, pc: int) -> None:
        for uid in held.get(reg, ()):  # a data read of every aliased tensor
            t = tensors[uid]
            t.last_use = pc
            t.has_read = True

    def write(reg: int, pc: int) -> None:
        for uid in held.get(reg, ()):
            t = tensors[uid]
            if t.first_write is None:
                t.first_write = pc
            t.last_use = pc

    n = len(func.instructions)
    for pc, instr in enumerate(func.instructions):
        if isinstance(instr, ins.LoadConsti):
            define(instr.dst, const=int(instr.value))
        elif isinstance(instr, ins.LoadConst):
            define(instr.dst, const=_scalar_int(exe.constants[instr.const_index]))
        elif isinstance(instr, ins.AllocStorage):
            read(instr.allocation_size, pc)
            token = len(storages)
            storages.append(
                _Storage(token, pc, consts.get(instr.allocation_size))
            )
            define(instr.dst, token=token)
        elif isinstance(instr, (ins.AllocTensor, ins.AllocTensorReg)):
            token = storage_of.get(instr.storage)
            if isinstance(instr, ins.AllocTensorReg):
                read(instr.shape_register, pc)
            define(instr.dst)
            if token is None:
                continue  # bytecode checker owns "not a storage" findings
            storage = storages[token]
            storage.used = True
            offset = consts.get(instr.offset)
            nbytes: Optional[int] = None
            if isinstance(instr, ins.AllocTensorReg):
                # Shape arrives in a register: the extent is unknown, so
                # only a tensor that starts the storage stays provable.
                storage.unverifiable |= offset != 0
            else:
                try:
                    itemsize = np.dtype(instr.dtype).itemsize
                    nbytes = int(np.prod(instr.shape, dtype=np.int64)) * itemsize
                except TypeError:
                    storage.unverifiable = True
            if offset is None:
                storage.unverifiable = True
            uid = len(tensors)
            tensors.append(_Tensor(uid, token, pc, offset, nbytes))
            held[instr.dst] = frozenset((uid,))
        elif isinstance(instr, ins.InvokePacked):
            for r in instr.inputs:
                read(r, pc)
            for r in instr.outputs:
                write(r, pc)
        elif isinstance(instr, ins.DeviceCopy):
            read(instr.src, pc)
            define(instr.dst)  # fresh buffer on the destination device
        elif isinstance(instr, ins.Ret):
            for uid in held.get(instr.result, ()):
                t = tensors[uid]
                t.escapes = True
                t.last_use = n  # alive past the frame
            break
        else:
            # dst holds the tensors of every register it aliases; a
            # constant or a storage token follows a Move only.
            merged: FrozenSet[int] = frozenset()
            for r in ins.aliases(instr):
                merged |= held.get(r, frozenset())
            if isinstance(instr, ins.Move):
                define(instr.dst, consts.get(instr.src), storage_of.get(instr.src), merged)
            else:
                for dst in ins.operands(instr)[1]:
                    define(dst, uids=merged)

    by_token: Dict[int, List[_Tensor]] = {}
    for t in tensors:
        by_token.setdefault(t.token, []).append(t)
    for storage in storages:
        if not storage.used:
            findings.append(
                Finding(
                    "lifetimes", func.name, storage.pc,
                    "storage block is allocated but never carved into a "
                    "tensor",
                    severity="warning",
                )
            )
        if storage.unverifiable:
            continue
        group = by_token.get(storage.token, [])
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.offset is None or b.offset is None:
                    continue
                if a.nbytes is not None and a.offset + a.nbytes <= b.offset:
                    continue  # disjoint byte ranges
                if b.nbytes is not None and b.offset + b.nbytes <= a.offset:
                    continue
                fa = a.first_write if a.first_write is not None else a.pc
                fb = b.first_write if b.first_write is not None else b.pc
                if max(fa, fb) <= min(a.last_use, b.last_use):
                    findings.append(
                        Finding(
                            "lifetimes", func.name, b.pc,
                            f"tensors@{a.pc} and @{b.pc} share storage "
                            f"token {storage.token} with intersecting "
                            f"byte ranges and overlapping live intervals",
                        )
                    )
    for t in tensors:
        if t.has_read and t.first_write is None:
            findings.append(
                Finding(
                    "lifetimes", func.name, t.pc,
                    "tensor is read but never written in this frame "
                    "(uninitialized bytes unless the kernel treats it "
                    "as scratch)",
                    severity="warning",
                )
            )
    return findings


def check_lifetimes(exe: Executable) -> List[Finding]:
    """Prove the memory plan of every straight-line function sound."""
    findings: List[Finding] = []
    for func in exe.functions:
        findings.extend(check_function_lifetimes(func, exe))
    return findings
