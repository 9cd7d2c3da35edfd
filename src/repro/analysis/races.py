"""Stream-schedule race detector: an N-version cross-check of the static
scheduler (`vm/schedule.py`).

The scheduler inserts ``StreamEvent``/``StreamWait`` pairs using its own
vector-clock bookkeeping. This checker trusts **none** of that state: it
re-derives happens-before purely from the *serialized* bytecode — the
events and waits actually present in the instruction stream — and then
demands that every RAW/WAR/WAW hazard edge of
:func:`repro.vm.schedule.build_dependency_graph` is covered. A scheduler
bug that records the right internal clocks but emits the wrong
instructions (or a blob corrupted after the fact) is caught here, where a
re-run of the scheduler would happily agree with itself.

Happens-before model (matching the interpreter's stream semantics):

* streams are in-order queues: kernel *k* on stream *s* is ordered after
  every earlier kernel on *s*, for free;
* ``StreamEvent(e, dev, t)`` records a snapshot of everything stream *t*
  has issued **and** is transitively ordered after, at that point of the
  instruction stream;
* ``StreamWait(e, dev, s)`` merges that snapshot into stream *s*'s
  knowledge — waiting on a never-recorded event is the interpreter's
  documented no-op, so the model learns nothing from it (which is
  exactly how a reordered event betrays itself: its waits stop teaching);
* a ``DeviceCopy`` from a GPU synchronizes the device: everything issued
  so far is retired for every stream (the global ``floor``) — mirroring
  the barrier that lets ``build_dependency_graph`` drop old edges. A copy
  from the host synchronizes nothing.

Cross-function obligations (the fence/join contract of
``docs/scheduling.md``): a scheduled **non-entry** function runs under a
caller that assumes it is a stream-0 unit — the LSTM cell invoked from a
loop is the canonical case. The checker models the caller as one virtual
kernel already pending on stream 0 and requires (a) every side-stream
kernel to be ordered after it (the *entry fence*) and (b) stream 0 to be
ordered after every side stream's last kernel before ``Ret`` (the *exit
join*). Dropping either half of the bracket is a race against the
caller's previous or next iteration even when the body is internally
consistent.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

from repro.errors import Finding
from repro.vm import instruction as ins
from repro.vm.cfg import is_straight_line
from repro.vm.executable import Executable, VMFunction
from repro.vm.schedule import build_dependency_graph


def _check_function(
    func: VMFunction, is_entry: bool
) -> List[Finding]:
    has_sync = any(
        isinstance(i, (ins.StreamEvent, ins.StreamWait))
        for i in func.instructions
    )
    has_side = any(
        isinstance(i, ins.InvokePacked) and i.stream != 0
        for i in func.instructions
    )
    if not is_straight_line(func):
        if has_sync or has_side:
            # The scheduler's first soundness rule: control flow and
            # calls never get a static schedule. A branch could skip an
            # event its waiter relies on.
            return [
                Finding(
                    "races", func.name, -1,
                    "function with control flow or calls carries a "
                    "stream schedule (events/waits or side-stream "
                    "kernels); the static scheduler is unsound here",
                )
            ]
        return []
    if not has_sync and not has_side:
        return []  # pure stream-0 unit: program order covers everything

    findings: List[Finding] = []
    nodes = build_dependency_graph(func)
    node_at = {n.pos: n for n in nodes}
    # issued[s]: kernels issued on stream s so far (1-based seq numbers).
    # know[s][t]: newest seq on stream t that stream s is ordered after.
    # floor[t]: seqs on t retired for *everyone* (device->host copy sync).
    issued: Dict[int, int] = defaultdict(int)
    know: Dict[int, Dict[int, int]] = defaultdict(dict)
    floor: Dict[int, int] = {}
    events: Dict[int, Dict[int, int]] = {}
    ts: Dict[int, tuple] = {}  # node id -> (stream, seq)
    if not is_entry:
        issued[0] = 1  # the virtual caller kernel pending on stream 0

    def ordered(s: int, t: int, seq: int) -> bool:
        if t == s:
            return True  # in-order stream
        if floor.get(t, 0) >= seq:
            return True  # device-synced
        return know[s].get(t, 0) >= seq

    unfenced_reported: Set[int] = set()
    for pos, instr in enumerate(func.instructions):
        if isinstance(instr, ins.StreamEvent):
            snap = dict(know[instr.stream])
            snap[instr.stream] = issued[instr.stream]
            events[instr.event_index] = snap
        elif isinstance(instr, ins.StreamWait):
            snap = events.get(instr.event_index)
            if snap is None:
                continue  # never recorded: interpreter no-op, teaches nothing
            k = know[instr.stream]
            for t, seq in snap.items():
                if k.get(t, 0) < seq:
                    k[t] = seq
        elif isinstance(instr, ins.DeviceCopy) and instr.src_device.is_gpu:
            for t, seq in issued.items():
                if floor.get(t, 0) < seq:
                    floor[t] = seq
        elif isinstance(instr, ins.InvokePacked):
            node = node_at.get(pos)
            if node is None:
                continue  # host-side kernel: no device ordering edges
            s = instr.stream
            if (
                not is_entry
                and s != 0
                and s not in unfenced_reported
                and not ordered(s, 0, 1)
            ):
                unfenced_reported.add(s)
                findings.append(
                    Finding(
                        "races", func.name, pos,
                        f"stream {s} runs kernels without waiting on the "
                        f"caller's pending stream-0 work (missing entry "
                        f"fence)",
                    )
                )
            for d in sorted(node.deps):
                dep_stream, dep_seq = ts[d]
                if not ordered(s, dep_stream, dep_seq):
                    findings.append(
                        Finding(
                            "races", func.name, pos,
                            f"hazard edge unordered: kernel@{pos} (stream "
                            f"{s}) depends on kernel@{nodes[d].pos} "
                            f"(stream {dep_stream}) with no "
                            f"happens-before path",
                        )
                    )
            issued[s] += 1
            ts[node.id] = (s, issued[s])
        elif isinstance(instr, ins.Ret):
            break  # straight-line: first Ret ends the function
    if not is_entry:
        for t, seq in issued.items():
            if t != 0 and seq > 0 and not ordered(0, t, seq):
                findings.append(
                    Finding(
                        "races", func.name, -1,
                        f"stream 0 returns before stream {t}'s kernels "
                        f"are ordered (missing exit join)",
                    )
                )
    return findings


def check_races(exe: Executable) -> List[Finding]:
    """Re-derive happens-before from the serialized schedule of every
    function and check each hazard edge of the AOT dependency graph."""
    entry_index = exe.func_index.get(exe.entry)
    findings: List[Finding] = []
    for i, func in enumerate(exe.functions):
        findings.extend(_check_function(func, is_entry=(i == entry_index)))
    return findings
