"""AOT kernel dependency graphs and static multi-stream scheduling.

Nimble's runtime extension (following Kwon et al.'s *Nimble: Lightweight
and Parallel GPU Task Scheduling*): instead of enqueueing every kernel on
one device stream, the compiler builds the kernel dependency DAG *ahead
of time* from the bytecode's register def-use and storage aliasing,
assigns each device kernel to a stream, and inserts the minimal set of
cross-stream sync events (``StreamEvent``/``StreamWait`` — the modeled
``cudaEventRecord``/``cudaStreamWaitEvent``). At run time the interpreter
just replays the static schedule — no scheduling decisions on the hot
path, which is the whole point of doing it AOT.

Soundness rules (docs/scheduling.md):

* Only **straight-line** functions (no control flow, no calls) are
  scheduled. Anything with ``If``/``Goto``/``Invoke``/``InvokeClosure``/
  ``AllocClosure`` stays on stream 0 — its kernels keep the exact
  single-lane model.
* Only device (GPU) compute kernels are stream-assigned. Shape
  functions, host-scalar kernels and CPU compute run synchronously on
  the host and need no ordering edges.
* Dependencies: RAW through register producer sets (propagated from
  every register ``dst`` aliases, ``instruction.aliases``), WAR/WAW through
  storage tokens (one per ``AllocStorage`` site — the memory planner
  only coalesces *dead* storages, so token hazards are real).
* A device→host ``DeviceCopy`` is a model barrier: the interpreter syncs
  a GPU source before copying, so dependencies on anything older are
  already satisfied and need no events. A host→device copy syncs nothing.
* A scheduled **non-entry** function is bracketed by an *entry fence*
  (its side streams wait on an event recorded on stream 0, ordering the
  body after whatever the caller had in flight) and an *exit join*
  (stream 0 waits on an event per side stream before ``Ret``), so a
  caller that loops or recurses over it — the LSTM cell — sees it as a
  stream-0 unit. The entry function is left unfenced; cross-run reuse
  is covered by the per-run device synchronization in ``VM.run`` and
  the serving layer's per-stream pool assumption.

Event minimization uses per-stream vector clocks: each stream tracks,
per other stream, the newest kernel it is transitively ordered after;
a wait is emitted only when a dependency is not already covered, one
event per producer kernel is shared by all its waiters, and a wait
merges the producer's snapshot so later dependencies ride on earlier
syncs for free.

Everything here only changes the *modeled* timeline. The interpreter
still executes kernels host-sequentially in program order, so outputs
are bitwise identical across stream counts by construction — the
differential suite asserts exactly that.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction

# Any of these makes a function non-straight-line: control flow means a
# static event schedule could wait on a never-recorded event's *producer
# side effects*, and calls interleave another function's kernels into the
# middle of ours. Such functions keep the single-stream model.
_CONTROL_FLOW = (
    ins.If,
    ins.Goto,
    ins.Invoke,
    ins.InvokeClosure,
    ins.AllocClosure,
)


def is_straight_line(func: VMFunction) -> bool:
    """True if the function has no control flow and no calls — the class
    of functions the static scheduler is sound for."""
    return not any(isinstance(i, _CONTROL_FLOW) for i in func.instructions)


@dataclass
class KernelNode:
    """One device compute kernel in a function's dependency DAG."""

    id: int  # dense, in program order
    pos: int  # index into the function's instruction list
    instr: ins.InvokePacked
    # ids of kernels this one must be ordered after (RAW/WAR/WAW), with
    # anything already covered by a DeviceCopy barrier filtered out.
    deps: FrozenSet[int]
    stream: int = 0


def build_dependency_graph(func: VMFunction) -> List[KernelNode]:
    """Walk the bytecode once and recover the kernel dependency DAG.

    Tracks, per register, the set of kernel nodes whose results flow
    into it (RAW) and the set of storage tokens its value aliases
    (WAR/WAW); an instruction's :func:`~repro.vm.instruction.aliases`
    propagate both.
    """
    producers: Dict[int, FrozenSet[int]] = defaultdict(frozenset)
    tokens: Dict[int, FrozenSet[int]] = defaultdict(frozenset)
    next_token = 0
    last_writer: Dict[int, int] = {}
    readers_since: Dict[int, Set[int]] = defaultdict(set)
    # Kernels with id <= barrier are complete from everyone's point of
    # view (a device->host copy synced the device); deps on them are dropped.
    barrier = -1
    nodes: List[KernelNode] = []

    for pos, instr in enumerate(func.instructions):
        if isinstance(instr, ins.InvokePacked):
            if instr.kind == "compute" and instr.device.is_gpu:
                nid = len(nodes)
                deps: Set[int] = set()
                for r in instr.inputs:
                    deps |= producers[r]
                for r in instr.outputs:
                    for tok in tokens[r]:
                        w = last_writer.get(tok)
                        if w is not None:
                            deps.add(w)  # WAW
                        deps |= readers_since[tok]  # WAR
                for r in instr.inputs:
                    for tok in tokens[r]:
                        readers_since[tok].add(nid)
                for r in instr.outputs:
                    producers[r] = frozenset((nid,))
                    for tok in tokens[r]:
                        last_writer[tok] = nid
                        readers_since[tok] = set()
                nodes.append(
                    KernelNode(
                        nid,
                        pos,
                        instr,
                        frozenset(d for d in deps if d > barrier),
                    )
                )
            else:
                # Host-side kernel (shape func / host scalar / CPU
                # compute): runs synchronously, writes host memory —
                # no device ordering edges in or out.
                for r in instr.outputs:
                    producers[r] = frozenset()
            continue
        # dst carries the producers and tokens of every register it
        # aliases; anything else it holds is fresh.
        prod: FrozenSet[int] = frozenset()
        toks: FrozenSet[int] = frozenset()
        for r in ins.aliases(instr):
            prod |= producers[r]
            toks |= tokens[r]
        if isinstance(instr, ins.AllocStorage):
            toks = frozenset((next_token,))
            next_token += 1
        elif isinstance(instr, ins.DeviceCopy) and instr.src_device.is_gpu:
            # The interpreter syncs a GPU source before copying:
            # everything enqueued so far is retired by the time any
            # later kernel launches. A copy from the host syncs nothing.
            barrier = len(nodes) - 1
        for dst in ins.operands(instr)[1]:
            producers[dst] = prod
            tokens[dst] = toks
    return nodes


def assign_streams(nodes: List[KernelNode], num_streams: int) -> None:
    """Greedy program-order stream assignment (deterministic).

    A kernel chains onto a stream whose *most recent* kernel is one of
    its dependencies (same-stream ordering is free — in-order streams
    need no event for it); with several such streams the lowest id wins.
    An independent kernel opens the least-loaded stream, ties to the
    lowest id.
    """
    last_on_stream: Dict[int, int] = {}
    load = [0] * num_streams
    for node in nodes:
        chain = [s for s, nid in last_on_stream.items() if nid in node.deps]
        if chain:
            stream = min(chain)
        else:
            stream = min(range(num_streams), key=lambda s: (load[s], s))
        node.stream = stream
        last_on_stream[stream] = node.id
        load[stream] += 1


@dataclass
class FunctionSchedule:
    """The scheduling decision for one function, exposed for tests and
    the study harness."""

    nodes: List[KernelNode]
    streams_used: Tuple[int, ...]
    num_events: int
    num_waits: int


def _plan_events(
    nodes: List[KernelNode], num_streams: int
) -> Tuple[Dict[int, List[ins.StreamEvent]], Dict[int, List[ins.StreamWait]], int, int]:
    """Vector-clock minimal event insertion.

    Returns (events to append after instruction pos, waits to prepend
    before instruction pos, number of events, number of waits).
    """
    events_after: Dict[int, List[ins.StreamEvent]] = defaultdict(list)
    waits_before: Dict[int, List[ins.StreamWait]] = defaultdict(list)
    event_of: Dict[int, int] = {}
    next_event = 0
    num_waits = 0
    # completed[s][t] = newest node id on stream t that stream s is
    # (transitively) ordered after; snapshot[d] = what d's stream knew
    # the moment d retired — what a wait on d's event teaches.
    completed: Dict[int, Dict[int, int]] = {s: {} for s in range(num_streams)}
    snapshot: Dict[int, Dict[int, int]] = {}
    for node in nodes:
        s = node.stream
        know = completed[s]
        for d in sorted(node.deps):
            dep = nodes[d]
            t = dep.stream
            if t == s:
                continue  # in-order stream: free
            if know.get(t, -1) >= d:
                continue  # already covered, transitively
            if d not in event_of:
                event_of[d] = next_event
                next_event += 1
                events_after[dep.pos].append(
                    ins.StreamEvent(event_of[d], dep.instr.device, t)
                )
            waits_before[node.pos].append(
                ins.StreamWait(event_of[d], node.instr.device, s)
            )
            num_waits += 1
            for t2, nid2 in snapshot[d].items():
                if know.get(t2, -1) < nid2:
                    know[t2] = nid2
        snap = dict(know)
        snap[s] = node.id
        snapshot[node.id] = snap
        know[s] = node.id
    return events_after, waits_before, next_event, num_waits


def schedule_function(
    func: VMFunction, num_streams: int, is_entry: bool
) -> Tuple[Optional[VMFunction], Optional[FunctionSchedule]]:
    """Schedule one straight-line function onto ``num_streams`` streams.

    Returns ``(new_function, schedule)``, or ``(None, None)`` when the
    function gains nothing (fewer than two device kernels, or the
    assignment keeps everything on stream 0) — callers leave it
    untouched so the single-stream bytecode stays byte-for-byte what
    the unscheduled compiler emits.
    """
    nodes = build_dependency_graph(func)
    if len(nodes) < 2:
        return None, None
    assign_streams(nodes, num_streams)
    used = sorted({n.stream for n in nodes})
    if used == [0]:
        return None, None
    events_after, waits_before, num_events, num_waits = _plan_events(
        nodes, num_streams
    )
    device = nodes[0].instr.device
    side_streams = [s for s in used if s != 0]

    prologue: List[ins.Instruction] = []
    if not is_entry and side_streams:
        # Entry fence: order the body's side streams after everything
        # the caller had pending on stream 0.
        fence = num_events
        num_events += 1
        prologue.append(ins.StreamEvent(fence, device, 0))
        for s in side_streams:
            prologue.append(ins.StreamWait(fence, device, s))
            num_waits += 1

    join: List[ins.Instruction] = []
    if not is_entry and side_streams:
        # Exit join: stream 0 waits for every side stream, so the caller
        # (which runs everything on stream 0) sees the function as one
        # stream-0 unit.
        for s in side_streams:
            ev = num_events
            num_events += 1
            join.append(ins.StreamEvent(ev, device, s))
            join.append(ins.StreamWait(ev, device, 0))
            num_waits += 1

    node_at = {n.pos: n for n in nodes}
    new_instrs: List[ins.Instruction] = list(prologue)
    joined = False
    for pos, instr in enumerate(func.instructions):
        if not joined and isinstance(instr, ins.Ret):
            new_instrs.extend(join)
            joined = True
        new_instrs.extend(waits_before.get(pos, ()))
        node = node_at.get(pos)
        if node is not None:
            instr = replace(instr, stream=node.stream)
        new_instrs.append(instr)
        new_instrs.extend(events_after.get(pos, ()))
    if not joined:
        new_instrs.extend(join)

    scheduled = VMFunction(
        func.name, func.num_params, new_instrs, func.register_count
    )
    summary = FunctionSchedule(nodes, tuple(used), num_events, num_waits)
    return scheduled, summary


def schedule_executable(
    exe: Executable, num_streams: int
) -> Dict[str, FunctionSchedule]:
    """Run the static scheduler over every schedulable function of an
    executable, in place.

    Sets ``exe.device_streams`` and ``exe.num_events`` (the run-time
    event-table size: the max any one function uses — scheduled
    functions cannot nest, so indices are reused across functions).
    With ``num_streams <= 1`` this is a guaranteed no-op: the bytecode
    is left untouched and the executable stays byte-identical to an
    unscheduled build.
    """
    if num_streams <= 1:
        exe.device_streams = 1
        exe.num_events = 0
        return {}
    entry_index = exe.func_index.get(exe.entry)
    schedules: Dict[str, FunctionSchedule] = {}
    max_events = 0
    for i, func in enumerate(exe.functions):
        if not is_straight_line(func):
            continue
        new_func, summary = schedule_function(
            func, num_streams, is_entry=(i == entry_index)
        )
        if new_func is not None and summary is not None:
            exe.functions[i] = new_func
            schedules[func.name] = summary
            max_events = max(max_events, summary.num_events)
    exe.device_streams = num_streams
    exe.num_events = max_events
    return schedules
