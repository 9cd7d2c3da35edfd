"""The record list: what one simulation did, in the order it did it.

Every simulation keeps exactly one list of the small immutable records
below — a lone server's, or the one a fleet's router hands to all of its
replicas. Server, workers, specialization manager and router append to
it as they act; nothing reads it while the simulation runs. A record's
type is its kind; each carries its virtual time and, below the router,
its replica. :class:`~repro.serve.ServeReport` and
:class:`~repro.fleet.FleetReport` hold the list and compute every count,
sum and split they expose from it (docs/records.md has both tables).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.vm.profiler import VMProfile


def records_of(records, kind, replica: Optional[int] = None) -> list:
    """The records of one kind, in list order — one replica's, or the
    whole simulation's when *replica* is None."""
    found = [r for r in records if type(r) is kind]
    return found if replica is None else [r for r in found if r.replica == replica]


class Dispatch(NamedTuple):
    """One batch executed on a worker, on ``tier`` (a guard-deopted
    member gets a :class:`GuardDeopt` of its own). ``cause`` is why the
    bucket flushed — ``"size"`` (filled to its cap), ``"deadline"`` (its
    delay ran out) or ``"drain"`` (the trace ended); ``prearmed``, that
    the static variant serving it was armed predictively at time 0."""

    replica: int
    worker: int
    begin_us: float
    finish_us: float
    tier: str
    rids: Tuple[int, ...]
    bucket_key: Tuple
    cause: str
    prearmed: bool

    @property
    def size(self) -> int:
        return len(self.rids)


class VMRun(NamedTuple):
    """One VM call on a worker and what it charged: one per member on
    the dynamic, specialized and partial tiers (a guard-deopted member's
    reads ``"dynamic"``), one per stacked call on the batched tier,
    whose ``rids`` are the bucket's. ``charges`` is the profile the VM
    tallied that call, and only that call, into: the worker hands the
    VM a fresh one before each call."""

    at_us: float
    replica: int
    worker: int
    tier: str
    rids: Tuple[int, ...]
    charges: VMProfile


class GuardDeopt(NamedTuple):
    """One batch member a partial variant's entry guard rejected, re-run
    on the dynamic VM; ``reason`` names the first mismatching dim."""

    at_us: float
    replica: int
    worker: int
    rid: int
    reason: str


class SpecializationEvent(NamedTuple):
    """One compile executed by the pool.

    ``trigger_us`` is when the shape crossed the threshold and entered the
    pending queue, ``start_us`` when a lane picked it up, ``ready_us``
    when the executable became routable. ``batch`` identifies the variant
    (1 = member-wise static, >1 = batch-specialized). ``restored`` marks
    a store restore: the lane deserialized a persisted artifact instead
    of compiling, and ``compile_us`` is the modeled deserialize charge;
    ``from_sibling`` narrows that to a blob another replica of the fleet
    compiled and persisted earlier in this simulation. ``predictive``
    marks a variant pre-armed at time 0 from the shape profile.

    ``prefix_us`` is the part of ``compile_us`` attributable to the
    once-per-simulation shape-independent prefix, folded into the first
    fresh compile; ``compile_us`` stays the *total* lane charge, so
    ``sum(e.compile_us)`` always equals total lane busy time."""

    key: Tuple[Optional[int], ...]
    trigger_us: float
    start_us: float
    ready_us: float
    compile_us: float
    lane: int
    batch: int = 1
    restored: bool = False
    prefix_us: float = 0.0
    from_sibling: bool = False
    predictive: bool = False
    replica: int = 0

    @property
    def queue_us(self) -> float:
        """Time the compile waited in the pending queue for a free lane."""
        return self.start_us - self.trigger_us


class EvictionEvent(NamedTuple):
    """One executable-cache eviction: ``key`` (decayed ``score`` at the
    time) lost its slot to the hotter ``by_key``."""

    key: Tuple[Optional[int], ...]
    evicted_us: float
    score: float
    by_key: Tuple[Optional[int], ...]
    replica: int = 0


class StoreReject(NamedTuple):
    """One store blob (``kind``: ``"exe"``, ``"prefix"``, ``"profile"``,
    ``"kernels"``) refused where the simulation wanted it; ``verify``
    says it deserialized fine but failed static verification. A blob
    refused in an earlier replay is recorded again at the same point
    without being re-read."""

    at_us: float
    replica: int
    kind: str
    key: str
    verify: bool


class Route(NamedTuple):
    """One admitted arrival and the replica it was placed on —
    ``by_affinity`` when chosen for already serving its exact shape."""

    at_us: float
    replica: int
    rid: int
    tenant: str
    by_affinity: bool


class Shed(NamedTuple):
    """One arrival refused at admission: its tenant was over budget."""

    at_us: float
    rid: int
    tenant: str


class Chaos(NamedTuple):
    """One injected fault (a ``repro.fleet.chaos`` event) firing;
    ``applied`` is False when it found nothing to act on."""

    at_us: float
    fault: object
    applied: bool


class Collection(NamedTuple):
    """One store-GC collection and the collector's own report of it."""

    at_us: float
    report: object
