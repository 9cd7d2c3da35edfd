"""Fleet-scale serving: routed replicas over one shared artifact store.

Nimble's economics (PAPER.md §4) are compile-once, dispatch-cheaply —
and at fleet scale "once" should mean once *per fleet*, not once per
replica. ``repro.fleet`` builds that layer on top of ``repro.serve``
and ``repro.store``:

- :class:`FleetRouter` fronts N :class:`~repro.serve.InferenceServer`
  replicas on one virtual timeline, with shape-affinity routing,
  per-tenant token-bucket admission control (:class:`TenantSpec`), and
  deterministic chaos injection (:class:`ReplicaStall`,
  :class:`CorruptBlob`).
- One :class:`~repro.store.FleetStoreView` models the shared store so a
  fresh compile on any replica is restorable by every sibling at the
  deserialize charge, and so :class:`~repro.store.StoreGC` decisions
  replay bit-identically.
- :class:`FleetReport` surfaces the per-tenant / per-replica outcome,
  with :meth:`FleetReport.counters` as the replay-equality surface.

The determinism contract, the chaos battery, and the differential
fleet-vs-single-server equivalence are specified in ``docs/fleet.md``
and enforced by ``tests/test_fleet.py``.
"""

from repro.fleet.chaos import CorruptBlob, ReplicaStall
from repro.fleet.report import FleetReport, TenantStats
from repro.fleet.router import ROUTING_POLICIES, FleetConfig, FleetRouter
from repro.fleet.tenancy import TenantSpec, TokenBucket
from repro.store import FleetStoreView

__all__ = [
    "CorruptBlob",
    "FleetConfig",
    "FleetReport",
    "FleetRouter",
    "FleetStoreView",
    "ReplicaStall",
    "ROUTING_POLICIES",
    "TenantSpec",
    "TenantStats",
    "TokenBucket",
]
