"""Multi-tenant serving on top of the Nimble VM.

The paper compiles one executable that handles every input shape; this
package serves *streams* of such inputs. A deterministic, virtual-clock
driven inference server accepts dynamically-shaped requests, buckets them
by their ``Any``-dimension values (reusing the §4.1 sub-shaping analysis),
forms batches under a latency deadline, and dispatches batches across a
pool of :class:`VirtualMachine` workers that share one compiled
:class:`Executable` and :class:`KernelCache`.

Everything is simulated on the virtual clock (see ``runtime/clock.py``):
arrivals, queueing delay, batching deadlines, and worker busy time all
live on one timeline, so throughput and tail-latency numbers are exactly
reproducible run to run.

Tiered specialization (``ServeConfig(specialize=True)``) adds static
tiers on top, one lifecycle described in
:mod:`repro.serve.specialization`: hot shapes get a statically
recompiled executable and exact-shape batches route to it, removing the
shape-function/dispatch/allocation tax the dynamic executable pays —
with bit-identical outputs and transparent fallback. Variants compile
through one shared shape-independent prefix plus a per-variant suffix,
on a pool of virtual-clock lanes with traffic-priority queueing, and the
specialized-executable cache evicts its coldest (decayed-score) entry so
long-tailed shape mixes keep specializing past the cache cap. The
remaining knobs each add a tier or a source of artifacts, not a second
way of doing the same thing:

- ``specialize_batch`` — hot shapes additionally compile at batch
  granularity (``nimble.specialize(batch=max_batch_size)``), and a
  *full* bucket executes as one stacked VM call — one batched GEMM per
  layer instead of per member — while ragged tails fall back
  member-wise, then dynamic.
- ``artifact_dir`` — specialized executables, the prefix and the kernel
  cache persist to an on-disk :class:`~repro.store.ArtifactStore`, and a
  restarted server *restores* its hot-shape artifacts at a modeled
  deserialize cost instead of recompiling (``harness.restart_study`` /
  ``benchmarks/bench_restart.py``).
- ``specialize_predictive`` (with a store) — every simulation snapshots
  its shape traffic into a ``.nmblprof`` profile blob
  (:class:`~repro.serve.profile.ShapeProfile`), and a restarted server
  pre-arms its historical hot set at virtual time 0
  (``harness.predictive_study`` / ``benchmarks/bench_predictive.py``).
- ``specialize_partial`` — one variant with only the traffic's stable
  dims bound (the rest stay ``Any``) covers a whole family of exact
  shapes, entry-guarded per batch member with transparent, counted deopt
  to the dynamic tier on mismatch.

Outputs stay bit-identical across every tier.
"""

from repro.serve.batcher import Batch, Batcher, ShapeBucketer
from repro.serve.config import ServeConfig
from repro.serve.events import EvictionEvent, SpecializationEvent
from repro.serve.profile import ShapeProfile, profile_store_key
from repro.serve.report import ServeReport
from repro.serve.request import Request, Response
from repro.serve.server import InferenceServer
from repro.serve.specialization import SpecializationManager
from repro.serve.traffic import (
    bert_traffic,
    long_tailed_traffic,
    lstm_traffic,
    multi_tenant_traffic,
    poisson_arrivals,
)
from repro.serve.worker import Worker

__all__ = [
    "Batch",
    "Batcher",
    "ShapeBucketer",
    "ServeReport",
    "Request",
    "Response",
    "InferenceServer",
    "ServeConfig",
    "EvictionEvent",
    "ShapeProfile",
    "profile_store_key",
    "SpecializationEvent",
    "SpecializationManager",
    "Worker",
    "poisson_arrivals",
    "lstm_traffic",
    "long_tailed_traffic",
    "bert_traffic",
    "multi_tenant_traffic",
]
