"""Persistent on-disk store for compiled artifacts.

Nimble's core bet is that compilation cost is paid once and amortized
over many inferences — but a process that throws its specialized
executables away on exit re-pays the full compile charge for every hot
shape after a restart. ``repro.store`` closes that gap: specialized
:class:`~repro.vm.executable.Executable` blobs and the shared
:class:`~repro.codegen.kernels.KernelCache` persist to a versioned
directory, keyed by a content hash of (module fingerprint, platform,
shape binding, batch marker, serialization version), and a restarted
server restores them at a small modeled deserialize cost instead of
recompiling (``ServeConfig(artifact_dir=...)``;
``harness.restart_study`` measures the effect).

Corrupt, truncated, or stale blobs are *skipped and counted* — the
caller falls back to compiling — never crashed on and never silently
loaded: every artifact re-verifies its embedded content hash and source
signature at load time.

:class:`StoreGC` compacts a long-lived store: age pruning of blobs
no live replica references (``repro.fleet`` supplies the reference and
in-flight-restore sets), deciding from the store *model*
(:class:`FleetStoreView` — the same one every server's restore
decisions go through) so the decisions replay bit-identically (see
``docs/fleet.md``).
"""

from repro.store.artifacts import STORE_FORMAT, ArtifactStore
from repro.store.gc import GCReport, StoreGC
from repro.store.view import FleetStoreView

__all__ = ["ArtifactStore", "STORE_FORMAT", "FleetStoreView", "GCReport", "StoreGC"]
