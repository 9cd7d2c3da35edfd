"""The versioned artifact store: content-addressed executables + the
persisted kernel cache.

Directory layout (specified in ``docs/serialization.md``)::

    <artifact_dir>/
        STORE_FORMAT            # one line: the store-format version
        artifacts/<key>.nmbl     # Executable.save() blobs, content-addressed
        artifacts/<key>.nmblp    # SpecializationPrefix.save() blobs
        artifacts/<key>.nmblprof # ShapeProfile.save() blobs (shape traffic)
        kernels.kc               # KernelCache.export_entries() blob

``<key>`` is :func:`repro.vm.executable.artifact_key` — a sha256 over
(source-module fingerprint, platform, shape binding, batch marker,
serialization version). Content addressing makes staleness structural:
a serialization-format bump changes every key, so old blobs are never
looked up; a model or platform change changes the fingerprint
component, so a store can safely hold artifacts for many modules and
platforms side by side.

Writes are atomic (temp file + ``os.replace``), so a killed server
never leaves a half-written artifact where a restarted one will look.
Reads are *paranoid*: a blob that is truncated, version-bumped,
hash-mismatched, or compiled from a different module is skipped, its
rejection recorded in :attr:`ArtifactStore.rejects`, and the caller
falls back to compiling — the store can lose data, but it must never
serve wrong code.

Concurrent readers (a fleet of replicas over one volume — see
``docs/fleet.md``) need no locking because of those two properties
together: ``os.replace`` means a reader sees either the old complete
blob or the new complete blob, never a torn write, and the paranoid
validation means a reader that loses any conceivable race (a blob
deleted between listing and read, an overwrite it half-expected)
degrades to a counted reject + recompile, never to wrong code. The
same holds against :class:`repro.store.StoreGC` deletions: ``remove``
is a single ``unlink``, so a reader either got the blob or gets a
miss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.codegen.kernels import KernelCache
from repro.errors import SerializationError
from repro.vm.executable import Executable

# Version of the directory layout itself (not of the blobs inside it —
# executables carry their own serialization version). A store written
# under a different format is refused at open, before any blob is read.
STORE_FORMAT = 1

_ARTIFACT_SUFFIX = ".nmbl"
_PREFIX_SUFFIX = ".nmblp"
_PROFILE_SUFFIX = ".nmblprof"


class ArtifactStore:
    """A content-addressed, versioned directory of compiled artifacts.

    ``put`` files an executable under its content hash; ``get`` loads
    one back, returning ``None`` (and counting a reject) for anything
    that fails validation. One store instance may serve many modules and
    platforms — keys collide only when every identity component matches.
    """

    def __init__(self, root, verify: bool = True) -> None:
        self.root = Path(root)
        # Statically verify every loaded executable (repro.analysis): a
        # blob that deserializes cleanly but fails verification is
        # rejected-and-counted exactly like a corrupt one — it is never
        # handed to a VM. Disable only for forensics on bad blobs.
        self.verify = verify
        self.artifacts_dir = self.root / "artifacts"
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        self._format_file = self.root / "STORE_FORMAT"
        if self._format_file.exists():
            try:
                found = int(self._format_file.read_text().strip())
            except ValueError:
                raise SerializationError(
                    f"artifact store at {self.root}: unreadable STORE_FORMAT"
                )
            if found != STORE_FORMAT:
                raise SerializationError(
                    f"artifact store at {self.root} uses format {found}, "
                    f"this build reads format {STORE_FORMAT}"
                )
        else:
            self._atomic_write(self._format_file, f"{STORE_FORMAT}\n".encode())
        # Rejected loads this process: (key, reason) pairs. A reject is
        # an expected, recoverable event (the caller recompiles), but it
        # must be *visible* — silent fallback would mask a corrupted
        # volume until someone wonders why restarts stopped being warm.
        self.reject_log: List[Tuple[str, str]] = []
        # The subset of rejects that deserialized fine but failed static
        # verification — tracked separately because they mean a *writer*
        # bug (or post-write tampering), not volume rot.
        self.verify_reject_log: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------ stats
    @property
    def rejects(self) -> int:
        """How many artifact loads this process refused (corrupt,
        truncated, stale-version, signature-mismatched, or
        verification-failed blobs)."""
        return len(self.reject_log)

    @property
    def verify_rejects(self) -> int:
        """How many rejects were static-verification failures."""
        return len(self.verify_reject_log)

    def keys(self) -> List[str]:
        """Every artifact key currently on disk, sorted (deterministic
        iteration for replay-stable consumers)."""
        return sorted(
            p.name[: -len(_ARTIFACT_SUFFIX)]
            for p in self.artifacts_dir.glob(f"*{_ARTIFACT_SUFFIX}")
        )

    def contains(self, key: str) -> bool:
        return self._artifact_path(key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------- executables
    def put(self, exe: Executable) -> str:
        """File *exe* under its content hash; returns the key. Writing
        is atomic and idempotent — re-putting an identical artifact
        rewrites the same bytes at the same path."""
        key = exe.content_hash()
        self._atomic_write(self._artifact_path(key), exe.save())
        return key

    def get(
        self, key: str, expected_signature: Optional[str] = None
    ) -> Optional[Executable]:
        """Load the artifact filed under *key*, or ``None``.

        ``None`` covers both a plain miss and every flavor of bad blob —
        truncated file, stale serialization version, content-hash
        mismatch, or (when *expected_signature* is given) an artifact
        compiled from a different module. Bad blobs are recorded in
        :attr:`reject_log`; they are never raised to the caller, whose
        correct response is always the same: compile fresh.
        """
        path = self._artifact_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None  # plain miss: nothing was ever stored here
        except OSError as err:
            # The file exists but cannot be read (permissions, I/O error
            # on a degraded volume): that is a failed load, not a miss —
            # it must show up in the reject log, or a broken volume
            # would silently stop restarts being warm.
            self.reject_log.append((key, f"unreadable artifact: {err}"))
            return None
        try:
            exe = Executable.load(blob, expected_signature=expected_signature)
        except SerializationError as err:
            self.reject_log.append((key, str(err)))
            return None
        # The blob deserialized, but is it the artifact this key names?
        # A file renamed/copied to the wrong path would otherwise serve
        # a different (module, platform, shape, batch) variant.
        if exe.content_hash() != key:
            self.reject_log.append(
                (key, f"artifact hashes to {exe.content_hash()}, filed as {key}")
            )
            return None
        if self.verify:
            # The blob is authentic, but is the bytecode sound? A buggy
            # writer (or a hand-edited blob with a recomputed hash) can
            # produce a well-formed *container* around racy or
            # ill-formed *contents*; verification is the last gate
            # before anything executes it.
            from repro.analysis import verify_executable

            errors = [
                f
                for f in verify_executable(exe)
                if f.severity == "error"
            ]
            if errors:
                reason = (
                    f"failed static verification "
                    f"({len(errors)} finding(s)): {errors[0]}"
                )
                self.reject_log.append((key, reason))
                self.verify_reject_log.append((key, reason))
                return None
        return exe

    # ----------------------------------------------------------------- prefixes
    def prefix_keys(self) -> List[str]:
        """Every specialization-prefix key currently on disk, sorted."""
        return sorted(
            p.name[: -len(_PREFIX_SUFFIX)]
            for p in self.artifacts_dir.glob(f"*{_PREFIX_SUFFIX}")
        )

    def put_prefix(self, prefix) -> str:
        """File a :class:`repro.nimble.SpecializationPrefix` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`."""
        key = prefix.store_key()
        self._atomic_write(self._prefix_path(key), prefix.save())
        return key

    def get_prefix(self, key: str, expected_signature: Optional[str] = None):
        """Load the specialization prefix filed under *key*, or ``None``.

        Same contract as :meth:`get`: a plain miss returns ``None``
        silently; every flavor of bad blob (truncated, stale version,
        digest mismatch, wrong source module, key/path mismatch) also
        returns ``None`` but lands in :attr:`reject_log`. The caller's
        fallback is always the same: rebuild the prefix from source.
        """
        # Imported lazily: repro.nimble imports this module at top level,
        # so the reverse import must wait until call time.
        from repro.nimble import SpecializationPrefix, prefix_store_key

        path = self._prefix_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None  # plain miss: nothing was ever stored here
        except OSError as err:
            self.reject_log.append((key, f"unreadable prefix: {err}"))
            return None
        try:
            prefix = SpecializationPrefix.load(
                blob, expected_signature=expected_signature
            )
        except SerializationError as err:
            self.reject_log.append((key, str(err)))
            return None
        # The blob deserialized, but is it the prefix this key names? A
        # file renamed to the wrong path would otherwise hand back a
        # prefix for a different (module, platform).
        recomputed = prefix_store_key(prefix.source_signature, prefix.platform_name)
        if recomputed != key:
            self.reject_log.append(
                (key, f"prefix keys to {recomputed}, filed as {key}")
            )
            return None
        return prefix

    # ----------------------------------------------------------------- profiles
    def profile_keys(self) -> List[str]:
        """Every shape-profile key currently on disk, sorted."""
        return sorted(
            p.name[: -len(_PROFILE_SUFFIX)]
            for p in self.artifacts_dir.glob(f"*{_PROFILE_SUFFIX}")
        )

    def put_profile(self, profile) -> str:
        """File a :class:`repro.serve.profile.ShapeProfile` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`. One profile per (module, platform, format) — a
        later simulation's snapshot overwrites the earlier one."""
        key = profile.store_key()
        self._atomic_write(self._profile_path(key), profile.save())
        return key

    def get_profile(self, key: str, expected_signature: Optional[str] = None):
        """Load the shape profile filed under *key*, or ``None``.

        Same contract as :meth:`get`: a plain miss returns ``None``
        silently; every flavor of bad blob (truncated, stale version,
        digest mismatch, wrong source module, key/path mismatch) also
        returns ``None`` but lands in :attr:`reject_log`. The caller's
        fallback is always the same: serve cold, profile-less.
        """
        # Imported lazily for symmetry with get_prefix (and to keep the
        # store importable without pulling in the serving layer).
        from repro.serve.profile import ShapeProfile, profile_store_key

        path = self._profile_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None  # plain miss: nothing was ever stored here
        except OSError as err:
            self.reject_log.append((key, f"unreadable profile: {err}"))
            return None
        try:
            profile = ShapeProfile.load(
                blob, expected_signature=expected_signature
            )
        except SerializationError as err:
            self.reject_log.append((key, str(err)))
            return None
        # The blob deserialized, but is it the profile this key names? A
        # file renamed to the wrong path would otherwise pre-arm shapes
        # recorded for a different (module, platform).
        recomputed = profile_store_key(
            profile.source_signature, profile.platform_name
        )
        if recomputed != key:
            self.reject_log.append(
                (key, f"profile keys to {recomputed}, filed as {key}")
            )
            return None
        return profile

    # ------------------------------------------------------------ kernel cache
    @property
    def kernel_cache_path(self) -> Path:
        return self.root / "kernels.kc"

    def save_kernel_cache(self, cache: KernelCache) -> None:
        """Persist the kernel cache (entries for every platform live in
        one blob — the cache keys already carry the platform name)."""
        self._atomic_write(self.kernel_cache_path, cache.export_entries())

    def load_kernel_cache(self, cache: KernelCache) -> int:
        """Merge the persisted kernel cache into *cache*; returns how
        many entries were added (0 on a missing or rejected blob — the
        caller's build simply compiles its kernels fresh)."""
        try:
            blob = self.kernel_cache_path.read_bytes()
        except FileNotFoundError:
            return 0  # no cache was ever persisted: a plain miss
        except OSError as err:
            # Existing but unreadable: a failed load, visible like any
            # rejected executable blob.
            self.reject_log.append(
                ("kernels.kc", f"unreadable kernel cache: {err}")
            )
            return 0
        try:
            return cache.import_entries(blob)
        except SerializationError as err:
            self.reject_log.append(("kernels.kc", str(err)))
            return 0

    # ------------------------------------------------------------------- blobs
    # Kind names shared with repro.store.FleetStoreView and StoreGC:
    # "exe" (.nmbl), "prefix" (.nmblp), "profile" (.nmblprof).
    def blob_path(self, kind: str, key: str) -> Path:
        """The on-disk path of a blob by (kind, key) — the addressing the
        GC and the fleet's store view use."""
        if kind == "exe":
            return self._artifact_path(key)
        if kind == "prefix":
            return self._prefix_path(key)
        if kind == "profile":
            return self._profile_path(key)
        raise ValueError(f"unknown blob kind {kind!r}")

    def remove(self, kind: str, key: str) -> bool:
        """Unlink one blob; returns whether a file was actually removed.
        A miss is not an error — the GC prunes from a *model* of the
        store, and the disk is allowed to be behind the model (a blob
        modeled from a previous simulation's write may not exist under
        this directory's current history)."""
        try:
            self.blob_path(kind, key).unlink()
            return True
        except FileNotFoundError:
            return False

    def malformed_names(self) -> List[str]:
        """File names under ``artifacts/`` that are not well-formed blobs
        (no known suffix, or an empty key), sorted. The GC *counts*
        these and leaves them alone — an unrecognized file is evidence
        of a foreign writer or corruption, and deleting evidence is the
        one thing a collector must never do. In-flight atomic-write
        temporaries (``.tmp-*``) are not counted; they are a healthy
        store's transient state, not rot."""
        bad: List[str] = []
        for p in self.artifacts_dir.iterdir():
            if not p.is_file() or p.name.startswith(".tmp-"):
                continue
            for suffix in (_PROFILE_SUFFIX, _PREFIX_SUFFIX, _ARTIFACT_SUFFIX):
                if p.name.endswith(suffix):
                    if len(p.name) > len(suffix):
                        break
                    bad.append(p.name)  # a bare suffix with no key
                    break
            else:
                bad.append(p.name)
        return sorted(bad)

    # -------------------------------------------------------------- internals
    def _artifact_path(self, key: str) -> Path:
        return self.artifacts_dir / f"{key}{_ARTIFACT_SUFFIX}"

    def _prefix_path(self, key: str) -> Path:
        return self.artifacts_dir / f"{key}{_PREFIX_SUFFIX}"

    def _profile_path(self, key: str) -> Path:
        return self.artifacts_dir / f"{key}{_PROFILE_SUFFIX}"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(data)
            os.replace(tmp, str(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
