"""The versioned artifact store: content-addressed executables + the
persisted kernel cache.

Directory layout (specified in ``docs/serialization.md``)::

    <artifact_dir>/
        STORE_FORMAT            # one line: the store-format version
        artifacts/<key>.nmbl     # Executable.save() payloads, content-addressed
        artifacts/<key>.nmblp    # SpecializationPrefix.save() payloads
        artifacts/<key>.nmblprof # ShapeProfile.save() payloads (shape traffic)
        constants/<sha256>.nmblc # large constants, one file per distinct array
        kernels.kc               # KernelCache.export_entries() payload

Every one of those files is a payload inside the one envelope of
:mod:`repro.store.envelope` (magic, version, sha256), sealed and opened
here and nowhere else. A payload arrives in pieces (``save_chunks()``);
a piece that is an array of :data:`CHUNK_MIN_BYTES` or more is filed
once under ``constants/`` by its own sha256 and only named in the blob,
so every variant of a model, and its staged prefix, name one file — and
read back through one store, share one array.

``<key>`` is :func:`repro.vm.executable.artifact_key` — a sha256 over
(source-module fingerprint, platform, shape binding, batch marker,
serialization version, device stream count). Content addressing makes staleness structural:
a serialization-format bump changes every key, so old blobs are never
looked up; a model or platform change changes the fingerprint
component, so a store can safely hold artifacts for many modules and
platforms side by side.

Writes are atomic (temp file + ``os.replace``), so a killed server
never leaves a half-written artifact where a restarted one will look.
Reads are *paranoid* and all take one path (:meth:`ArtifactStore._read`):
a blob that is truncated, version-bumped, digest-mismatched, filed
under the wrong key, or compiled from a different module is skipped,
its rejection recorded in :attr:`ArtifactStore.reject_log`, and the
caller falls back to compiling — the store can lose data, but it must
never serve wrong code.

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
import re
import tempfile
import weakref
from pathlib import Path
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.codegen.kernels import KERNEL_CACHE_FORMAT, KernelCache
from repro.errors import SerializationError
from repro.store import envelope
from repro.vm import executable
from repro.vm.executable import Executable

# Version of the directory layout and of the file framing (not of the
# payloads inside the envelopes — each kind carries its own version). A
# store written under a different format is refused at open, before any
# blob is read. 2: every file is an envelope. 3: envelopes hold a
# segment table, large constants live under constants/.
STORE_FORMAT = 3
# The smallest array piece filed as a chunk of its own; a smaller one (a
# bias, a scalar) costs more as a file and a table row than it saves.
CHUNK_MIN_BYTES = 4096
_CHUNK_FILE = re.compile(r"([0-9a-f]{64})\.nmblc")


def _joined(load):
    """*load*, which takes one buffer, as a decoder of pieces (the kinds
    that hold no array are one inline segment)."""
    return lambda *args, **checks: load(*args[:-1], b"".join(args[-1]), **checks)


# Payload version, decoder of the payload's pieces and
# key-of-decoded-object of each kind, resolved at call time:
# repro.nimble and repro.serve.profile sit above the store in the import
# order, so the table cannot name their classes at import.
def _exe():
    return executable.VERSION, Executable.load_chunks, Executable.content_hash


def _prefix():
    from repro.nimble import PREFIX_VERSION, SpecializationPrefix as Prefix

    return PREFIX_VERSION, Prefix.load_chunks, Prefix.store_key


def _profile():
    from repro.serve.profile import PROFILE_VERSION, ShapeProfile

    return PROFILE_VERSION, _joined(ShapeProfile.load), ShapeProfile.store_key


def _kernels():
    return KERNEL_CACHE_FORMAT, _joined(KernelCache.import_entries), None


# kind -> (file under the store root, noun in reject reasons, envelope
# magic, resolver above). The three keyed kinds under artifacts/ are the
# names FleetStoreView and StoreGC address blobs by; "kernels" is the
# one unkeyed file (entries for every platform live in it — the cache
# keys already carry the platform name).
_KINDS = {
    "exe": ("artifacts/{key}.nmbl", "artifact", b"NMBE", _exe),
    "prefix": ("artifacts/{key}.nmblp", "prefix", b"NMBP", _prefix),
    "profile": ("artifacts/{key}.nmblprof", "profile", b"NMPF", _profile),
    "kernels": ("kernels.kc", "kernel-cache", b"NMKC", _kernels),
    # No payload of pieces: the header, then the bytes it is named for.
    "const": ("constants/{key}.nmblc", "constant chunk", b"NMBC", None),
}
_KIND_OF_SUFFIX = {
    Path(file).suffix: kind
    for kind, (file, *_) in _KINDS.items()
    if file.startswith("artifacts/")
}


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
        self.constants_dir = self.root / "constants"
        self.constants_dir.mkdir(exist_ok=True)
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
        # How many of those rejects deserialized fine but failed static
        # verification — counted separately because they mean a *writer*
        # bug (or post-write tampering), not volume rot.
        self.verify_rejects = 0
        # The one array held per chunk read and checked here, by name:
        # shared by every blob restored while one of them lives.
        self._chunks = weakref.WeakValueDictionary()
        # Chunks that failed their check: the next put of that name
        # rewrites the file ("only if absent" would keep it for ever).
        self._damaged: Set[str] = set()

    # ------------------------------------------------------------------ stats
    @property
    def rejects(self) -> int:
        """How many loads this process refused (corrupt, truncated,
        stale-version, signature-mismatched, or verification-failed
        blobs)."""
        return len(self.reject_log)

    def inventory(self) -> List[Tuple[str, str]]:
        """Every well-formed ``(kind, key)`` blob name currently under
        ``artifacts/``, sorted (deterministic iteration for
        replay-stable consumers)."""
        entries = map(self._entry, self.artifacts_dir.iterdir())
        return sorted(entry for entry in entries if entry is not None)

    def keys(self, kind: str = "exe") -> List[str]:
        """Every key of *kind* currently on disk, sorted."""
        return [key for found, key in self.inventory() if found == kind]

    def contains(self, key: str) -> bool:
        return self.blob_path("exe", key).exists()

    # ----------------------------------------------------------- entry points
    #
    # One short entry point per (kind, direction), none calling another:
    # bench/trace.py times each by name as one span.

    def put(self, exe: Executable) -> str:
        """File *exe* under its content hash; returns the key. Writing
        is atomic and idempotent — re-putting an identical artifact
        rewrites the same bytes at the same path."""
        return self._write("exe", exe.content_hash(), *exe.save_chunks())

    def get(
        self, key: str, expected_signature: Optional[str] = None
    ) -> Optional[Executable]:
        """Load the artifact filed under *key*, or ``None``.

        ``None`` covers both a plain miss and every flavor of bad blob —
        truncated file, stale version, digest or content-hash mismatch,
        failed static verification, or (when *expected_signature* is
        given) an artifact compiled from a different module. Bad blobs
        are recorded in :attr:`reject_log`; they are never raised to the
        caller, whose correct response is always the same: compile
        fresh.
        """
        return self._read("exe", key, expected_signature=expected_signature)

    def put_prefix(self, prefix) -> str:
        """File a :class:`repro.nimble.SpecializationPrefix` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`."""
        return self._write("prefix", prefix.store_key(), *prefix.save_chunks())

    def get_prefix(self, key: str, expected_signature: Optional[str] = None):
        """Load the specialization prefix filed under *key*, or
        ``None`` — same contract as :meth:`get`; the caller's fallback
        is to rebuild the prefix from source."""
        return self._read("prefix", key, expected_signature=expected_signature)

    def put_profile(self, profile) -> str:
        """File a :class:`repro.serve.profile.ShapeProfile` under its
        store key; returns the key. Atomic and idempotent, like
        :meth:`put`. One profile per (module, platform, format) — a
        later simulation's snapshot overwrites the earlier one."""
        return self._write("profile", profile.store_key(), profile.save())

    def get_profile(self, key: str, expected_signature: Optional[str] = None):
        """Load the shape profile filed under *key*, or ``None`` — same
        contract as :meth:`get`; the caller's fallback is to serve cold,
        profile-less."""
        return self._read("profile", key, expected_signature=expected_signature)

    @property
    def kernel_cache_path(self) -> Path:
        return self.blob_path("kernels", None)

    def save_kernel_cache(self, cache: KernelCache) -> None:
        """Persist the kernel cache."""
        self._write("kernels", None, cache.export_entries())

    def load_kernel_cache(self, cache: KernelCache) -> int:
        """Merge the persisted kernel cache into *cache*; returns how
        many entries were added (0 on a missing or rejected blob — the
        caller's build simply compiles its kernels fresh)."""
        return self._read("kernels", None, cache) or 0

    # ------------------------------------------------------------------- blobs
    def blob_path(self, kind: str, key: Optional[str]) -> Path:
        """The on-disk path of a blob by (kind, key) — the addressing the
        GC and the fleet's store view use."""
        if kind not in _KINDS:
            raise ValueError(f"unknown blob kind {kind!r}")
        return self.root / _KINDS[kind][0].format(key=key)

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
        (no known suffix, or an empty key) and, as ``constants/<name>``,
        under ``constants/`` that are not a chunk's, sorted. The GC
        *counts* these and leaves them alone — an unrecognized file is
        evidence of a foreign writer or corruption, and deleting
        evidence is the one thing a collector must never do. In-flight
        atomic-write temporaries (``.tmp-*``) are not counted; they are
        a healthy store's transient state, not rot."""
        names = [
            p.name for p in self.artifacts_dir.iterdir()
            if p.is_file() and self._entry(p) is None
        ] + [
            f"constants/{p.name}" for p in self.constants_dir.iterdir()
            if p.is_file() and not _CHUNK_FILE.fullmatch(p.name)
        ]
        return sorted(n for n in names if not Path(n).name.startswith(".tmp-"))

    def chunk_names(self) -> List[str]:
        """The sha256 name of every chunk file under ``constants/``."""
        found = map(_CHUNK_FILE.fullmatch, os.listdir(self.constants_dir))
        return sorted(match[1] for match in found if match)

    def chunk_refs(self, kind: str, key: Optional[str]) -> List[str]:
        """The chunks the blob at (*kind*, *key*) names in the segment
        table at its front, unverified (the sweep keeps whatever a file
        on disk names); ``[]`` when file or table cannot be read."""
        try:
            with self.blob_path(kind, key).open("rb") as blob:
                head = blob.read(4096)
                try:
                    segments, _ = envelope.table(head)
                except SerializationError:  # a longer table, or none
                    segments, _ = envelope.table(head + blob.read())
        except (OSError, SerializationError):
            return []
        return [digest.hex() for _, digest in segments if digest is not None]

    def sweep_chunks(self) -> int:
        """Unlink the chunks no blob on disk names; how many went. A blob
        whose table does not parse names none; if its chunks go — or
        those of a writer in another process, caught between chunks and
        blob — the reader rejects, recompiles, and its re-put files them
        again."""
        named = {n for entry in self.inventory() for n in self.chunk_refs(*entry)}
        return sum(self.remove("const", n) for n in self.chunk_names() if n not in named)

    # -------------------------------------------------------------- internals
    @staticmethod
    def _entry(path: Path) -> Optional[Tuple[str, str]]:
        """The (kind, key) a file under ``artifacts/`` is named for, or
        ``None`` for a name no kind writes (a bare suffix with no key
        has no suffix at all, by ``Path`` rules)."""
        kind = _KIND_OF_SUFFIX.get(path.suffix)
        return None if kind is None else (kind, path.stem)

    def _read(self, kind: str, key: Optional[str], *into, **checks):
        """The one read path: file → envelope → chunks → payload decoder
        → key check → (executables) static verification. A file that is
        not there is a silent miss; every other way of not getting a sound
        object back is one :attr:`reject_log` entry and ``None`` — the
        caller's response is always the same, rebuild from source.
        *into* and *checks* go to the decoder, before and after the
        payload (the cache to merge into; ``expected_signature``)."""
        _, what, magic, resolve = _KINDS[kind]
        path = self.blob_path(kind, key)
        try:
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                return None  # plain miss: nothing was ever stored here
            except OSError as err:
                # The file exists but cannot be read (permissions, I/O
                # error on a degraded volume): that is a failed load,
                # not a miss — it must show up in the reject log, or a
                # broken volume would silently stop restarts being warm.
                raise SerializationError(f"unreadable {what}: {err}") from err
            version, decode, key_of = resolve()
            # Nothing interprets a byte before the envelope has checked
            # magic, version and digest, and each chunk its own; the
            # decoder gets views and the shared arrays, not a second
            # copy of what can be a 69 MB executable.
            inline = envelope.open(blob, magic, version, what)
            pieces = []
            for length, digest in envelope.table(blob)[0]:
                if digest is None:
                    pieces.append(inline[:length])
                    inline = inline[length:]
                else:
                    pieces.append(self._chunk(digest, length))
            found = decode(*into, pieces, **checks)
            # The payload decoded, but is it the blob this key names? A
            # file renamed/copied to the wrong path would otherwise
            # serve a different (module, platform, shape, batch).
            if key_of is not None and key_of(found) != key:
                raise SerializationError(
                    f"{what} keys to {key_of(found)}, filed as {key}"
                )
            if kind == "exe" and self.verify:
                # The blob is authentic, but is the bytecode sound? A
                # buggy writer (or a hand-edited, re-sealed blob) can
                # produce a well-formed *container* around racy or
                # ill-formed *contents*; verification is the last gate
                # before anything executes it.
                from repro.analysis import verify_executable

                errors = [
                    f for f in verify_executable(found) if f.severity == "error"
                ]
                if errors:
                    self.verify_rejects += 1
                    raise SerializationError(
                        f"failed static verification "
                        f"({len(errors)} finding(s)): {errors[0]}"
                    )
        except SerializationError as err:
            self.reject_log.append((key or path.name, str(err)))
            return None
        return found

    def _chunk(self, digest: bytes, length: int) -> np.ndarray:
        """The chunk named *digest* as this store's one array of it:
        read-only, aligned as ``np.empty`` aligns (``ChunkReader.array``
        says why), read and checked once, then shared."""
        name = digest.hex()
        data = self._chunks.get(name)
        if data is None:
            _, what, magic, _ = _KINDS["const"]
            try:
                with self.blob_path("const", name).open("rb") as file:
                    head = file.read(envelope.HEADER_SIZE)
                    size = os.fstat(file.fileno()).st_size - len(head)
                    if size != length:
                        raise SerializationError(
                            f"{what} blob truncated or altered: {size} of {length} bytes"
                        )
                    data = np.empty(length, np.uint8)
                    file.readinto(data)
                if envelope.check(head, magic, STORE_FORMAT, what, data) != digest:
                    raise SerializationError(f"{what} file holds another chunk")
            except (OSError, SerializationError) as err:
                self._damaged.add(name)
                raise SerializationError(f"{name}: {err}") from err
            data.flags.writeable = False
            self._chunks[name] = data
        elif len(data) != length:
            raise SerializationError(f"{name}: {len(data)} of {length} bytes")
        return data

    def _write(self, kind: str, key: Optional[str], *pieces) -> Optional[str]:
        """The one write path: file every array piece (a ``memoryview``)
        of :data:`CHUNK_MIN_BYTES` or more as a chunk, seal table and
        rest in the kind's envelope and replace the file atomically;
        returns *key*. Chunks go first: a blob on disk never names one
        that was not written."""
        _, _, magic, resolve = _KINDS[kind]
        segments = [
            self._file_chunk(piece)
            if isinstance(piece, memoryview) and piece.nbytes >= CHUNK_MIN_BYTES
            else piece
            for piece in pieces
        ]
        seal = envelope.seal(magic, resolve()[0], *segments)
        inline = [s for s in segments if not isinstance(s, tuple)]
        self._atomic_write(self.blob_path(kind, key), seal, *inline)
        return key

    def _file_chunk(self, data: memoryview) -> Tuple[int, bytes]:
        """File *data* under its sha256, unless a file is there and has
        not failed its check in this process; its ``(length, digest)``."""
        digest = envelope.digest_of(data)
        name, path = digest.hex(), self.blob_path("const", digest.hex())
        if name in self._damaged or not path.exists():
            head = envelope.header(_KINDS["const"][2], STORE_FORMAT, digest)
            self._atomic_write(path, head, data)
            self._damaged.discard(name)
        return data.nbytes, digest

    def _atomic_write(self, path: Path, *chunks: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as out:
                for chunk in chunks:
                    out.write(chunk)
            os.replace(tmp, str(path))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
