"""The one framing every file in the artifact store is written in::

    magic (4) | version (u32 LE) | sha256 (32) | segment table | inline bytes
    table = count (u32) | count x (kind u8 | length u64 [| sha256 (32) if chunk])

The magic says which kind of blob a file claims to be, the version
which build of that kind's payload encoding wrote it. The payload is
its segments in table order: *inline* bytes, which follow the table, or
a *chunk* — a large constant the store files once under its own sha256
and every blob that holds it only names, as ``(length, digest)``. The
digest in the header covers the table and the inline bytes; each
chunk's digest, named in the table, vouches for the rest. :func:`open`
checks magic, version and digest before handing anything to code that
interprets it — no ``pickle.loads`` and no bytecode decoder ever sees a
byte no digest has vouched for. What the payload *means* (module type,
shape keys, source signature) is its decoder's business, not the
envelope's (see ``docs/serialization.md``).

A chunk file is the header alone in front of the raw bytes, the digest
over exactly those: its digest is its name.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Tuple

from repro.errors import SerializationError

_HEADER = struct.Struct("<4sI32s")
HEADER_SIZE = _HEADER.size
_COUNT = struct.Struct("<I")
_ROW = struct.Struct("<BQ")
_INLINE, _CHUNK = 0, 1
header = _HEADER.pack  # (magic, version, digest) -> the bytes in front


def digest_of(*hashed) -> bytes:
    """sha256 of the buffers *hashed*, in order, never joined: a payload
    can be a 69 MB executable."""
    digest = hashlib.sha256()
    for piece in hashed:
        digest.update(piece)
    return digest.digest()


def check(head, magic: bytes, version: int, what: str, *hashed) -> bytes:
    """Check the header *head* against the buffers it should vouch for
    and return its digest; *what* names the blob kind in the
    :class:`SerializationError` raised for a short, foreign, stale or
    altered blob."""
    if len(head) < HEADER_SIZE:
        raise SerializationError(f"{what} blob truncated: {len(head)} bytes")
    found_magic, found_version, digest = _HEADER.unpack_from(head)
    if found_magic != magic:
        raise SerializationError(f"{what} blob has a bad magic number")
    if found_version != version:
        raise SerializationError(
            f"{what} blob is version {found_version}, this build reads "
            f"version {version}"
        )
    if digest_of(*hashed) != digest:
        raise SerializationError(
            f"{what} blob content digest mismatch (truncated or altered)"
        )
    return digest


def seal(magic: bytes, version: int, *segments) -> bytes:
    """Header and segment table of the blob whose payload is *segments*,
    each a buffer (inline; neighbours share a row) or a chunk's
    ``(length, digest)``. The file is this, then the inline buffers."""
    rows: List[list] = []
    for segment in segments:
        if isinstance(segment, tuple):
            rows.append([_CHUNK, *segment])
        elif rows and rows[-1][0] == _INLINE:
            rows[-1][1] += len(segment)
        else:
            rows.append([_INLINE, len(segment), b""])
    table = _COUNT.pack(len(rows)) + b"".join(
        _ROW.pack(kind, length) + digest for kind, length, digest in rows
    )
    inline = [s for s in segments if not isinstance(s, tuple)]
    return header(magic, version, digest_of(table, *inline)) + table


def table(blob) -> Tuple[List[Tuple[int, Optional[bytes]]], int]:
    """The segment table at the front of *blob* — ``(length, chunk
    digest or None)`` per segment — and the offset its inline bytes
    start at. The first few hundred bytes of a file are enough; nothing
    here is vouched for until :func:`open` has passed."""
    segments: List[Tuple[int, Optional[bytes]]] = []
    try:
        (count,) = _COUNT.unpack_from(blob, HEADER_SIZE)
        at = HEADER_SIZE + _COUNT.size
        for _ in range(count):
            kind, length = _ROW.unpack_from(blob, at)
            at += _ROW.size + 32 * (kind == _CHUNK)
            if kind > _CHUNK or at > len(blob):
                raise struct.error
            segments.append((length, bytes(blob[at - 32 : at]) if kind else None))
    except struct.error:
        raise SerializationError("segment table overruns its blob") from None
    return segments, at


def open(blob: bytes, magic: bytes, version: int, what: str) -> memoryview:
    """Check *blob*'s header and return a view of its inline bytes, to be
    cut up as :func:`table` says."""
    check(blob, magic, version, what, memoryview(blob)[HEADER_SIZE:])
    segments, start = table(blob)
    inline = memoryview(blob)[start:]
    if len(inline) != sum(n for n, digest in segments if digest is None):
        raise SerializationError(f"{what} segment table disagrees with its blob")
    return inline
