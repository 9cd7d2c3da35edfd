"""The one framing every file in the artifact store is written in::

    magic (4) | version (u32 LE) | sha256(payload) (32) | payload

The magic says which kind of blob a file claims to be, the version
which build of that kind's payload encoding wrote it, and the digest
that the payload is the one that was written. :func:`open` checks all
three before handing the payload to anything that interprets it — no
``pickle.loads`` and no bytecode decoder ever sees a byte the digest
has not vouched for. What the payload *means* (module type, shape
keys, source signature) is its decoder's business, not the envelope's
(see ``docs/serialization.md``).
"""

from __future__ import annotations

import hashlib
import struct

from repro.errors import SerializationError

_HEADER = struct.Struct("<4sI32s")


def seal(magic: bytes, version: int, payload) -> bytes:
    """The header that vouches for *payload*. Written in front of it,
    never joined to it: a payload can be a 69 MB executable."""
    return _HEADER.pack(magic, version, hashlib.sha256(payload).digest())


def open(blob: bytes, magic: bytes, version: int, what: str) -> memoryview:
    """Check *blob*'s header and return a view of its payload; *what*
    names the blob kind in the :class:`SerializationError` raised for a
    short, foreign, stale or altered blob."""
    if len(blob) < _HEADER.size:
        raise SerializationError(f"{what} blob truncated: {len(blob)} bytes")
    found_magic, found_version, digest = _HEADER.unpack_from(blob)
    if found_magic != magic:
        raise SerializationError(f"{what} blob has a bad magic number")
    if found_version != version:
        raise SerializationError(
            f"{what} blob is version {found_version}, this build reads "
            f"version {version}"
        )
    payload = memoryview(blob)[_HEADER.size:]
    if hashlib.sha256(payload).digest() != digest:
        raise SerializationError(
            f"{what} blob content digest mismatch (truncated or altered)"
        )
    return payload
