"""The one codec of every pickled payload: ``Any`` leaves a process by
position.

An ``Any``'s token comes from a process-global counter
(:mod:`repro.ir.types`), so its integer says how many dims the process
made before it, not which dim it is. :func:`dumps` writes no token: the
first ``Any`` of each token in a payload is written as a bare ``Any()``
— a fresh token of whichever process reads it — and every later one as
a copy of that first one, named by its position in the payload (pickle's
memo). Dims that shared a token still do, no restored token names a live
dim, and two processes save one object as the same bytes, under any
``PYTHONHASHSEED`` and however many ``Any()`` they drew.

Both ends raise the recursion limit (pickling an ANF module recurses
once per ``Let`` link), and any failure to decode is a
:class:`SerializationError`, the one exception a store reader handles.
"""

from __future__ import annotations

import contextlib
import copy
import copyreg
import io
import pickle
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.errors import SerializationError
from repro.ir.types import Any


@contextlib.contextmanager
def _deep_recursion(limit: int = 20_000):
    """A long ``Let`` chain overruns the default interpreter limit long
    before it troubles memory. Raised temporarily, never lowered."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def dumps(obj, buffer_callback: Optional[Callable] = None) -> bytes:
    """*obj* as a protocol-5 pickle with no ``Any`` token in it.
    *buffer_callback* takes array buffers out of band, as
    :func:`pickle.dumps` does."""
    first: Dict[int, Any] = {}

    def reduce_any(dim: Any):
        earlier = first.setdefault(dim.token, dim)
        return (Any, ()) if earlier is dim else (copy.copy, (earlier,))

    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5, buffer_callback=buffer_callback)
    pickler.dispatch_table = {**copyreg.dispatch_table, Any: reduce_any}
    with _deep_recursion():
        pickler.dump(obj)
    return out.getvalue()


@contextlib.contextmanager
def decoding(what: str):
    """Decode a payload — the pickle and whatever frames or unpacks it —
    under the raised recursion limit, any failure raised as a
    :class:`SerializationError` naming *what*."""
    try:
        with _deep_recursion():
            yield
    except SerializationError:
        raise
    except Exception as err:  # corrupt payloads raise all sorts
        raise SerializationError(
            f"{what} failed to deserialize: {type(err).__name__}: {err}"
        ) from err


def loads(data, buffers: Optional[Sequence] = None):
    """The object :func:`dumps` wrote, its ``Any`` dims on fresh tokens.
    A payload pickled with raw tokens still loads, with those tokens."""
    with decoding("payload"):
        return pickle.loads(data, buffers=buffers)
