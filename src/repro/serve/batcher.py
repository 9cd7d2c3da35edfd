"""Shape-bucketed batching under a latency deadline.

Requests are grouped by the runtime values of their ``Any`` dimensions so
every member of a batch hits the same symbolic-kernel dispatch path and
the same allocator size classes. Which dimensions matter comes from the
§4.1 sub-shaping analysis (``core/typing/subshape.py``): dimensions whose
``Any`` tokens are provably identical contribute one bucket-key entry, and
values are rounded up to a configurable granularity so near-identical
lengths share a bucket (the classic padding-bucket trick, except the VM
needs no padding — the bucket only decides *who batches together*).

A bucket flushes when it reaches ``max_batch_size`` or when its oldest
request has waited ``max_delay_us`` — the standard deadline-batching
tradeoff between throughput and tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.typing.subshape import any_dim_groups
from repro.ir.expr import Function, Var


class ShapeBucketer:
    """Derives a bucket key from a request payload.

    Built from a *type-checked* entry function: each distinct ``Any`` token
    appearing in a parameter type yields one key component. Two dimensions
    the sub-shaping analysis proves equal share a token and therefore
    contribute a single component. A component is described by
    ``(param index, tuple path, dim index)`` — the tuple path is non-empty
    when the dynamic dim lives inside a tuple-typed parameter, and the key
    resolves through the payload's tuple structure to reach it.
    """

    def __init__(self, func: Function, granularity: int = 8) -> None:
        if granularity < 1:
            raise ValueError(f"bucket granularity must be >= 1, got {granularity}")
        self.granularity = granularity
        param_index = {p: i for i, p in enumerate(func.params)}
        dims: List[Tuple[int, Tuple[int, ...], int, int]] = []
        for token, entries in any_dim_groups(func).items():
            # One key component per token group: the first parameter
            # occurrence (top-level or through a tuple path) represents
            # every dim proven equal to it. Skipping non-top-level
            # occurrences here would silently merge buckets whose dynamic
            # dim only appears inside a tuple-typed parameter.
            chosen: Optional[Tuple[int, Tuple[int, ...], int]] = None
            for node, path, dim in entries:
                if isinstance(node, Var) and node in param_index:
                    cand = (param_index[node], path, dim)
                    if chosen is None or cand < chosen:
                        chosen = cand
            if chosen is not None:
                dims.append((*chosen, token))
        # Key components in (param, path, dim) order regardless of token order.
        dims.sort()
        self.dynamic_dims: List[Tuple[int, Tuple[int, ...], int]] = [
            (p, path, d) for p, path, d, _ in dims
        ]
        # The Any identity token behind each component, aligned with
        # ``dynamic_dims`` — the specialization manager binds these tokens
        # to an exact key's values when compiling a static executable.
        self.tokens: List[int] = [t for _, _, _, t in dims]

    @staticmethod
    def _resolve(inputs, p: int, path: Tuple[int, ...]):
        if p >= len(inputs):
            raise ValueError(
                f"payload provides {len(inputs)} inputs but param {p} "
                f"is shape-bucketed"
            )
        value = inputs[p]
        for idx in path:
            fields = getattr(value, "fields", None)  # VM ADT tuples
            if fields is not None:
                value = fields[idx]
            elif isinstance(value, (tuple, list)):
                value = value[idx]
            else:
                raise ValueError(
                    f"payload for param {p} is not tuple-structured; cannot "
                    f"resolve bucketed dim at path {path}"
                )
        return value

    def exact_key(self, payload) -> Tuple[int, ...]:
        """The unrounded dynamic-dim values — what a statically specialized
        executable must match exactly."""
        inputs = payload if isinstance(payload, tuple) else (payload,)
        parts: List[int] = []
        for p, path, d in self.dynamic_dims:
            value = self._resolve(inputs, p, path)
            shape = getattr(value, "shape", None)
            if shape is None or d >= len(shape):
                where = f" at path {path}" if path else ""
                raise ValueError(
                    f"payload for param {p}{where} has no dimension {d} "
                    f"to bucket on"
                )
            parts.append(int(shape[d]))
        return tuple(parts)

    def round_key(self, exact: Tuple[int, ...]) -> Tuple[int, ...]:
        """Round an exact key up to the granularity — the one place the
        rounding rule lives, so every caller (the default bucket key, the
        server's specialization-aware key) agrees on it."""
        g = self.granularity
        return tuple(-(-v // g) * g for v in exact)

    def key(self, payload) -> Tuple[int, ...]:
        """Bucket key: each dynamic dim rounded up to the granularity."""
        return self.round_key(self.exact_key(payload))


@dataclass
class Batch:
    """A group of same-bucket requests dispatched together."""

    key: Tuple[int, ...]
    requests: List
    formed_us: float

    def __len__(self) -> int:
        return len(self.requests)


class Batcher:
    """Per-bucket FIFO queues with size- and deadline-triggered flushing.

    ``key_fn(payload, now_us)`` overrides how a payload maps to a bucket
    key (default: the bucketer's rounded key, which ignores the time).
    The current virtual time is threaded explicitly so a time-dependent
    keying policy — the serving layer's specialization tier gives hot
    exact shapes their own buckets once their static executable is ready
    — never depends on hidden state smuggled through the caller.
    """

    def __init__(
        self,
        bucketer: ShapeBucketer,
        max_batch_size: int = 8,
        max_delay_us: float = 2000.0,
        key_fn=None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_us < 0:
            raise ValueError(f"max_delay_us must be >= 0, got {max_delay_us}")
        self.bucketer = bucketer
        self.max_batch_size = max_batch_size
        self.max_delay_us = max_delay_us
        if key_fn is None:
            key_fn = lambda payload, now_us: bucketer.key(payload)  # noqa: E731
        self.key_fn = key_fn
        self._queues: Dict[Tuple[int, ...], List] = {}

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def add(self, request, now_us: float) -> Optional[Batch]:
        """Enqueue; returns a full batch if this arrival filled its bucket."""
        key = self.key_fn(request.payload, now_us)
        queue = self._queues.setdefault(key, [])
        queue.append(request)
        if len(queue) >= self.max_batch_size:
            del self._queues[key]
            return Batch(key, queue, now_us)
        return None

    def next_deadline(self) -> Optional[float]:
        """Earliest instant at which some bucket must flush, or None."""
        deadlines = [
            queue[0].arrival_us + self.max_delay_us
            for queue in self._queues.values()
            if queue
        ]
        return min(deadlines) if deadlines else None

    def flush_due(self, now_us: float) -> List[Batch]:
        """Flush every bucket whose oldest request has hit its deadline."""
        out: List[Batch] = []
        for key in list(self._queues):
            queue = self._queues[key]
            if queue and queue[0].arrival_us + self.max_delay_us <= now_us:
                del self._queues[key]
                out.append(Batch(key, queue, now_us))
        return out

    def flush_all(self, now_us: float) -> List[Batch]:
        """Drain every bucket regardless of deadline (server shutdown)."""
        out = [Batch(key, queue, now_us) for key, queue in self._queues.items()]
        self._queues.clear()
        return out
