"""Shape arithmetic shared by type relations, workload analysis and
placement: element counts, axis normalization, the host-scalar size.

There are no per-op shape functions here. A data-independent op's
run-time shape function is its type relation at concrete types
(:func:`repro.ops.registry.output_shapes`), which also makes the checks
``Any`` put off (§4.2): e.g. ``add`` raises :class:`ShapeError` when an
``Any`` dimension instantiated to neither 1 nor the partner dimension.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import TypeInferenceError

Shape = Tuple[int, ...]

# A tensor of at most this many elements (rank 0, or a tiny vector such
# as a shape) is "CPU friendly" (§2.2): loop counters, conditions, index
# arithmetic. Placement keeps a kernel over only such tensors on the
# host, and the IR evaluator computes such a call as host work.
HOST_SCALAR_MAX_ELEMENTS = 8


def prod(shape: Sequence[int]) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n


def normalize_axis(axis: int, ndim: int) -> int:
    """*axis* in ``[0, ndim)``; an axis outside the rank fails a type
    relation (``output_types`` turns that into a ``ShapeError`` at run time)."""
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise TypeInferenceError(f"axis {axis} out of range for rank {ndim}")
    return axis
