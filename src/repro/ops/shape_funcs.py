"""Shared shape-function helpers (§4.2).

Shape functions run at runtime on concrete shapes. They also perform the
*deferred* type checks that ``Any`` pushed past compile time (gradual
typing): e.g. the broadcast shape function raises :class:`ShapeError` when
an ``Any`` dimension instantiated to neither 1 nor the partner dimension.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError

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


def broadcast_shape_func(
    in_shapes: Sequence[Shape], in_values, attrs
) -> List[Shape]:
    """Runtime NumPy-broadcasting; raises ShapeError on violation — this is
    the runtime check the paper defers when type relations saw ``Any``."""
    sa, sb = in_shapes[0], in_shapes[1]
    out: List[int] = []
    la, lb = len(sa), len(sb)
    for i in range(max(la, lb)):
        da = sa[la - 1 - i] if i < la else 1
        db = sb[lb - 1 - i] if i < lb else 1
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ShapeError(
                f"broadcast check failed at runtime: {tuple(sa)} vs {tuple(sb)}"
            )
    return [tuple(reversed(out))]


def same_shape_func(in_shapes: Sequence[Shape], in_values, attrs) -> List[Shape]:
    """Output shape equals the first input's shape."""
    return [tuple(in_shapes[0])]


def check_rank(shape: Shape, rank: int, what: str) -> None:
    if len(shape) != rank:
        raise ShapeError(f"{what}: expected rank {rank}, got shape {shape}")


def normalize_axis(axis: int, ndim: int) -> int:
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return axis
