"""Sub-shaping analysis: which ``Any`` dims are provably identical (§4.1).

Each ``Any`` carries an identity token; type relations propagate tokens
when equality is provable (e.g. elementwise ops preserve the input dims).
This module groups the typed expressions of a function by token so the
symbolic code generator can assign one symbolic variable per group and
emit shape-specialized kernels.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.ir.analysis import iter_nodes
from repro.ir.expr import Expr, Function
from repro.ir.types import Any, TensorType, TupleType, Type


def _tensor_types(ty: Type, prefix: Tuple[int, ...] = ()) -> List[Tuple[Tuple[int, ...], TensorType]]:
    if isinstance(ty, TensorType):
        return [(prefix, ty)]
    if isinstance(ty, TupleType):
        out = []
        for i, field in enumerate(ty.fields):
            out.extend(_tensor_types(field, prefix + (i,)))
        return out
    return []


def any_dim_groups(func: Function) -> Dict[int, List[Tuple[Expr, Tuple[int, ...], int]]]:
    """Group every (expr, tuple-path, dim-index) carrying an ``Any`` by its
    identity token. Requires a type-checked function."""
    groups: Dict[int, List[Tuple[Expr, Tuple[int, ...], int]]] = defaultdict(list)
    for node in iter_nodes(func):
        ty = node.checked_type
        if ty is None:
            continue
        for path, tty in _tensor_types(ty):
            for i, dim in enumerate(tty.shape):
                if isinstance(dim, Any):
                    groups[dim.token].append((node, path, i))
    return dict(groups)
