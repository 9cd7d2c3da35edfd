"""ScopeBuilder: imperative construction of let-structured IR.

Model builders (LSTM cells, BERT layers) use this to write IR the way one
writes straight-line code; it also keeps generated programs in unique-binder
form, which the analyses rely on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple as PyTuple

from repro.errors import CompilerError
from repro.ir.expr import Expr, Let, Var
from repro.ir.types import Type
from repro.utils.naming import NameSupply


class ScopeBuilder:
    """Accumulates ``let`` bindings, then :meth:`get`-s the final expression.

    >>> sb = ScopeBuilder()
    >>> h = sb.let("h", some_call)
    >>> out = sb.let("out", other_call)
    >>> body = sb.get(out)
    """

    def __init__(self, names: Optional[NameSupply] = None) -> None:
        self._bindings: List[PyTuple[Var, Expr]] = []
        self._names = names or NameSupply()
        self._finished = False

    def let(self, name_hint: str, value: Expr, type_annotation: Optional[Type] = None) -> Var:
        """Bind *value* to a fresh variable and return that variable."""
        if self._finished:
            raise CompilerError("ScopeBuilder already finalized")
        var = Var(self._names.fresh(name_hint), type_annotation)
        self._bindings.append((var, value))
        return var

    def get(self, body: Expr) -> Expr:
        """Finalize: wrap *body* in the accumulated bindings."""
        self._finished = True
        result = body
        for var, value in reversed(self._bindings):
            result = Let(var, value, result)
        return result
