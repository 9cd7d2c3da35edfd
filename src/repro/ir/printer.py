"""Text-format pretty printer (Relay-like surface syntax).

The printer exists for debuggability: every pass result can be dumped and
diffed. Deep ``let`` chains are printed iteratively. Variables get
disambiguating suffixes when name hints collide.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

from repro.ir.expr import (
    Call,
    Constant,
    Constructor,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    PatternConstructor,
    PatternVar,
    PatternWildcard,
    Tuple,
    TupleGetItem,
    Var,
)
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, Type


class _Printer:
    def __init__(self) -> None:
        self._names: Dict[Var, str] = {}
        self._used: set = set()

    def name_of(self, var: Var) -> str:
        name = self._names.get(var)
        if name is None:
            base = var.name_hint or "v"
            name = base
            suffix = 1
            while name in self._used:
                name = f"{base}_{suffix}"
                suffix += 1
            self._used.add(name)
            self._names[var] = name
        return f"%{name}"

    def type_str(self, ty: Type) -> str:
        return repr(ty)

    def attrs_str(self, attrs: dict) -> str:
        if not attrs:
            return ""
        parts = []
        for key, value in attrs.items():
            if isinstance(value, np.ndarray):
                value = value.tolist()
            parts.append(f"{key}={value!r}")
        return ", " + ", ".join(parts) if parts else ""

    def print(self, expr: Expr, indent: int = 0) -> str:
        pad = "  " * indent
        if isinstance(expr, Var):
            return self.name_of(expr)
        if isinstance(expr, GlobalVar):
            return f"@{expr.name_hint}"
        if isinstance(expr, Op):
            return expr.name
        if isinstance(expr, Constructor):
            return expr.name_hint
        if isinstance(expr, Constant):
            data = expr.data
            if data.size == 1:
                return f"{data.reshape(()).item()!r}"
            return f"const(shape={tuple(data.shape)}, dtype={expr.value.dtype})"
        if isinstance(expr, Call):
            op = self.print(expr.op, indent)
            args = ", ".join(self.print(a, indent) for a in expr.args)
            return f"{op}({args}{self.attrs_str(expr.attrs)})"
        if isinstance(expr, Tuple):
            return "(" + ", ".join(self.print(f, indent) for f in expr.fields) + ",)"
        if isinstance(expr, TupleGetItem):
            return f"{self.print(expr.tuple_value, indent)}.{expr.index}"
        if isinstance(expr, Function):
            params = ", ".join(
                self.name_of(p)
                + (f": {self.type_str(p.type_annotation)}" if p.type_annotation else "")
                for p in expr.params
            )
            ret = f" -> {self.type_str(expr.ret_type)}" if expr.ret_type else ""
            attrs = ""
            if expr.attrs:
                attrs = ", ".join(f"{k}={v!r}" for k, v in expr.attrs.items())
                attrs = f"[{attrs}] "
            body = self.print(expr.body, indent + 1)
            inner_pad = "  " * (indent + 1)
            return f"fn {attrs}({params}){ret} {{\n{inner_pad}{body}\n{pad}}}"
        if isinstance(expr, Let):
            lines: List[str] = []
            node: Expr = expr
            while isinstance(node, Let):
                lines.append(
                    f"let {self.name_of(node.var)} = {self.print(node.value, indent)};"
                )
                node = node.body
            lines.append(self.print(node, indent))
            sep = "\n" + "  " * indent
            return sep.join(lines)
        if isinstance(expr, If):
            cond = self.print(expr.cond, indent)
            true_b = self.print(expr.true_branch, indent + 1)
            false_b = self.print(expr.false_branch, indent + 1)
            inner = "  " * (indent + 1)
            return (
                f"if ({cond}) {{\n{inner}{true_b}\n{pad}}} else {{\n{inner}{false_b}\n{pad}}}"
            )
        if isinstance(expr, Match):
            data = self.print(expr.data, indent)
            inner = "  " * (indent + 1)
            clauses = []
            for clause in expr.clauses:
                pat = self.pattern_str(clause.pattern)
                rhs = self.print(clause.rhs, indent + 2)
                clauses.append(f"{inner}{pat} => {rhs}")
            body = ",\n".join(clauses)
            return f"match ({data}) {{\n{body}\n{pad}}}"
        return f"<{type(expr).__name__}>"

    def pattern_str(self, pattern) -> str:
        if isinstance(pattern, PatternWildcard):
            return "_"
        if isinstance(pattern, PatternVar):
            return self.name_of(pattern.var)
        if isinstance(pattern, PatternConstructor):
            inner = ", ".join(self.pattern_str(p) for p in pattern.patterns)
            return f"{pattern.constructor.name_hint}({inner})"
        return "?"


def pretty(expr: Expr) -> str:
    """Render one expression as text."""
    return _Printer().print(expr)


def pretty_module(mod) -> str:
    """Render a whole module: ADT definitions then functions."""
    chunks: List[str] = []
    for data in mod.type_data.values():
        chunks.append(repr(data))
    for gv, func in mod.functions.items():
        chunks.append(f"def @{gv.name_hint} = {pretty(func)}")
    return "\n\n".join(chunks)


# ---------------------------------------------------------------------------
# Signature round-trip: the printed text carries enough structure to rebuild
# each function's signature, and golden tests hold the two in lockstep.
# ---------------------------------------------------------------------------


def module_signature(mod) -> Dict[str, str]:
    """``{function_name: "(ty, ...) -> ret"}`` straight from the IR."""
    out: Dict[str, str] = {}
    for gv, func in mod.functions.items():
        params = ", ".join(
            repr(p.type_annotation) if p.type_annotation is not None else "?ty"
            for p in func.params
        )
        ret = repr(func.ret_type) if func.ret_type is not None else "?ty"
        out[gv.name_hint] = f"({params}) -> {ret}"
    return out


def module_fingerprint(mod) -> str:
    """A stable cross-process digest of a module's identity, used as the
    module component of the artifact-store key (``vm.executable
    .artifact_key``).

    Hashes the full pretty-printed module — ADT definitions, function
    signatures, bodies — **and every constant's raw bytes**. Weight
    sensitivity is load-bearing, not incidental: a compiled executable
    embeds the constants in its pool, so a retrained model (identical
    architecture, new weights) must MISS the artifact store — a
    fingerprint that ignored weights would warm-restore executables
    that silently serve the old model's numerics from the specialized
    tiers. Reprs and byte orders are process-stable (``Any`` dims print
    as ``?``, never a token id), so two processes compiling the same
    model agree on the fingerprint.
    """
    from repro.ir.visitor import ExprVisitor

    digest = hashlib.sha256(pretty_module(mod).encode())

    class _ConstantHasher(ExprVisitor):
        def visit_constant(self, const: Constant) -> None:
            arr = np.ascontiguousarray(const.data)
            digest.update(str(arr.dtype).encode())
            digest.update(arr)  # the array's own buffer: no tobytes() copy of a weight

    hasher = _ConstantHasher()
    for func in mod.functions.values():
        hasher.visit(func)
    return digest.hexdigest()


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside (), [] or {}."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_module_signature(text: str) -> Dict[str, str]:
    """Recover :func:`module_signature` from :func:`pretty_module` output.

    Parses each ``def @name = fn [attrs] (params) -> ret {`` header:
    parameter annotations are read back by balancing brackets, so types
    containing commas (``Tensor[(?, 8), float32]``) survive the trip.
    """
    out: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("def @"):
            continue
        name, _, rest = line[len("def @"):].partition(" = fn ")
        if not rest:
            continue
        if rest.startswith("["):
            rest = rest[rest.index("] ") + 2 :]  # drop the attrs block
        if not rest.startswith("("):
            continue
        depth = 0
        for i, ch in enumerate(rest):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
        params_text, tail = rest[1:i], rest[i + 1 :]
        param_types = []
        for param in _split_top_level(params_text):
            _, _, annotation = param.partition(": ")
            param_types.append(annotation if annotation else "?ty")
        ret = "?ty"
        if tail.startswith(" -> "):
            ret = tail[len(" -> ") : tail.rindex(" {")]
        out[name] = f"({', '.join(param_types)}) -> {ret}"
    return out
