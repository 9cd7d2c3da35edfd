"""Operator fusion with the dynamic-shape-aware policy (§4.2).

Runs on strict-ANF, type-checked functions. Each maximal let-chain is
treated as a dataflow graph; producer bindings are greedily merged into
their single consumer when the fusion patterns allow it:

* ELEMWISE/BROADCAST consumers absorb any producer up to
  OUT_ELEMWISE_FUSABLE (the classic dense/conv + epilogue fusion);
* INJECTIVE consumers absorb injective producers;
* COMM_REDUCE consumers absorb injective producers;
* OPAQUE never fuses.

**A split is its GEMM's epilogue** (one rule outside the table): a
``split`` that cuts an ``nn.dense``'s ``bias_add`` on the last axis at
static widths, when nothing else reads that ``bias_add``, joins the
``bias_add``'s group, which holds the dense unless something else reads
it. Each part is then a column block of the GEMM's output, so the split
is its epilogue, though an injective op absorbs no OUT_ELEMWISE_FUSABLE
group otherwise; where the cuts fall and whether the dense carries
``sections`` do not matter. It fires on every LSTM cell's and TreeLSTM
node's gate split and on CPU BERT's stacked Q/K/V GEMM
(``CombineParallelDense``); GPU BERT has no split to join.

**Dynamic policy** (the paper's addition): an operator whose shape
function is data-dependent or upper-bound can never absorb producers —
its shape function would need access to intermediate values of the fused
group. Such ops always compile as singleton kernels.

**Multi-output groups.** A group ending in a tuple (``split``) is then
merged with every group that reads its ``TupleGetItem`` projections, when
the tuple is read only through projections, no projection reaches the
chain's tail and every projection's readers are calls ``_can_fuse``
accepts against the tuple op's own pattern (not against a GEMM it
absorbed). The merged group materializes at its last member before the
first binding outside it that reads a member, and every member past that
point must read only members and what is bound before it (so the group
stays acyclic). An LSTM cell's gate GEMM, its ``split`` and both state
updates become one kernel per layer step, the ``(1, 4H)`` pre-activation
a temporary inside it; so do BERT's stacked Q/K/V GEMM, its ``split`` and
its three head reshapes, one kernel per layer materialized before the
scores read two of them.

After grouping, every group (including singletons — uniform lowering)
becomes a ``primitive`` Function called with its external inputs, exactly
how Relay marks post-fusion kernels; code generation consumes these. A
group returns every member read outside it: one value directly, several
as a ``Tuple`` whose projections re-bind the original variables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple as PyTuple

from repro.errors import CompilerError
from repro.ir.analysis import fold_lets, let_chain, map_nested_scopes, use_sites
from repro.ir.expr import Call, Expr, Function, Tuple, TupleGetItem, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import Any, TensorType, TupleType, Type
from repro.ops import DIALECT_OPS, get_op_def
from repro.ops.registry import OpPattern
from repro.ops.shape_funcs import normalize_axis
from repro.passes.pass_manager import Pass
from repro.utils.naming import NameSupply


def _fusable_call(value: Expr) -> bool:
    return (
        isinstance(value, Call)
        and isinstance(value.op, Op)
        and value.op.name not in DIALECT_OPS
        and get_op_def(value.op.name).pattern != OpPattern.OPAQUE
    )


def _wrappable_call(value: Expr) -> bool:
    """Calls that become (possibly singleton) primitive kernels."""
    return (
        isinstance(value, Call)
        and isinstance(value.op, Op)
        and value.op.name not in DIALECT_OPS
    )


def _can_fuse(producer_pattern: OpPattern, consumer_op: Op) -> bool:
    op_def = get_op_def(consumer_op.name)
    if op_def.is_dynamic_shape_func:
        return False  # the paper's dynamic fusion policy
    consumer_pattern = op_def.pattern
    if consumer_pattern in (OpPattern.ELEMWISE, OpPattern.BROADCAST):
        return producer_pattern <= OpPattern.OUT_ELEMWISE_FUSABLE
    if consumer_pattern == OpPattern.INJECTIVE:
        return producer_pattern <= OpPattern.INJECTIVE
    if consumer_pattern == OpPattern.COMM_REDUCE:
        return producer_pattern <= OpPattern.INJECTIVE
    return False


def _named(value: Expr, name: str) -> bool:
    return isinstance(value, Call) and isinstance(value.op, Op) and value.op.name == name


def _splits_dense(
    split: Expr, bias_add: Expr, bindings: List[PyTuple[Var, Expr]], index_of: Dict[Var, int]
) -> bool:
    """Does *split* cut *bias_add*, an ``nn.dense``'s bias add, on the last
    axis at static widths? Then each part is a column block of the GEMM's
    output, and the split is the GEMM's epilogue."""
    if not (_named(split, "split") and _named(bias_add, "nn.bias_add")):
        return False
    j = index_of.get(bias_add.args[0])  # type: ignore[union-attr, arg-type]
    if j is None or not _named(bindings[j][1], "nn.dense"):
        return False
    fields = split.checked_type.fields  # type: ignore[union-attr]
    ndim = len(fields[0].shape)
    return (normalize_axis(split.attrs.get("axis", 0), ndim) == ndim - 1  # type: ignore[union-attr]
            and not any(isinstance(field.shape[-1], Any) for field in fields))


def _operands(value: Expr) -> List[Expr]:
    """The operands of a fused member: a call's arguments or a projection's tuple."""
    return [value.tuple_value] if isinstance(value, TupleGetItem) else value.args  # type: ignore[union-attr]


class _Group:
    """A set of binding indices being fused together."""

    __slots__ = ("indices", "pattern")

    def __init__(self, index: int, pattern: OpPattern) -> None:
        self.indices: List[int] = [index]
        self.pattern = pattern


class _Fuser:
    def __init__(self) -> None:
        self.names = NameSupply()

    # -- per-chain fusion ------------------------------------------------------
    def fuse_chain(self, scope: Expr) -> Expr:
        """*scope* with each of its chains, nested ones first, fused."""
        bindings, tail = let_chain(scope)
        bindings = [(var, map_nested_scopes(value, self.fuse_chain)) for var, value in bindings]
        # Use sites, once per chain. Chain vars can only be used inside
        # this chain (values incl. nested scopes) and its tail.
        sites = use_sites(bindings, tail)
        index_of: Dict[Var, int] = {var: i for i, (var, _) in enumerate(bindings)}
        groups: Dict[int, _Group] = {}
        group_of: Dict[int, int] = {}

        for i, (var, value) in enumerate(bindings):
            if not _fusable_call(value):
                continue
            op_def = get_op_def(value.op.name)  # type: ignore[union-attr]
            groups[i] = _Group(i, op_def.pattern)
            group_of[i] = i
            if op_def.is_dynamic_shape_func:
                continue  # never absorbs producers
            for arg in value.args:  # type: ignore[union-attr]
                if not isinstance(arg, Var):
                    continue
                j = index_of.get(arg)
                if j is None or j not in group_of:
                    continue
                if len(sites.get(arg, ())) != 1:
                    continue  # producer value needed elsewhere
                producer_root = group_of[j]
                producer = groups[producer_root]
                if not (_can_fuse(producer.pattern, value.op)  # type: ignore[arg-type]
                        or _splits_dense(value, bindings[j][1], bindings, index_of)):
                    continue
                # Merge the producer group into this one.
                mine = groups[group_of[i]]
                for idx in producer.indices:
                    group_of[idx] = group_of[i]
                mine.indices = sorted(set(mine.indices) | set(producer.indices))
                mine.pattern = max(mine.pattern, producer.pattern)
                if producer_root != group_of[i]:
                    del groups[producer_root]

        for root in sorted(groups):
            if root in groups and isinstance(bindings[root][0].checked_type, TupleType):
                self._merge_tuple_group(root, bindings, sites, index_of, groups, group_of)

        # Rebuild the chain. A group materializes at its *root* (the
        # highest index in the group); members are dropped from the chain.
        member_indices: Set[int] = set(group_of)
        new_bindings: List[PyTuple[Var, Expr]] = []
        for i, (var, value) in enumerate(bindings):
            if i in groups:
                new_bindings.extend(self._materialize(groups[i], bindings, sites))
            elif i in member_indices:
                continue  # fused into a later root
            elif _wrappable_call(value):
                # OPAQUE (but non-dialect) calls become singleton kernels
                # too, so every compute lowers uniformly to InvokePacked.
                fake = _Group(i, get_op_def(value.op.name).pattern)  # type: ignore[union-attr]
                new_bindings.extend(self._materialize(fake, bindings, sites))
            else:
                new_bindings.append((var, value))

        return fold_lets(new_bindings, tail)

    def _merge_tuple_group(
        self,
        root: int,
        bindings: List[PyTuple[Var, Expr]],
        sites: Dict[Var, List[int]],
        index_of: Dict[Var, int],
        groups: Dict[int, _Group],
        group_of: Dict[int, int],
    ) -> None:
        """Merge the tuple-producing group at *root* with every group that
        reads its projections, when that keeps one acyclic kernel."""
        producer = groups[root]
        tuple_var, tuple_value = bindings[root]
        # The projections' readers fuse with the tuple op, not with what
        # it absorbed (a sectioned dense's GEMMs).
        pattern = get_op_def(tuple_value.op.name).pattern  # type: ignore[union-attr]
        tail_index = len(bindings)
        members = set(producer.indices)
        merged = {root}
        for j in sites.get(tuple_var, ()):
            if j == tail_index or not isinstance(bindings[j][1], TupleGetItem):
                return  # the tuple is read other than through a projection
            members.add(j)
            for k in sites.get(bindings[j][0], ()):
                if k == tail_index or k not in group_of:
                    return  # a projection escapes, or its reader is no kernel
                if not _can_fuse(pattern, bindings[k][1].op):  # type: ignore[union-attr]
                    return
                merged.add(group_of[k])
        if len(merged) == 1:
            return
        for g in merged:
            members.update(groups[g].indices)
        first_read = tail_index
        for m in members:
            var = bindings[m][0]
            outside = [k for k in sites.get(var, ()) if k not in members]
            if outside and not isinstance(var.checked_type, TensorType):
                return  # a non-tensor output
            first_read = min([first_read, *outside])
        # The group materializes at its last member before any outside
        # read; a member past that point must read only what is bound
        # before it.
        at = max(m for m in members if m < first_read)
        for m in members:
            if m > at and any(
                    isinstance(a, Var) and a in index_of and index_of[a] not in members
                    and group_of.get(index_of[a], index_of[a]) > at
                    for a in _operands(bindings[m][1])):
                return  # read between the members
        group = _Group(at, max(groups[g].pattern for g in merged))
        group.indices = sorted(members)
        for g in merged:
            del groups[g]
        groups[at] = group
        for m in members:
            group_of[m] = at

    def _materialize(
        self, group: _Group, bindings: List[PyTuple[Var, Expr]], sites: Dict[Var, List[int]]
    ) -> List[PyTuple[Var, Expr]]:
        """The chain bindings of one fused group: its primitive function's
        call, bound to the one output or to a tuple of the outputs (every
        member read outside the group) that projections re-bind."""
        members = [bindings[i] for i in group.indices]
        internal: Set[Var] = {var for var, _ in members}
        inside = set(group.indices)

        # External inputs in first-use order (vars and constants).
        ext_order: List[Expr] = []
        seen: Set[int] = set()
        for _, value in members:
            for arg in _operands(value):
                if isinstance(arg, Var) and arg in internal:
                    continue
                if id(arg) in seen:
                    continue
                # Identical Var referenced twice should become one param.
                if isinstance(arg, Var) and any(arg is e for e in ext_order):
                    continue
                seen.add(id(arg))
                ext_order.append(arg)

        params: List[Var] = []
        replacement: Dict[int, Var] = {}
        for ext in ext_order:
            ty: Optional[Type] = ext.checked_type
            if ty is None:
                raise CompilerError("FuseOps requires a type-checked module")
            param = Var(self.names.fresh("p"), ty)
            params.append(param)
            replacement[id(ext)] = param

        # Body: inner let chain over the members, ending at the root value
        # or at the tuple of the outputs. An output is re-bound in the
        # chain, so inside the body it binds a fresh var.
        root_var = members[-1][0]
        outputs = [
            var for var, _ in members
            if any(k not in inside for k in sites.get(var, ()))
        ]
        single = not outputs or (len(outputs) == 1 and outputs[0] is root_var)
        if not single:
            for var in outputs:
                replacement[id(var)] = Var(self.names.fresh(var.name_hint), var.checked_type)

        def subst(arg: Expr) -> Expr:
            return replacement.get(id(arg), arg)

        new_values: List[PyTuple[Var, Expr]] = []
        for var, value in members:
            if isinstance(value, TupleGetItem):
                new_value: Expr = TupleGetItem(value.tuple_value, value.index)
            else:
                assert isinstance(value, Call)
                new_value = Call(value.op, [subst(a) for a in value.args], value.attrs)
            new_values.append((subst(var), new_value))
        if single:
            body: Expr = new_values.pop()[1]
            ret_type = root_var.checked_type
        else:
            body = Tuple([subst(var) for var in outputs])
            ret_type = TupleType([var.checked_type for var in outputs])
        body = fold_lets(new_values, body)

        call = Call(Function(params, body, ret_type, {"primitive": True}), list(ext_order))
        if single:
            return [(root_var, call)]
        result = Var(self.names.fresh("fused"), ret_type)
        return [(result, call)] + [
            (var, TupleGetItem(result, k)) for k, var in enumerate(outputs)
        ]


class FuseOps(Pass):
    name = "FuseOps"

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        for gv, func in list(out.functions.items()):
            if func.is_primitive:
                continue
            fuser = _Fuser()
            out.functions[gv] = Function(
                func.params, fuser.fuse_chain(func.body), func.ret_type, func.attrs
            )
        return out
