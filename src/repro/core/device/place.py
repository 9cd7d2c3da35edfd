"""Heterogeneous device placement via DeviceDomain unification (§4.4).

Implements the paper's rules with a union-find over variables plus fixed
device tokens:

* ``vm.shape_of`` outputs default to the **CPU domain** (a tensor's shape
  is host-readable wherever the data lives — no copy for the input);
* shape functions (``vm.shape_func``) and ``vm.storage_size`` take and
  produce CPU-domain values (cheap scalar arithmetic belongs on the host);
* ``vm.invoke_mut`` requires all of its tensor arguments — inputs and
  outputs — in the *kernel's* domain; kernels whose tensors are all
  scalars are placed on the host (the "CPU friendly" nodes of §2.2),
  everything else on the platform's compute device;
* ``memory.alloc_storage`` / ``memory.alloc_tensor`` propagate the domain
  of the tensors they back (via alias unification);
* ``device.device_copy`` breaks domains (and is what this pass inserts);
* move/tuple/projection/view bindings unify with their sources;
* ``if`` conditions are host-read (the interpreter branches on them);
* a direct call ``@f(...)`` unifies each tensor argument with ``f``'s
  parameter and its bound variable with ``f``'s result. Only functions
  with no direct caller (entry points, lifted closures) and closure
  literals have their tensor parameters pinned to the compute device.

One table holds the whole module (function-local ``Var``s are distinct
objects) and is solved in execution order from the entry points, so a
value's producer fixes its domain before any consumer, across branches
and calls: loop scalars a host kernel produces stay on the host. Where a
variable is then required on the other device, the pass inserts a
``device_copy`` at the conflicting use — "assigning each IR node in a way
that minimizes the number of cross-device copies".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple as PyTuple, Union

from repro.ir.analysis import fold_lets, let_chain, map_nested_scopes, nested_scopes
from repro.ir.expr import Call, Expr, Function, GlobalVar, If, Match, Tuple, TupleGetItem, Var
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.ir.types import TensorType
from repro.ops.shape_funcs import HOST_SCALAR_MAX_ELEMENTS
from repro.passes.pass_manager import Pass
from repro.tensor.device import Device
from repro.utils.naming import NameSupply
from repro.utils.union_find import UnionFind


@dataclass
class PlacementReport:
    host_to_device: int = 0
    device_to_host: int = 0
    host_kernels: int = 0
    device_kernels: int = 0

    @property
    def copies_inserted(self) -> int:
        return self.host_to_device + self.device_to_host


def _is_scalar_kernel(call: Call) -> bool:
    """Every tensor flowing through this invoke is scalar-like (rank 0, or
    a tiny static vector such as a shape): these are the "CPU friendly"
    nodes of §2.2 — loop counters, conditions, index arithmetic."""
    _, inputs, outputs = call.args
    for group in (inputs, outputs):
        assert isinstance(group, Tuple)
        for item in group.fields:
            ty = item.checked_type
            if isinstance(ty, TensorType) and ty.ndim > 0:
                n = ty.num_elements()
                if n is None or n > HOST_SCALAR_MAX_ELEMENTS:
                    return False
    return True


def _is_tensor(var: Var) -> bool:
    return isinstance(var.checked_type or var.type_annotation, TensorType)


def _direct_callees(scope: Expr) -> Iterator[GlobalVar]:
    """The callees of every direct call ``_Placer.solve`` meets in *scope*:
    a Let value or the tail, here or in a nested scope (``iter_nodes``
    would also walk every kernel body and constant)."""
    bindings, tail = let_chain(scope)
    for value in [v for _, v in bindings] + [tail]:
        if isinstance(value, Call) and isinstance(value.op, GlobalVar):
            yield value.op
        for nested in nested_scopes(value):
            yield from _direct_callees(nested)


class _Domains:
    """Union-find over vars with an optional fixed Device per class."""

    def __init__(self) -> None:
        self.uf: UnionFind[Var] = UnionFind()
        self.device: Dict[Var, Optional[Device]] = {}

    def fix(self, var: Var, device: Device) -> bool:
        """Pin *var*'s class to *device*. Returns False on conflict."""
        root = self.uf.find(var)
        current = self.device.get(root)
        if current is None:
            self.device[root] = device
            return True
        return current == device

    def union(self, a: Var, b: Var) -> bool:
        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra == rb:
            return True
        da, db = self.device.get(ra), self.device.get(rb)
        if da is not None and db is not None and da != db:
            return False
        root = self.uf.union(ra, rb)
        self.device[root] = da if da is not None else db
        for stale in (ra, rb):
            if stale != root and stale in self.device:
                del self.device[stale]
        return True

    def lookup(self, var: Var) -> Optional[Device]:
        return self.device.get(self.uf.find(var))


class _Placer:
    """One module's placement: ``solve`` fills the one domain table in
    execution order from the entry points, ``rewrite`` then inserts the
    copies it found and stamps allocation devices, scope by scope."""

    def __init__(
        self, host: Device, compute: Device, report: PlacementReport,
        functions: Dict[GlobalVar, Function],
    ) -> None:
        self.host = host
        self.compute = compute
        self.report = report
        self.functions = functions
        self.names = NameSupply()
        self.domains = _Domains()
        # Per function whose solve has started (a recursive call finds it
        # here), the variable its result flows into.
        self.results: Dict[GlobalVar, Var] = {}
        # id(binding value) -> the (var, device) uses that lost to an
        # earlier fix: each reads a device_copy instead.
        self.copies: Dict[int, List[PyTuple[Var, Device]]] = {}

    # ----------------------------------------------------------------- solving
    def solve_function(self, gv: GlobalVar, pinned: bool) -> None:
        func = self.functions[gv]
        self.results[gv] = Var("ret")
        if pinned:
            for p in func.params:
                if _is_tensor(p):
                    self.domains.fix(p, self.compute)
        self.solve(func.body, self.results[gv])

    def solve(self, scope: Expr, result: Var) -> None:
        """Walk *scope* as it executes: aliases unify, a constraint holds
        from where it first arises (first fixed wins; a later loser reads a
        copy at its use), and a branch or a callee is solved where control
        reaches it — after the producers of what flows in, before the
        consumers of what flows out into *result*."""
        bindings, tail = let_chain(scope)
        if isinstance(tail, Var):
            # The scope's value is its tail's from the start: a consumer of
            # *result* met on the way (a recursive call's projection) then
            # finds it where an earlier branch's kernel wrote it.
            self.domains.union(result, tail)
        for var, value in bindings:
            self._solve_binding(var, value)
        self._solve_binding(result, tail)

    def _solve_binding(self, var: Var, value: Expr) -> None:
        domains = self.domains
        cons: List[PyTuple[Var, Union[Device, Var]]] = []
        callee = self.functions.get(value.op) if isinstance(value, Call) else None
        if isinstance(value, Var):
            domains.union(var, value)
        elif isinstance(value, Tuple):
            for fexpr in value.fields:
                if isinstance(fexpr, Var):
                    domains.union(var, fexpr)
        elif isinstance(value, TupleGetItem):
            if isinstance(value.tuple_value, Var):
                domains.union(var, value.tuple_value)
        elif isinstance(value, Call) and isinstance(value.op, Op):
            cons = self._op_constraints(var, value)
        elif callee is not None:
            # An argument's producer decides where the parameter lives; one
            # already fixed elsewhere is copied here, at the call site.
            for arg, param in zip(value.args, callee.params):
                if isinstance(arg, Var) and _is_tensor(param):
                    cons.append((arg, param))
        elif isinstance(value, (If, Match)):
            # The condition/scrutinee is host-read.
            head = value.cond if isinstance(value, If) else value.data
            if isinstance(head, Var):
                cons.append((head, self.host))

        for cvar, want in cons:
            if isinstance(want, Var):
                fits, want = domains.union(cvar, want), domains.lookup(want)
            else:
                fits = domains.fix(cvar, want)
            if not fits:
                self.copies.setdefault(id(value), []).append((cvar, want))

        if isinstance(value, Function) and not value.is_primitive:
            # A closure's callers are not known statically: its tensor
            # parameters live on the compute device, as a lifted one's do.
            for p in value.params:
                if _is_tensor(p):
                    domains.fix(p, self.compute)
            var = Var("ret")  # the body's value is not the closure
        for nested in nested_scopes(value):
            self.solve(nested, var)
        if callee is not None:
            if value.op not in self.results:
                self.solve_function(value.op, pinned=False)
            domains.union(var, self.results[value.op])

    # ------------------------------------------------------- constraint rules
    def _op_constraints(self, var: Var, call: Call) -> List[PyTuple[Var, Device]]:
        name = call.op.name  # type: ignore[union-attr]
        cons: List[PyTuple[Var, Device]] = []
        if name == "vm.shape_of":
            cons.append((var, self.host))  # output host; input unconstrained
        elif name in ("vm.shape_func", "vm.storage_size"):
            cons.append((var, self.host))
            for arg in call.args:
                if isinstance(arg, Tuple):
                    for fexpr in arg.fields:
                        if isinstance(fexpr, Var):
                            cons.append((fexpr, self.host))
                elif isinstance(arg, Var):
                    cons.append((arg, self.host))
        elif name == "vm.invoke_mut":
            # Shape functions and storage-size computations are pinned to
            # the host (§4.4); all-scalar kernels are host-friendly too.
            kind = call.attrs.get("kind", "compute")
            host_kind = kind in ("shape_func", "host_scalar")
            kernel_dev = self.host if host_kind or _is_scalar_kernel(call) else self.compute
            if kernel_dev == self.host:
                self.report.host_kernels += 1
            else:
                self.report.device_kernels += 1
            call.attrs["device"] = kernel_dev
            _, inputs, outputs = call.args
            for group in (inputs, outputs):
                assert isinstance(group, Tuple)
                for item in group.fields:
                    if isinstance(item, Var):
                        cons.append((item, kernel_dev))
        elif name == "memory.alloc_tensor":
            if isinstance(call.args[0], Var):
                self.domains.union(var, call.args[0])
            # Dynamic shape operand is a host-side shape vector.
            if len(call.args) > 2 and isinstance(call.args[2], Var):
                cons.append((call.args[2], self.host))
        elif name in ("vm.slice_upper_bound", "vm.reshape_tensor"):
            if isinstance(call.args[0], Var):
                self.domains.union(var, call.args[0])
            if len(call.args) > 1 and isinstance(call.args[1], Var):
                cons.append((call.args[1], self.host))
        elif name == "device.device_copy":
            cons.append((var, call.attrs["dst_device"]))
        return cons

    # --------------------------------------------------------------- rewriting
    def rewrite(self, scope: Expr) -> Expr:
        """Insert the copies ``solve`` found (one per variable, device and
        scope), stamp allocation devices, recurse into nested scopes."""
        bindings, tail = let_chain(scope)
        out: List[PyTuple[Var, Expr]] = []
        copy_cache: Dict[PyTuple[int, Device], Var] = {}
        for var, value in bindings:
            value = self._rewrite_value(var, value, out, copy_cache)
            out.append((var, value))
        tail = self._rewrite_value(None, tail, out, copy_cache)
        return fold_lets(out, tail)

    def _rewrite_value(self, var: Optional[Var], value: Expr, out: list, copy_cache: dict) -> Expr:
        subst: Dict[int, Var] = {}
        for cvar, cdev in self.copies.get(id(value), ()):
            key = (id(cvar), cdev)
            if key not in copy_cache:
                copy_var = Var(self.names.fresh("dcopy"), cvar.checked_type)
                attrs = {"src_device": self.domains.lookup(cvar), "dst_device": cdev}
                out.append((copy_var, Call(Op.get("device.device_copy"), [cvar], attrs)))
                copy_cache[key] = copy_var
                if cdev == self.host:
                    self.report.device_to_host += 1
                else:
                    self.report.host_to_device += 1
            subst[id(cvar)] = copy_cache[key]
        value = self._substitute(value, subst)

        if isinstance(value, Call) and isinstance(value.op, Op):
            if value.op.name == "memory.alloc_storage":
                value.attrs["device"] = self.domains.lookup(var) or self.compute
            return value
        return map_nested_scopes(value, self.rewrite)

    @staticmethod
    def _substitute(value: Expr, subst: Dict[int, Var]) -> Expr:
        if not subst:
            return value
        if isinstance(value, Var):
            return subst.get(id(value), value)
        if isinstance(value, Call):
            new_args = []
            for arg in value.args:
                if isinstance(arg, Tuple):
                    new_args.append(
                        Tuple([subst.get(id(f), f) if isinstance(f, Var) else f for f in arg.fields])
                    )
                elif isinstance(arg, Var):
                    new_args.append(subst.get(id(arg), arg))
                else:
                    new_args.append(arg)
            return Call(value.op, new_args, value.attrs)
        if isinstance(value, Tuple):
            return Tuple([subst.get(id(f), f) if isinstance(f, Var) else f for f in value.fields])
        if isinstance(value, If) and isinstance(value.cond, Var):
            return If(subst.get(id(value.cond), value.cond), value.true_branch, value.false_branch)
        if isinstance(value, Match) and isinstance(value.data, Var):
            return Match(subst.get(id(value.data), value.data), value.clauses, value.complete)
        return value


class DevicePlace(Pass):
    """Module pass: run placement over every non-primitive function."""

    name = "DevicePlace"

    def __init__(self, host: Device, compute: Device) -> None:
        self.host = host
        self.compute = compute
        self.report = PlacementReport()

    def run(self, mod: IRModule) -> IRModule:
        out = mod.shallow_copy()
        functions = {gv: f for gv, f in out.functions.items() if not f.is_primitive}
        called = {gv for func in functions.values() for gv in _direct_callees(func.body)}
        placer = _Placer(self.host, self.compute, self.report, functions)
        # Entry points first; a callee is solved from its first call site
        # (only one that no entry point reaches is still unsolved after).
        for gv in sorted(functions, key=called.__contains__):
            if gv not in placer.results:
                placer.solve_function(gv, pinned=gv not in called)
        for gv, func in functions.items():
            out.functions[gv] = Function(
                func.params, placer.rewrite(func.body), func.ret_type, func.attrs
            )
        return out
