"""IR → bytecode compilation (§5.1).

Consumes a module that has been through the full dynamic pipeline (typing,
fusion, ANF, manifest allocation, memory planning, device placement) and
emits :class:`Executable` bytecode:

* kernel invocations (``vm.invoke_mut``) become ``InvokePacked`` over a
  packed-function table holding :class:`KernelSet`s (compute) and
  :class:`ShapeFuncKernel`s (shape functions);
* memory dialect ops become the Alloc* instructions; ``memory.kill``
  lowers to clobbering the register (the refcount drop releases storage);
* ``if`` lowers to the register-equality ``If`` + ``Goto``; ``match``
  lowers to ``GetTag`` + tag tests + ``GetField`` destructuring;
* recursion through GlobalVars becomes ``Invoke`` on the function table.

Registers are virtual (the "infinite register file" of §5.1) and the
compiler is a single forward walk, but a register is not one binding's.
As in the TVM VM compiler Nimble is built on, a walk that emits no
bookkeeping shares registers where the IR has names for one value:

* ``let y = x`` binds *y* to *x*'s register and emits nothing; only the
  ``If`` / ``Match`` joins move a value, into the register both arms
  write;
* a projection of a tuple built in the function reads the field's
  register, unless that register was killed since (then ``GetField``
  reads the tuple, which still holds the field);
* a rank-0 integer constant (a planned size or offset) is one pool
  entry per (dtype, value, device) and is loaded once per basic block:
  the cache of loaded registers is emptied at every block leader, so a
  load always dominates its uses on every path;
* ``memory.kill`` is emitted once per register on a path: the set of
  killed registers is copied into each arm and joined after it.

Sharing is safe because nothing writes a register after its defining
write but a kill, and the memory planner kills a whole alias group (a
var and its let-copies, tuples and views) only after the group's last
use: no register is clobbered while a name for it is still read. A
last linear pass drops the pure writes nobody reads (the unit value of
a kill or a kernel call, a tuple whose every projection was forwarded)
and re-patches the jump offsets around them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple as PyTuple

from repro.codegen.kernels import KernelCache, prim_key
from repro.errors import CompilerError
from repro.hardware.platforms import Platform
from repro.ir.analysis import let_chain, structural_equal
from repro.ir.expr import (
    Call,
    Constant,
    Constructor,
    Expr,
    Function,
    GlobalVar,
    If as IRIf,
    Match,
    Pattern,
    PatternConstructor,
    PatternVar,
    PatternWildcard,
    Tuple as IRTuple,
    TupleGetItem,
    Var,
)
from repro.ir.module import IRModule
from repro.ir.op import Op
from repro.tensor.ndarray import NDArray
from repro.vm import instruction as ins
from repro.vm.executable import Executable, VMFunction
from repro.vm.objects import ADTObj


class CompilerOptions:
    """What a compile may vary: the stream count and the verify gate.

    The codegen ablations (Figure 3's dispatch count, library selection,
    schedules) are arguments of :class:`repro.codegen.KernelSet`, which
    the studies construct directly; a compile always builds the default
    kernel for each fused group."""

    def __init__(self, device_streams: int = 1, verify: bool = True) -> None:
        # How many device streams to schedule kernels onto ahead of time
        # (repro.vm.schedule). Clamped to the platform's stream count at
        # compile time; 1 (or any CPU platform) means the scheduling pass
        # never runs and the bytecode is exactly the single-lane build.
        self.device_streams = device_streams
        # Run the static verifiers (repro.analysis) on the finished
        # executable and raise VerificationError on any error finding.
        # Default on: verification costs <15% of a compile
        # (benchmarks/bench_verify.py) and turns scheduler/memory-plan
        # bugs into compile-time failures instead of wrong answers.
        self.verify = verify


class _FnCtx:
    def __init__(self) -> None:
        self.instructions: List[ins.Instruction] = []
        self.env: Dict[Var, int] = {}
        self.reg_count = 0
        self._unit_reg: Optional[int] = None
        # Registers holding a tuple built in this function: its fields'.
        self.fields: Dict[int, PyTuple[int, ...]] = {}
        # Registers killed on the path being compiled.
        self.killed: Set[int] = set()
        # Pool index -> the register it was loaded into in this block.
        self.loaded: Dict[int, int] = {}

    def new_reg(self) -> int:
        reg = self.reg_count
        self.reg_count += 1
        return reg

    def emit(self, instr: ins.Instruction) -> None:
        self.instructions.append(instr)

    def leader(self) -> None:
        """The next instruction starts a basic block: no load before it
        is known to have run on every path that reaches it."""
        self.loaded.clear()

    def unit_reg(self) -> int:
        if self._unit_reg is None:
            self._unit_reg = self.new_reg()
            self.emit(ins.LoadConsti(0, self._unit_reg))
        return self._unit_reg


def drop_unread_writes(code: List[ins.Instruction], num_params: int) -> List[ins.Instruction]:
    """*code* without the writes nobody reads: every write of a register
    no instruction reads, when each of them is pure, goes — a kill of a
    never-read tuple with the tuple — and so, in turn, do the writes
    only a dropped instruction read. ``If`` / ``Goto`` offsets are
    re-patched to the kept instructions."""
    reads: Dict[int, int] = {}
    writers: Dict[int, List[int]] = {}
    for pc, instr in enumerate(code):
        used, written = ins.operands(instr)
        for r in used:
            reads[r] = reads.get(r, 0) + 1
        for r in written:
            writers.setdefault(r, []).append(pc)
    dead: Set[int] = set()
    work = [r for r in writers if r >= num_params]
    while work:
        r = work.pop()
        pcs = writers[r]
        if reads.get(r, 0) or any(code[pc].opcode not in ins.PURE for pc in pcs):
            continue
        dead.update(pcs)
        for pc in pcs:
            for used in ins.operands(code[pc])[0]:
                reads[used] -= 1
                if not reads[used] and used in writers and used >= num_params:
                    work.append(used)
    if not dead:
        return code
    # new_pc[pc]: where the first kept instruction at or after pc lands.
    new_pc = [0] * (len(code) + 1)
    kept = 0
    for pc in range(len(code)):
        new_pc[pc] = kept
        kept += pc not in dead
    new_pc[len(code)] = kept
    out: List[ins.Instruction] = []
    for pc, instr in enumerate(code):
        if pc in dead:
            continue
        here = new_pc[pc]
        if isinstance(instr, ins.If):
            instr = ins.If(instr.test, instr.target,
                           new_pc[pc + instr.true_offset] - here,
                           new_pc[pc + instr.false_offset] - here)
        elif isinstance(instr, ins.Goto):
            instr = ins.Goto(new_pc[pc + instr.pc_offset] - here)
        out.append(instr)
    return out


class VMCompiler:
    def __init__(
        self,
        platform: Platform,
        options: Optional[CompilerOptions] = None,
        kernel_cache: Optional[KernelCache] = None,
    ) -> None:
        self.platform = platform
        self.options = options or CompilerOptions()
        # `or` would discard an *empty* shared cache (KernelCache defines
        # __len__, so a fresh cache is falsy) and silently compile into a
        # private one — an explicit None check keeps sharing intact.
        self.kernel_cache = KernelCache() if kernel_cache is None else kernel_cache
        self._constants: List[NDArray] = []
        self._const_index: Dict[object, int] = {}
        self._scalar_indices: Set[int] = set()  # pool entries loaded once per block
        self._kernels: list = []
        self._packed_index: Dict[tuple, List[int]] = {}

    # ------------------------------------------------------------------ driver
    def compile(
        self,
        mod: IRModule,
        specialized_shapes: Optional[tuple] = None,
        specialized_batch: Optional[int] = None,
    ) -> Executable:
        """Emit *mod*'s executable. ``nimble.specialize`` passes what it
        bound: the entry shapes, in *member* terms, and the batch when
        one call stacks that many members — a separate marker, so
        (member shape, batch) variants never alias. They are stamped
        before verification, which reads them."""
        names = [gv.name_hint for gv, f in mod.functions.items() if not f.is_primitive]
        func_index = {name: i for i, name in enumerate(names)}
        functions: List[VMFunction] = []
        for gv, func in mod.functions.items():
            if func.is_primitive:
                continue
            functions.append(self.compile_function(gv.name_hint, func, func_index))
        exe = Executable(
            platform_name=self.platform.name,
            functions=functions,
            func_index=func_index,
            constants=self._constants,
            kernels=self._kernels,
            specialized_shapes=specialized_shapes,
            specialized_batch=specialized_batch,
        )
        # AOT multi-stream scheduling pass: a bytecode-to-bytecode rewrite
        # over the finished executable. The requested stream count is
        # clamped to the hardware (CPU platforms clamp to 1), so the pass
        # is a guaranteed no-op wherever streams cannot overlap.
        streams = self.platform.effective_streams(self.options.device_streams)
        if streams > 1:
            from repro.vm.schedule import schedule_executable

            schedule_executable(exe, streams)
        if self.options.verify:
            from repro.analysis import assert_verified

            assert_verified(exe, context="(freshly compiled)")
        return exe

    # ------------------------------------------------------------- per function
    def compile_function(self, name: str, func: Function, func_index: Dict[str, int]) -> VMFunction:
        ctx = _FnCtx()
        self._func_index = func_index
        for param in func.params:
            ctx.env[param] = ctx.new_reg()
        result = self.compile_scope(func.body, ctx)
        ctx.emit(ins.Ret(result))
        code = drop_unread_writes(ctx.instructions, len(func.params))
        return VMFunction(name, len(func.params), code, ctx.reg_count)

    # --------------------------------------------------------------------- scopes
    def compile_scope(self, expr: Expr, ctx: _FnCtx) -> int:
        bindings, tail = let_chain(expr)
        for var, value in bindings:
            ctx.env[var] = self.compile_value(var, value, ctx)
        return self.compile_atom(tail, ctx)

    def compile_atom(self, expr: Expr, ctx: _FnCtx) -> int:
        if isinstance(expr, Var):
            try:
                return ctx.env[expr]
            except KeyError:
                raise CompilerError(f"unbound variable %{expr.name_hint} at VM compile") from None
        if isinstance(expr, Constant):
            index = self.const_index(expr)
            reg = ctx.loaded.get(index)
            if reg is None or reg in ctx.killed:
                reg = ctx.new_reg()
                ctx.emit(ins.LoadConst(index, reg))
                if index in self._scalar_indices:
                    ctx.loaded[index] = reg
            return reg
        raise CompilerError(f"expected an atom, got {type(expr).__name__}")

    # --------------------------------------------------------------------- values
    def compile_value(self, var: Var, value: Expr, ctx: _FnCtx) -> int:
        if isinstance(value, (Var, Constant)):
            return self.compile_atom(value, ctx)
        if isinstance(value, IRTuple):
            fields = tuple(self.compile_atom(f, ctx) for f in value.fields)
            dst = ctx.new_reg()
            ctx.emit(ins.AllocADT(ADTObj.TUPLE_TAG, fields, dst))
            ctx.fields[dst] = fields
            return dst
        if isinstance(value, TupleGetItem):
            obj = self.compile_atom(value.tuple_value, ctx)
            fields = ctx.fields.get(obj)
            if fields is not None and fields[value.index] not in ctx.killed:
                return fields[value.index]
            dst = ctx.new_reg()
            ctx.emit(ins.GetField(obj, value.index, dst))
            return dst
        if isinstance(value, IRIf):
            return self.compile_if(value, ctx)
        if isinstance(value, Match):
            return self.compile_match(value, ctx)
        if isinstance(value, Call):
            return self.compile_call(value, ctx)
        if isinstance(value, Function):
            raise CompilerError(
                "function literal reached the VM compiler; run LambdaLift first"
            )
        raise CompilerError(f"cannot compile value {type(value).__name__}")

    # ----------------------------------------------------------------------- calls
    def compile_call(self, call: Call, ctx: _FnCtx) -> int:
        op = call.op
        if isinstance(op, Op):
            return self.compile_dialect(call, ctx)
        if isinstance(op, Constructor):
            fields = tuple(self.compile_atom(a, ctx) for a in call.args)
            dst = ctx.new_reg()
            ctx.emit(ins.AllocADT(op.tag, fields, dst))
            return dst
        if isinstance(op, GlobalVar):
            args = tuple(self.compile_atom(a, ctx) for a in call.args)
            dst = ctx.new_reg()
            try:
                index = self._func_index[op.name_hint]
            except KeyError:
                raise CompilerError(f"call to unknown function @{op.name_hint}") from None
            ctx.emit(ins.Invoke(index, args, dst))
            ctx.leader()
            return dst
        if isinstance(op, Var):
            closure = ctx.env[op]
            args = tuple(self.compile_atom(a, ctx) for a in call.args)
            dst = ctx.new_reg()
            ctx.emit(ins.InvokeClosure(closure, args, dst))
            ctx.leader()
            return dst
        if isinstance(op, Function):
            raise CompilerError(
                "direct primitive call reached the VM compiler; run ManifestAlloc"
            )
        raise CompilerError(f"cannot compile call to {type(op).__name__}")

    def compile_dialect(self, call: Call, ctx: _FnCtx) -> int:
        name = call.op.name  # type: ignore[union-attr]
        if name == "memory.alloc_storage":
            size = self.compile_atom(call.args[0], ctx)
            dst = ctx.new_reg()
            ctx.emit(
                ins.AllocStorage(
                    size,
                    call.attrs.get("alignment", 64),
                    call.attrs.get("device", self.platform.host),
                    dst,
                )
            )
            return dst
        if name == "memory.alloc_tensor":
            storage = self.compile_atom(call.args[0], ctx)
            offset = self.compile_atom(call.args[1], ctx)
            dtype = call.attrs["ttype"].dtype
            dst = ctx.new_reg()
            const_shape = call.attrs.get("const_shape")
            if const_shape is not None:
                ctx.emit(
                    ins.AllocTensor(storage, offset, tuple(int(d) for d in const_shape), dtype, dst)
                )
            else:
                shape_reg = self.compile_atom(call.args[2], ctx)
                ctx.emit(ins.AllocTensorReg(storage, offset, shape_reg, dtype, dst))
            return dst
        if name == "memory.kill":
            victim = call.args[0]
            reg = ctx.env.get(victim) if isinstance(victim, Var) else None
            if reg is not None and reg not in ctx.killed:
                # Clobber the register: the refcount drop releases storage.
                ctx.emit(ins.LoadConsti(0, reg))
                ctx.killed.add(reg)
            return ctx.unit_reg()
        if name == "vm.invoke_mut":
            return self.compile_invoke_mut(call, ctx)
        if name == "vm.shape_of":
            tensor = self.compile_atom(call.args[0], ctx)
            dst = ctx.new_reg()
            ctx.emit(ins.ShapeOf(tensor, dst))
            return dst
        if name == "device.device_copy":
            src = self.compile_atom(call.args[0], ctx)
            dst = ctx.new_reg()
            ctx.emit(
                ins.DeviceCopy(src, dst, call.attrs["src_device"], call.attrs["dst_device"])
            )
            return dst
        if name == "vm.alloc_closure":
            gv = call.args[0]
            if not isinstance(gv, GlobalVar):
                raise CompilerError("alloc_closure expects a lifted GlobalVar")
            captured = tuple(self.compile_atom(a, ctx) for a in call.args[1:])
            dst = ctx.new_reg()
            try:
                index = self._func_index[gv.name_hint]
            except KeyError:
                raise CompilerError(f"closure over unknown function @{gv.name_hint}") from None
            ctx.emit(ins.AllocClosure(index, captured, dst))
            return dst
        if name == "vm.reshape_tensor":
            tensor = self.compile_atom(call.args[0], ctx)
            shape = self.compile_atom(call.args[1], ctx)
            dst = ctx.new_reg()
            ctx.emit(ins.ReshapeTensor(tensor, shape, dst))
            return dst
        raise CompilerError(f"dialect op {name} not lowerable directly")

    def compile_invoke_mut(self, call: Call, ctx: _FnCtx) -> int:
        prim, inputs, outputs = call.args
        if not isinstance(prim, Function) or not isinstance(inputs, IRTuple) or not isinstance(outputs, IRTuple):
            raise CompilerError("malformed vm.invoke_mut")
        kind = call.attrs.get("kind", "compute")
        device = call.attrs.get("device", self.platform.compute)
        in_regs = tuple(self.compile_atom(a, ctx) for a in inputs.fields)
        out_regs = tuple(self.compile_atom(a, ctx) for a in outputs.fields)
        index = self.packed_index(prim, kind, device)
        ctx.emit(ins.InvokePacked(index, in_regs, out_regs, device, kind))
        return ctx.unit_reg()

    # ------------------------------------------------------------------- control
    def compile_if(self, iff: IRIf, ctx: _FnCtx) -> int:
        cond = self.compile_atom(iff.cond, ctx)
        one = ctx.new_reg()
        ctx.emit(ins.LoadConsti(1, one))
        out = ctx.new_reg()
        if_pos = len(ctx.instructions)
        ctx.emit(ins.If(cond, one, 0, 0))  # offsets patched below
        before = set(ctx.killed)
        ctx.leader()
        true_result = self.compile_scope(iff.true_branch, ctx)
        ctx.emit(ins.Move(true_result, out))
        goto_pos = len(ctx.instructions)
        ctx.emit(ins.Goto(0))  # patched
        false_start = len(ctx.instructions)
        killed, ctx.killed = ctx.killed, before
        ctx.leader()
        false_result = self.compile_scope(iff.false_branch, ctx)
        ctx.emit(ins.Move(false_result, out))
        end = len(ctx.instructions)
        ctx.instructions[if_pos] = ins.If(cond, one, 1, false_start - if_pos)
        ctx.instructions[goto_pos] = ins.Goto(end - goto_pos)
        ctx.killed |= killed
        ctx.leader()
        return out

    def compile_match(self, match: Match, ctx: _FnCtx) -> int:
        data = self.compile_atom(match.data, ctx)
        tag = ctx.new_reg()
        ctx.emit(ins.GetTag(data, tag))
        out = ctx.new_reg()
        end_gotos: List[int] = []
        pending_if: Optional[int] = None
        before = set(ctx.killed)
        killed: Set[int] = set()
        for clause in match.clauses:
            clause_start = len(ctx.instructions)
            if pending_if is not None:
                prev = ctx.instructions[pending_if]
                ctx.instructions[pending_if] = ins.If(
                    prev.test, prev.target, 1, clause_start - pending_if
                )
                pending_if = None
            ctx.killed = set(before)
            ctx.leader()
            pattern = clause.pattern
            if isinstance(pattern, PatternConstructor):
                want = ctx.new_reg()
                ctx.emit(ins.LoadConsti(pattern.constructor.tag, want))
                pending_if = len(ctx.instructions)
                ctx.emit(ins.If(tag, want, 0, 0))
                ctx.leader()
                self.bind_pattern_fields(pattern, data, ctx)
            elif isinstance(pattern, PatternVar):
                ctx.env[pattern.var] = data
            # Wildcard: no test, no binding.
            result = self.compile_scope(clause.rhs, ctx)
            ctx.emit(ins.Move(result, out))
            end_gotos.append(len(ctx.instructions))
            ctx.emit(ins.Goto(0))
            killed |= ctx.killed
        tail_start = len(ctx.instructions)
        if pending_if is not None:
            prev = ctx.instructions[pending_if]
            ctx.instructions[pending_if] = ins.If(
                prev.test, prev.target, 1, tail_start - pending_if
            )
        ctx.emit(ins.Fatal("no matching clause"))
        end = len(ctx.instructions)
        for pos in end_gotos:
            ctx.instructions[pos] = ins.Goto(end - pos)
        ctx.killed = killed | before
        ctx.leader()
        return out

    def bind_pattern_fields(self, pattern: PatternConstructor, obj_reg: int, ctx: _FnCtx) -> None:
        for i, sub in enumerate(pattern.patterns):
            if isinstance(sub, PatternWildcard):
                continue
            field = ctx.new_reg()
            ctx.emit(ins.GetField(obj_reg, i, field))
            if isinstance(sub, PatternVar):
                ctx.env[sub.var] = field
            elif isinstance(sub, PatternConstructor):
                # Nested constructor patterns would need their own tag test
                # sequencing; the dynamic models only use one level.
                raise CompilerError("nested constructor patterns are not supported")

    # ------------------------------------------------------------------ resources
    def const_index(self, const: Constant) -> int:
        """The pool entry of *const*: one per array, and one per (dtype,
        value, device) for a rank-0 integer — a planned size or offset."""
        value = const.value
        data = value.data
        scalar = data.ndim == 0 and data.dtype.kind in "iu"
        key = (str(data.dtype), int(data), value.device) if scalar else id(value)
        found = self._const_index.get(key)
        if found is None:
            found = len(self._constants)
            self._constants.append(value)
            self._const_index[key] = found
            if scalar:
                self._scalar_indices.add(found)
        return found

    def packed_index(self, prim: Function, kind: str, device) -> int:
        # The signature component keeps shape-specialized prims apart from
        # structurally identical symbolic ones (see prim_signature). A key
        # is a hash: every index filed under it is a candidate, and the
        # one whose prim is structurally equal is the hit.
        bucket = self._packed_index.setdefault(prim_key(prim, kind), [])
        for index in bucket:
            if structural_equal(self._kernels[index].prim, prim):
                return index
        if kind == "shape_func":
            kernel = self.kernel_cache.shape_func(prim, self.platform)
        else:
            kernel = self.kernel_cache.kernel(
                prim, self.platform, self.platform.spec_of(device)
            )
        index = len(self._kernels)
        self._kernels.append(kernel)
        bucket.append(index)
        return index
