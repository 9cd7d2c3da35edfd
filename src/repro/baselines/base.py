"""Shared machinery for baseline frameworks.

:class:`OpExecutor` executes one operator at a time the way frameworks
do: per-op host dispatch overhead, an *un-fused* vendor-library kernel per
op (frameworks "rely on third-party kernel libraries", §1), and the same
virtual-clock timing model as the VM — so comparisons against Nimble are
apples-to-apples on the hardware side and differ exactly where the paper
says they differ (dispatch, fusion, control-flow machinery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import overhead
from repro.codegen.workload import GEMM_OPS, Workload
from repro.codegen.cost_model import custom_library_cost_us, library_cost_us, tuned_cost_us
from repro.codegen.schedule import Schedule
from repro.evaluator import evaluate
from repro.hardware.platforms import Platform
from repro.ir import Expr, If, IRModule, let_chain
from repro.ops import get_op_def
from repro.ops.registry import array_type, output_shapes
from repro.ops.shape_funcs import prod
from repro.runtime.context import LITE_SKIP_FLOPS, ExecutionContext


@dataclass
class BaselineResult:
    """One framework's run over a workload set: modeled µs in total, and
    each input's output."""

    framework: str
    platform: str
    total_us: float
    outputs: list


class OpExecutor:
    """Per-operator execution with framework-style overheads."""

    def __init__(
        self,
        platform: Platform,
        ctx: ExecutionContext,
        op_overhead_us: float,
        library=None,
    ) -> None:
        self.platform = platform
        self.ctx = ctx
        self.op_overhead_us = op_overhead_us
        # The framework's own bundled kernel library on this platform
        # (see overhead.FRAMEWORK_LIBRARY); None = platform default.
        self.library = library
        self.ops_executed = 0

    # -- core ------------------------------------------------------------------
    def call(self, op_name: str, inputs: Sequence[np.ndarray], attrs: Optional[dict] = None):
        """Dispatch one operator: host overhead + library kernel + compute."""
        attrs = attrs or {}
        op_def = get_op_def(op_name)
        arrays = [np.asarray(i) for i in inputs]
        in_shapes = [x.shape for x in arrays]
        out_shapes = output_shapes(op_def, [array_type(x) for x in arrays], arrays, attrs)
        flops = op_def.flops(in_shapes, out_shapes, attrs)
        dtype_b = 4
        bytes_moved = sum(prod(s) * dtype_b for s in in_shapes) + sum(
            prod(s) * dtype_b for s in out_shapes
        )
        workload = Workload(
            flops=flops,
            bytes_moved=float(bytes_moved),
            working_set=float(bytes_moved),
            is_gemm=op_name in GEMM_OPS,
            out_shapes=tuple(tuple(s) for s in out_shapes),
        )
        spec = self.platform.compute_spec
        clock = self.ctx.clock
        clock.host_advance(self.op_overhead_us)
        self.ops_executed += 1

        if self.library is not None:
            duration = custom_library_cost_us(spec, workload, self.library)
        else:
            duration = library_cost_us(spec, workload)
        if duration is None:
            # No library available: frameworks fall back to naive kernels
            # (noticeably worse than either library or tuned code).
            duration = tuned_cost_us(
                spec, self.platform.name, workload, Schedule(tile=1, vectorize=1, unroll=1), (1, 1, 1)
            ) * 1.4
        if self.platform.compute.is_gpu:
            clock.launch_async(self.platform.compute, duration, spec.host_launch_us)
        else:
            clock.run_sync(duration)

        # Lite numerics: skip the heavy NumPy work (shape-correct zeros).
        if self.ctx.numerics == "lite" and flops > LITE_SKIP_FLOPS and not op_def.is_dynamic_shape_func:
            outs = [np.zeros(s, dtype=arrays[0].dtype if arrays else np.float32) for s in out_shapes]
            return outs[0] if len(outs) == 1 else tuple(outs)
        return op_def.compute(arrays, attrs)


class Framework:
    """Base class: a framework runs the model's own IR module through the
    evaluator (:mod:`repro.evaluator`) and pays, as class data from
    :mod:`repro.baselines.overhead` (µs by platform), ``op_us`` per
    framework op, ``session_us`` per input, and ``construct_us[kind]``
    per IR construct the evaluator reports: each ``Match``, and each
    ``If`` — ``a·V + 1`` times when it takes its body and ``b·V`` times
    when it does not, with ``(a, b) = loop_variable_primitives`` and
    ``V`` the arity of the function the ``If`` guards. The default
    ``(0, 0)`` is one charge per loop iteration. ``models`` is the
    availability matrix of §6.2."""

    name = "framework"
    models: Sequence[str] = ()
    op_us: Dict[str, float] = {}
    session_us: Optional[Dict[str, float]] = None
    construct_us: Dict[type, Dict[str, float]] = {}
    loop_variable_primitives: Tuple[int, int] = (0, 0)

    def __init__(self, platform: Platform, numerics: str = "full") -> None:
        self.platform = platform
        self.numerics = numerics

    def supports(self, model: str) -> bool:
        return model in self.models

    def make_context(self) -> ExecutionContext:
        return ExecutionContext(self.platform, numerics=self.numerics)

    def _executor(self, ctx: ExecutionContext) -> OpExecutor:
        pname = self.platform.name
        return OpExecutor(
            self.platform,
            ctx,
            self.op_us[pname],
            library=overhead.FRAMEWORK_LIBRARY.get((self.name, pname)),
        )

    def run(self, mod: IRModule, inputs: Sequence) -> BaselineResult:
        """Run ``mod``'s ``main`` on each input: every op call but a host
        scalar is one framework op (see :mod:`repro.evaluator`)."""
        ctx = self.make_context()
        ex = self._executor(ctx)
        pname = self.platform.name
        per_variable, at_exit = self.loop_variable_primitives
        arity = _guard_arity(mod)

        def charge(expr: Expr, taken: bool) -> None:
            us = self.construct_us.get(type(expr))
            if us is None:
                return
            variables = arity.get(expr, 0)
            count = per_variable * variables + 1 if taken else at_exit * variables
            if count:
                ctx.clock.host_advance(count * us[pname])

        outputs = []
        for x in inputs:
            if self.session_us is not None:
                ctx.clock.host_advance(self.session_us[pname])
            outputs.append(self._evaluate(mod, x, ex, charge))
        return BaselineResult(self.name, pname, ctx.elapsed_us, outputs)

    def _evaluate(self, mod: IRModule, x, ex: OpExecutor, charge) -> object:
        """One input's output."""
        return evaluate(mod, x, call=ex.call, charge=charge)


def _guard_arity(mod: IRModule) -> Dict[If, int]:
    """Each function's guard — the ``If`` its chain of lets ends in — to
    that function's arity."""
    arity = {}
    for func in mod.functions.values():
        tail = let_chain(func.body)[1]
        if isinstance(tail, If):
            arity[tail] = len(func.params)
    return arity
