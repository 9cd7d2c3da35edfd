"""Closures: LambdaLift + the AllocClosure/InvokeClosure ISA path."""

import numpy as np
import pytest

import repro.nimble as nimble
from repro.core.typing import infer_types
from repro.evaluator import evaluate
from repro.hardware import intel_cpu
from repro.ir import (
    Call,
    Function,
    FuncType,
    IRModule,
    ScopeBuilder,
    TensorType,
    Var,
)
from repro.ops import api
from repro.passes import LambdaLift, ToANF
from repro.vm.interpreter import VirtualMachine


def _adder_module():
    """main(x, y) = (fn(z){ z + x })(y)  — the closure captures x."""
    ty = TensorType((4,), "float32")
    x = Var("x", ty)
    y = Var("y", ty)
    z = Var("z", ty)
    inner = Function([z], api.add(z, x), ty)
    sb = ScopeBuilder()
    clo = sb.let("clo", inner)
    out = sb.let("out", Call(clo, [y]))
    return IRModule.from_expr(Function([x, y], sb.get(out)))


class TestLambdaLift:
    def test_lifts_literal_to_global(self):
        mod = infer_types(_adder_module())
        mod = ToANF().run(mod)
        mod = infer_types(mod)
        lifted = LambdaLift().run(mod)
        names = [gv.name_hint for gv in lifted.functions]
        assert any(n.startswith("lifted") for n in names)

    def test_lifted_function_takes_captures_as_params(self):
        mod = infer_types(_adder_module())
        mod = infer_types(ToANF().run(mod))
        lifted = LambdaLift().run(mod)
        inner = next(
            f for gv, f in lifted.functions.items() if gv.name_hint.startswith("lifted")
        )
        assert len(inner.params) == 2  # z + captured x
        assert all(p.type_annotation is not None for p in inner.params)

    def test_closure_executes_through_vm(self):
        exe, _ = nimble.build(_adder_module(), intel_cpu())
        vm = VirtualMachine(exe)
        x = np.float32([1, 2, 3, 4])
        y = np.float32([10, 20, 30, 40])
        out = vm.run(x, y)
        assert out.numpy().tolist() == [11, 22, 33, 44]
        assert vm.profile.instruction_counts["ALLOC_CLOSURE"] == 1
        assert vm.profile.instruction_counts["INVOKE_CLOSURE"] == 1

    def test_closure_evaluates_uncompiled(self):
        """The evaluator, the oracle for the lifted and compiled forms,
        applies the literal with its captured ``x``."""
        out = evaluate(_adder_module(), np.float32([1, 2, 3, 4]), np.float32([10, 20, 30, 40]))
        assert out.tolist() == [11, 22, 33, 44]

    def test_closure_called_twice(self):
        ty = TensorType((2,), "float32")
        x = Var("x", ty)
        y = Var("y", ty)
        z = Var("z", ty)
        inner = Function([z], api.multiply(z, x), ty)
        sb = ScopeBuilder()
        clo = sb.let("clo", inner)
        a = sb.let("a", Call(clo, [y]))
        b = sb.let("b", Call(clo, [a]))
        mod = IRModule.from_expr(Function([x, y], sb.get(b)))
        exe, _ = nimble.build(mod, intel_cpu())
        out = VirtualMachine(exe).run(np.float32([2, 3]), np.float32([1, 1]))
        assert out.numpy().tolist() == [4, 9]  # y * x * x

    def test_capture_free_closure(self):
        ty = TensorType((2,), "float32")
        y = Var("y", ty)
        z = Var("z", ty)
        inner = Function([z], api.tanh(z), ty)
        sb = ScopeBuilder()
        clo = sb.let("clo", inner)
        out = sb.let("out", Call(clo, [y]))
        mod = IRModule.from_expr(Function([y], sb.get(out)))
        exe, _ = nimble.build(mod, intel_cpu())
        out_v = VirtualMachine(exe).run(np.float32([0.5, -0.5]))
        assert np.allclose(out_v.numpy(), np.tanh([0.5, -0.5]), atol=1e-6)

    def test_capture_escapes_memory_planning(self):
        """A tensor captured by a closure must never be killed/reused even
        if the closure is invoked later."""
        ty = TensorType((2,), "float32")
        x = Var("x", ty)
        z = Var("z", ty)
        sb = ScopeBuilder()
        cap = sb.let("cap", api.sigmoid(x))  # tensor captured by the closure
        inner = Function([z], api.add(z, cap), ty)
        clo = sb.let("clo", inner)
        spacer = sb.let("spacer", api.tanh(x))  # allocates after cap dies?
        out = sb.let("out", Call(clo, [spacer]))
        mod = IRModule.from_expr(Function([x], sb.get(out)))
        exe, _ = nimble.build(mod, intel_cpu())
        data = np.float32([0.1, 0.2])
        out_v = VirtualMachine(exe).run(data)
        expect = np.tanh(data) + 1 / (1 + np.exp(-data))
        assert np.allclose(out_v.numpy(), expect, atol=1e-5)
