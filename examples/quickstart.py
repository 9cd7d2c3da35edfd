"""Quickstart: compile and run a dynamic-shape model with Nimble.

Builds a small network whose input length is statically unknown (an `Any`
dimension), compiles it once through the full dynamic pipeline — type
inference with Any, fusion, manifest allocation, memory planning, device
placement, VM codegen — and runs the same executable at several different
input lengths. Also demonstrates executable serialization (the paper's
"compile once, deploy anywhere" artifact).

Run:  python examples/quickstart.py
"""

import numpy as np

import repro.nimble as nimble
from repro.hardware import intel_cpu
from repro.ir import Any, Function, IRModule, TensorType, Var, const
from repro.ops import api
from repro.vm.executable import Executable
from repro.vm.interpreter import VirtualMachine


def main():
    # A two-layer MLP over a dynamic number of rows: Tensor[(Any, 32)].
    rng = np.random.RandomState(0)
    w1 = const(rng.randn(64, 32).astype(np.float32) * 0.1)
    w2 = const(rng.randn(8, 64).astype(np.float32) * 0.1)

    x = Var("x", TensorType((Any(), 32), "float32"))
    body = api.softmax(api.dense(api.relu(api.dense(x, w1)), w2))
    mod = IRModule.from_expr(Function([x], body))

    print("=== IR (before compilation) ===")
    print(mod.main)
    print()

    platform = intel_cpu()
    exe, report = nimble.build(mod, platform)
    print(f"compiled: {report.num_kernels} kernels, "
          f"{report.num_instructions} VM instructions, "
          f"{exe.bytecode_size_bytes()} B bytecode, "
          f"{exe.kernel_code_size_bytes()} B kernel code")
    if report.memory:
        print(f"memory planning: {report.memory.allocs_before} -> "
              f"{report.memory.allocs_after} storage allocations "
              f"({100 * report.memory.alloc_reduction:.0f}% fewer)")
    print()

    # One executable serves every input length — the paper's core claim.
    vm = VirtualMachine(exe)
    for length in (1, 7, 30):
        data = rng.randn(length, 32).astype(np.float32)
        out, latency_us = vm.run_with_latency(data)
        assert out.shape == (length, 8)
        print(f"len={length:3d}: output {out.shape}, "
              f"modeled latency {latency_us:8.1f} us")

    # Executables serialize to a single artifact (bytecode + constants +
    # kernels) and round-trip.
    blob = exe.save()
    reloaded = Executable.load(blob)
    out2 = VirtualMachine(reloaded).run(rng.randn(5, 32).astype(np.float32))
    print(f"\nserialized executable: {len(blob)} bytes; reloaded output "
          f"shape {out2.shape}")


if __name__ == "__main__":
    main()
