"""Symbolic code generation (§4.5).

Compiles primitive (fused) functions into :class:`KernelSet`s: NumPy
executors paired with an analytical cost model, residue-specialized
symbolic variants with runtime shape dispatch and optional vendor-library
alternatives. Each kernel a build makes gets the template config its
shapes rank highest (``build_schedule``), symbolic kernels included.
"""

from repro.codegen.workload import Workload, compute_workload, run_prim_func
from repro.codegen.schedule import Schedule, default_schedule, search_space
from repro.codegen.cost_model import kernel_cost_us, library_cost_us, tuned_cost_us
from repro.codegen.kernels import KernelCache, KernelSet, ShapeFuncKernel

__all__ = [
    "Workload",
    "compute_workload",
    "run_prim_func",
    "Schedule",
    "default_schedule",
    "search_space",
    "kernel_cost_us",
    "library_cost_us",
    "tuned_cost_us",
    "KernelCache",
    "KernelSet",
    "ShapeFuncKernel",
]
