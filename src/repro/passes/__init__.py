"""Compiler passes: generic rewrites + the dynamic-model pipeline stages."""

from repro.passes.pass_manager import Pass, Sequential, function_pass
from repro.passes.to_anf import ToANF, to_anf
from repro.passes.fold_constant import FoldConstant
from repro.passes.dead_code import DeadCodeElimination
from repro.passes.cse import CommonSubexprElimination
from repro.passes.combine_parallel_dense import CombineParallelDense
from repro.passes.simplify import SimplifyExpressions
from repro.passes.fuse_ops import FuseOps
from repro.passes.lambda_lift import LambdaLift
from repro.passes.specialize import (
    BatchSpecializeError,
    SpecializeBatch,
    SpecializeShapes,
    bound_entry_shapes,
)

__all__ = [
    "BatchSpecializeError",
    "SpecializeBatch",
    "bound_entry_shapes",
    "Pass",
    "Sequential",
    "function_pass",
    "ToANF",
    "to_anf",
    "FoldConstant",
    "DeadCodeElimination",
    "CommonSubexprElimination",
    "CombineParallelDense",
    "SimplifyExpressions",
    "FuseOps",
    "LambdaLift",
    "SpecializeShapes",
]
