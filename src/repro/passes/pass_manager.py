"""Pass infrastructure.

A pass is a callable ``IRModule -> IRModule`` with a ``name``. The
:class:`Sequential` combinator runs a pipeline, keeps the module typed
and records per-pass timing for the compile-time report.

Types are inferred where a pass reads them. A pass declares
``reads_types`` (default ``True``: it reads ``checked_type``); no pass
has to keep types up to date. ``Sequential`` assumes its input is typed
and re-infers *before* a pass that reads types if any pass has run
since the last inference, and once at the end, so its output is fully
typed and type-checked. With ``verify_each_pass`` it also infers before
every lint. Inference it runs is billed to ``"InferType"`` in
``timings``, never to a neighbouring pass.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence

from repro.ir.module import IRModule


class Pass:
    """Base class; subclasses implement ``run(mod)``."""

    name = "Pass"
    # Does ``run`` read ``checked_type``? A pass that does not may be
    # handed a module whose types are stale or missing.
    reads_types = True

    def run(self, mod: IRModule) -> IRModule:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, mod: IRModule) -> IRModule:
        return self.run(mod)


class Sequential(Pass):
    """Run passes in order, inferring types where they are read."""

    name = "Sequential"

    def __init__(
        self,
        passes: Sequence[Callable[[IRModule], IRModule]],
        reinfer_types: bool = True,
        verify_each_pass: bool = False,
    ) -> None:
        self.passes = list(passes)
        self.reinfer_types = reinfer_types
        # Debug mode: run the IR well-formedness lint
        # (repro.analysis.lint) after every pass and raise
        # VerificationError naming the offending pass — "pass X produced
        # ill-formed IR" instead of a miscompile three passes later.
        self.verify_each_pass = verify_each_pass
        self.timings: Dict[str, float] = {}

    def run(self, mod: IRModule) -> IRModule:
        stale = False  # has a pass run since types were last inferred?
        for p in self.passes:
            name = getattr(p, "name", getattr(p, "__name__", repr(p)))
            if stale and getattr(p, "reads_types", True):
                mod, stale = self._infer(mod), False
            start = time.perf_counter()
            mod = p(mod)
            self._bill(name, start)
            stale = self.reinfer_types
            if self.verify_each_pass:
                if stale:
                    mod, stale = self._infer(mod), False
                self._verify(mod, name)
        if stale:
            mod = self._infer(mod)
        return mod

    def _infer(self, mod: IRModule) -> IRModule:
        from repro.core.typing import infer_types

        start = time.perf_counter()
        mod = infer_types(mod)
        self._bill("InferType", start)
        return mod

    def _bill(self, name: str, start: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start

    def _verify(self, mod: IRModule, pass_name: str) -> None:
        from repro.analysis.lint import lint_module
        from repro.errors import VerificationError

        errors = [
            f
            for f in lint_module(mod, typed=self.reinfer_types)
            if f.severity == "error"
        ]
        if errors:
            raise VerificationError(errors, context=f"after pass {pass_name}")
