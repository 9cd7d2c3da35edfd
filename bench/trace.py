"""Spans and counts recorded from outside the program under test.

``install`` wraps the public callables named in ``SPAN_SITES`` and
``LEAF_SITES`` (class attributes such as ``VirtualMachine.run``, module
attributes such as ``repro.nimble.specialize``) and ``uninstall`` puts
the originals back; nothing under ``src/`` is edited.

Coarse boundaries (a build, a VM run, a batch, a store call, a
simulate) record a span ``{id, parent, op, layer, name, t0, t1}``. Hot
leaves (``KernelSet.invoke_cost``, ``PoolingAllocator.alloc``, ...) are
called tens of thousands of times per pass, so they keep only a count
and a total; their time stays inside the self time of the span that
called them. Everything is kept in memory; the runner writes it out
when the workload ends.

A layer's ``self_s`` is the duration of its spans minus what their
direct child spans cover, so the self times of all layers add up to
the root span. ``busy_s`` is the duration of a layer's outermost spans
(a ``serve.server`` ``ingest`` inside a ``serve.server`` ``simulate``
is not counted twice).
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

ROOT_LAYER = "bench.pass"

# (owner, attribute, layer). An owner is "module" or "module:Class".
SPAN_SITES = (
    ("repro.nimble", "build", "nimble.build"),
    ("repro.nimble", "specialize", "nimble.specialize"),
    ("repro.nimble", "compile_prefix", "nimble.compile_prefix"),
    ("repro.vm.compiler:VMCompiler", "compile", "vm.compiler.compile"),
    ("repro.vm.schedule", "schedule_executable", "vm.schedule"),
    ("repro.analysis", "verify_executable", "analysis.verify"),
    ("repro.vm.executable:Executable", "save", "vm.executable.save"),
    ("repro.vm.executable:Executable", "load", "vm.executable.load"),
    ("repro.vm.interpreter:VirtualMachine", "run", "vm.interpreter.run"),
    ("repro.serve.server:InferenceServer", "__init__", "serve.server"),
    ("repro.serve.server:InferenceServer", "simulate", "serve.server"),
    ("repro.serve.server:InferenceServer", "ingest", "serve.server"),
    ("repro.serve.server:InferenceServer", "flush_due", "serve.server"),
    ("repro.serve.server:InferenceServer", "finish", "serve.server"),
    ("repro.serve.worker:Worker", "run_batch", "serve.worker.run_batch"),
    ("repro.store.artifacts:ArtifactStore", "put", "store.put"),
    ("repro.store.artifacts:ArtifactStore", "put_prefix", "store.put"),
    ("repro.store.artifacts:ArtifactStore", "put_profile", "store.put"),
    ("repro.store.artifacts:ArtifactStore", "get", "store.get"),
    ("repro.store.artifacts:ArtifactStore", "get_prefix", "store.get"),
    ("repro.store.artifacts:ArtifactStore", "get_profile", "store.get"),
    ("repro.store.artifacts:ArtifactStore", "save_kernel_cache", "store.kernel_cache"),
    ("repro.store.artifacts:ArtifactStore", "load_kernel_cache", "store.kernel_cache"),
    ("repro.store.gc:StoreGC", "collect", "store.gc"),
    ("repro.fleet.router:FleetRouter", "__init__", "fleet.router"),
    ("repro.fleet.router:FleetRouter", "simulate", "fleet.router"),
)

LEAF_SITES = (
    ("repro.codegen.kernels:KernelCache", "kernel", "codegen.kernel_cache"),
    ("repro.codegen.kernels:KernelSet", "invoke_cost", "codegen.invoke_cost"),
    ("repro.codegen.kernels:KernelSet", "run", "codegen.kernel_run"),
    ("repro.codegen.kernels:ShapeFuncKernel", "run", "codegen.shape_func"),
    ("repro.runtime.allocator:PoolingAllocator", "alloc", "runtime.allocator"),
    ("repro.runtime.allocator:PoolingAllocator", "free", "runtime.allocator"),
    ("repro.serve.batcher:Batcher", "add", "serve.batcher"),
    ("repro.serve.batcher:Batcher", "flush_due", "serve.batcher"),
    ("repro.serve.batcher:Batcher", "flush_all", "serve.batcher"),
)

# BuildReport.pass_timings key -> the module that pass lives in.
PASS_LAYERS = {
    "InferType": "passes.InferType",
    "FoldConstant": "passes.FoldConstant",
    "SimplifyExpressions": "passes.SimplifyExpressions",
    "ToANF": "passes.ToANF",
    "CommonSubexprElimination": "passes.CommonSubexprElimination",
    "DeadCodeElimination": "passes.DeadCodeElimination",
    "LambdaLift": "passes.LambdaLift",
    "FuseOps": "passes.FuseOps",
    "ManifestAlloc": "core.memory.ManifestAlloc",
    "MemoryPlan": "core.memory.MemoryPlan",
    "DevicePlace": "core.device.DevicePlace",
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        # leaf layer -> [calls, seconds]
        self.leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        # Counts taken at the boundary where the work happens (bytes
        # written, cache misses, findings, per-pass seconds).
        self.counts: Dict[str, float] = defaultdict(float)
        # The closed-loop op the harness is driving (None in open loops,
        # where the wrapped call names its own request).
        self.op: Optional[int] = None
        self._open: List[int] = []
        self._undo: List[tuple] = []
        self._seen_reports: Dict[int, object] = {}
        self._priced: set = set()

    # ------------------------------------------------------------------ spans
    def begin(self, layer: str, name: str, op=None) -> int:
        parent = self._open[-1] if self._open else None
        if op is None:
            op = self.spans[parent]["op"] if parent is not None else self.op
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "parent": parent, "op": op, "layer": layer,
             "name": name, "t0": time.perf_counter(), "t1": None}
        )
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["t1"] = time.perf_counter()
        popped = self._open.pop()
        assert popped == sid, "spans must close in the order they opened"

    @property
    def inside_span(self) -> bool:
        return bool(self._open)

    @contextmanager
    def span(self, layer: str, name: str, op=None):
        sid = self.begin(layer, name, op)
        try:
            yield sid
        finally:
            self.end(sid)

    # --------------------------------------------------------------- wrapping
    def _patch(self, owner: str, attr: str, make: Callable) -> None:
        target = _resolve(owner)
        static = inspect.getattr_static(target, attr)
        is_static = isinstance(static, staticmethod)
        wrapped = make(static.__func__ if is_static else static)
        setattr(target, attr, staticmethod(wrapped) if is_static else wrapped)
        self._undo.append((target, attr, static))

    def install(self) -> None:
        for owner, attr, layer in SPAN_SITES:
            name = f"{owner.rpartition(':')[2].rpartition('.')[2]}.{attr}"
            self._patch(owner, attr, lambda fn, l=layer, n=name: self._span_wrapper(fn, l, n))
        for owner, attr, layer in LEAF_SITES:
            self._patch(owner, attr, lambda fn, l=layer, a=attr: self._leaf_wrapper(fn, l, a))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _span_wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        op_of = _OP_OF.get(name)
        after = _AFTER.get(name)

        def wrapped(*args, **kwargs):
            sid = self.begin(layer, name, op_of(args) if op_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, args, result)
            return result

        return wrapped

    def _leaf_wrapper(self, fn: Callable, layer: str, attr: str) -> Callable:
        cell = self.leaves[layer]
        watch = _LEAF_WATCH.get((layer, attr))
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            done = watch(self, args) if watch else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1
                if done:
                    done()

        return wrapped

    # ---------------------------------------------------------------- results
    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """{layer: {calls, busy_s, self_s}} over every closed span."""
        child_s: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["t1"] - s["t0"]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            row = out[s["layer"]]
            duration = s["t1"] - s["t0"]
            row["calls"] += 1
            row["self_s"] += duration - child_s[s["id"]]
            if s["layer"] not in self._ancestor_layers(s):
                row["busy_s"] += duration
        return out

    def _ancestor_layers(self, span: dict):
        parent = span["parent"]
        while parent is not None:
            yield self.spans[parent]["layer"]
            parent = self.spans[parent]["parent"]

    def count_spans(self, name: str, parent_layer: Optional[str] = None) -> int:
        """Spans called *name*, optionally only those whose direct
        parent is a *parent_layer* span."""
        return sum(
            1 for s in self.spans
            if s["name"] == name and (
                parent_layer is None
                or next(self._ancestor_layers(s), None) == parent_layer
            )
        )

    def busy_inside(self, layer: str, ancestors: tuple) -> float:
        """Seconds of *layer* spans that run under a span of one of the
        *ancestors* layers."""
        return sum(
            s["t1"] - s["t0"] for s in self.spans
            if s["layer"] == layer
            and any(a in ancestors for a in self._ancestor_layers(s))
        )

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric the trace alone can give (see
        BENCHMARK.json ``per_layer``); layers that did no work read 0."""
        times = self.layer_times()
        zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        m: Dict[str, float] = {}

        def put(layer: str, *stats: str) -> None:
            row = times.get(layer, zero)
            for stat in stats:
                m[f"{layer}.{stat}"] = row[stat]

        for layer in PASS_LAYERS.values():
            m[f"{layer}.busy_s"] = self.counts[f"{layer}.busy_s"]
        for layer in ("nimble.build", "nimble.specialize", "nimble.compile_prefix"):
            put(layer, "calls", "busy_s")
        put("vm.compiler.compile", "calls", "busy_s", "self_s")
        m["vm.compiler.instructions"] = self.counts["vm.compiler.instructions"]
        m["codegen.kernels_built"] = self.counts["codegen.kernels_built"]

        lookups, seconds = self.leaves["codegen.kernel_cache"]
        m["codegen.kernel_cache.lookups"] = lookups
        m["codegen.kernel_cache.hit_share"] = (
            1.0 - self.counts["codegen.kernel_cache.misses"] / lookups if lookups else 0.0
        )
        m["codegen.kernel_cache.busy_s"] = seconds
        calls, seconds = self.leaves["codegen.invoke_cost"]
        m["codegen.invoke_cost.calls"] = calls
        m["codegen.invoke_cost.busy_s"] = seconds
        m["codegen.invoke_cost.distinct_share"] = (
            len(self._priced) / calls if calls else 0.0
        )
        for layer in ("codegen.kernel_run", "codegen.shape_func"):
            m[f"{layer}.calls"], m[f"{layer}.busy_s"] = self.leaves[layer]
        m["runtime.allocator.busy_s"] = self.leaves["runtime.allocator"][1]
        m["serve.batcher.busy_s"] = self.leaves["serve.batcher"][1]

        put("vm.schedule", "calls", "busy_s")
        put("analysis.verify", "calls", "busy_s")
        compile_s = sum(
            times.get(layer, zero)["busy_s"]
            for layer in ("nimble.build", "nimble.specialize")
        ) - self.busy_inside("nimble.build", ("nimble.specialize",))
        m["analysis.verify.share_of_compile"] = (
            self.busy_inside("analysis.verify", ("nimble.build", "nimble.specialize"))
            / compile_s if compile_s else 0.0
        )
        m["analysis.findings"] = self.counts["analysis.findings"]
        put("vm.executable.save", "calls", "busy_s")
        m["vm.executable.save.bytes"] = self.counts["vm.executable.save.bytes"]
        put("vm.executable.load", "calls", "busy_s")
        put("vm.interpreter.run", "calls", "busy_s", "self_s")

        put("serve.server", "busy_s", "self_s")
        m["serve.server.requests"] = self.count_spans("InferenceServer.ingest")
        put("serve.worker.run_batch", "calls", "busy_s", "self_s")
        put("store.put", "calls", "busy_s")
        m["store.put.bytes"] = self.counts["store.put.bytes"]
        put("store.get", "calls", "busy_s")
        gets = times.get("store.get", zero)["calls"]
        m["store.get.hit_share"] = self.counts["store.get.hits"] / gets if gets else 0.0
        put("store.kernel_cache", "busy_s")
        put("store.gc", "busy_s")
        put("fleet.router", "busy_s", "self_s")
        m["fleet.router.replica_calls"] = sum(
            self.count_spans(f"InferenceServer.{step}", "fleet.router")
            for step in ("ingest", "flush_due", "finish")
        )

        root = times.get(ROOT_LAYER, zero)
        m[f"{ROOT_LAYER}.self_s"] = root["self_s"]
        m["host.self_sum_share"] = (
            sum(row["self_s"] for row in times.values()) / root["busy_s"]
            if root["busy_s"] else 0.0
        )
        return m

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": {k: {"calls": v[0], "busy_s": v[1]} for k, v in self.leaves.items()},
            "counts": dict(self.counts),
            "layers": self.layer_times(),
        }


# ------------------------------------------------------------- boundary hooks
# Which request a span belongs to, for the calls that carry one.


def _rid_of_request(args):
    return args[1].rid


def _rid_of_batch(args):
    return args[1].requests[0].rid


_OP_OF = {
    "InferenceServer.ingest": _rid_of_request,
    "Worker.run_batch": _rid_of_batch,
}


def _after_compile(tracer: Tracer, args, result) -> None:
    """Fold a BuildReport into the per-pass counts. ``specialize`` may
    hand back the report of the ``build`` it called, so each report
    object is counted once."""
    report = result[1]
    if id(report) in tracer._seen_reports:
        return
    tracer._seen_reports[id(report)] = report
    for key, seconds in report.pass_timings.items():
        layer = PASS_LAYERS.get(key)
        if layer is not None:
            tracer.counts[f"{layer}.busy_s"] += seconds
    tracer.counts["vm.compiler.instructions"] += report.num_instructions
    tracer.counts["codegen.kernels_built"] += report.num_kernels


def _after_save(tracer: Tracer, args, result) -> None:
    tracer.counts["vm.executable.save.bytes"] += len(result)


def _after_verify(tracer: Tracer, args, result) -> None:
    tracer.counts["analysis.findings"] += len(result)


def _after_get(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.counts["store.get.hits"] += 1


def _after_put(kind: str):
    def after(tracer: Tracer, args, key) -> None:
        tracer.counts["store.put.bytes"] += args[0].blob_path(kind, key).stat().st_size

    return after


_AFTER = {
    "nimble.build": _after_compile,
    "nimble.specialize": _after_compile,
    "Executable.save": _after_save,
    "analysis.verify_executable": _after_verify,
    "ArtifactStore.get": _after_get,
    "ArtifactStore.get_prefix": _after_get,
    "ArtifactStore.get_profile": _after_get,
    "ArtifactStore.put": _after_put("exe"),
    "ArtifactStore.put_prefix": _after_put("prefix"),
    "ArtifactStore.put_profile": _after_put("profile"),
}


# Leaf watchers run outside the timed region, before the call; one may
# return a function to run once the call is over.


def _watch_cache(tracer: Tracer, args):
    cache = args[0]
    size = len(cache)

    def done() -> None:
        # KernelCache exposes its size, not its hits: a lookup that grew
        # the cache compiled a new kernel.
        if len(cache) > size:
            tracer.counts["codegen.kernel_cache.misses"] += 1

    return done


def _note_priced(tracer: Tracer, args) -> None:
    tracer._priced.add((id(args[0]), tuple(tuple(s) for s in args[1])))


_LEAF_WATCH = {
    ("codegen.kernel_cache", "kernel"): _watch_cache,
    ("codegen.invoke_cost", "invoke_cost"): _note_priced,
}
