"""The evaluation experiments (§6) and the serving-era studies: one
function per table / figure / study.

Every function returns a plain dict of measured numbers (virtual
microseconds) keyed the way the paper's tables are laid out, so
benchmarks and EXPERIMENTS.md generation share one source of truth;
``benchmarks/BENCH_modeled.json`` holds every one of them, and CI fails
when one moves. All experiments run in ``lite`` numerics (identical
latency model, no heavyweight NumPy) unless a study says why not.

A serving study is a :class:`~repro.harness.scenario.Study`: its model
and traffic, its sizes where they are used (with the reason for a value
that needs one), its named variants and the store each shares, the
measures of a row and its summary, run by the one driver
(:func:`~repro.harness.scenario.run_study`). The only parameters a study
takes are the ones a caller passes."""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.nimble as nimble
from repro.baselines import (
    EagerFramework,
    FoldFramework,
    GraphFramework,
    HybridFramework,
)
from repro.codegen.cost_model import tuned_cost_us
from repro.codegen.kernels import KernelCache, KernelSet, build_schedule
from repro.codegen.schedule import TUNE_AT, best_schedule
from repro.codegen.workload import compute_workload
from repro.data import embedding_table, mrpc_like_lengths, sst_like_trees
from repro.fleet import FleetConfig, TenantSpec
from repro.hardware import Platform, platform_by_name
from repro.harness.scenario import (
    MEASURES,
    Run,
    Study,
    Variant,
    first_static_finish_us,
    outputs_equal,
    run_study,
    same_simulation,
    speedup,
)
from repro.ir import Any, Constant, Function, IRModule, TensorType, Var
from repro.models import build_gram_module
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt
from repro.models.vision import (
    build_mobilenet_like,
    build_resnet_like,
    build_squeezenet_like,
    build_vgg_like,
)
from repro.ops import api
from repro.runtime.context import ExecutionContext
from repro.serve import (
    ServeConfig,
    bert_traffic,
    long_tailed_traffic,
    lstm_traffic,
    multi_tenant_traffic,
)
from repro.tensor.ndarray import array as make_array
from repro.vm.compiler import CompilerOptions
from repro.vm.interpreter import VirtualMachine
from repro.vm.tape import LaunchTape

DEFAULT_PLATFORMS = ("intel", "nvidia", "arm")
# The BERT-class module both tier comparisons run (specialization_study
# and batch_specialization_study, part 1).
SMALL_BERT = BertConfig(hidden=64, num_layers=2, num_heads=2, ffn=128)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _activations(rng: np.random.RandomState, rows: int, cols: int) -> np.ndarray:
    return (rng.randn(rows, cols) * 0.1).astype(np.float32)


def _embedded_sentences(n: int, dim: int) -> List[np.ndarray]:
    """MRPC-like variable-length sentences as embedding matrices."""
    rng = np.random.RandomState(7)
    return [_activations(rng, length, dim) for length in mrpc_like_lengths(n, 0)]


def _lstm_module(input_size: int, hidden_size: int, seed: int = 0) -> IRModule:
    """The one-layer LSTM every serving study serves, at its width."""
    return build_lstm_module(
        LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    )


def _bert_module(config: BertConfig, seed: int = 0) -> IRModule:
    return build_bert_module(BertWeights.create(config, seed=seed))


def _vm(exe, platform: Platform, numerics: str = "lite") -> VirtualMachine:
    """A VM over a fresh context (``vm.ctx`` holds its clock and allocator)."""
    return VirtualMachine(exe, ExecutionContext(platform, numerics=numerics))


def _nimble_run_all(mod: IRModule, platform: Platform, inputs: Sequence):
    """Compile once, run every input; returns (total_us, vm)."""
    exe, _ = nimble.build(mod, platform)
    vm = _vm(exe, platform)
    start = vm.ctx.elapsed_us
    for x in inputs:
        vm.run(x)
    return vm.ctx.elapsed_us - start, vm


def _per_token_table(
    platforms: Sequence[str],
    mod: IRModule,
    inputs: Sequence,
    tokens: int,
    model: str,
    frameworks: Sequence[type],
) -> Dict[str, Dict[str, Optional[float]]]:
    """The platform loop under Tables 1–3: ``{platform: {system:
    µs/token}}`` with Nimble compiled once per platform and run over
    *inputs*, beside each baseline framework running the same *mod* on
    the same *inputs*; ``None`` where the framework does not support
    *model* there."""
    table: Dict[str, Dict[str, Optional[float]]] = {}
    for pname in platforms:
        platform = platform_by_name(pname)
        total_us, _ = _nimble_run_all(mod, platform, inputs)
        row: Dict[str, Optional[float]] = {"nimble": total_us / tokens}
        for make in frameworks:
            framework = make(platform, "lite")
            if not framework.supports(model):
                row[framework.name] = None
                continue
            row[framework.name] = framework.run(mod, inputs).total_us / tokens
        table[pname] = row
    return table


# ---------------------------------------------------------------------------
# Tables 1–3: µs/token against the baseline frameworks
# ---------------------------------------------------------------------------


def table1_lstm(
    num_sentences: int = 10,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    layer_counts: Sequence[int] = (1, 2),
    input_size: int = 300,
    hidden_size: int = 512,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """µs/token for Nimble / PyTorch / MXNet / TensorFlow, per platform.

    Returns ``{num_layers: {platform: {system: us_per_token}}}``.
    """
    sentences = _embedded_sentences(num_sentences, input_size)
    tokens = sum(s.shape[0] for s in sentences)
    results = {}
    for layers in layer_counts:
        weights = LSTMWeights.create(input_size, hidden_size, layers, seed=0)
        results[layers] = _per_token_table(
            platforms,
            build_lstm_module(weights),
            inputs=sentences,
            tokens=tokens,
            model="lstm",
            frameworks=(EagerFramework, HybridFramework, GraphFramework),
        )
    return results


def table2_tree_lstm(
    num_trees: int = 10,
    platforms: Sequence[str] = ("intel", "arm"),
    input_size: int = 300,
    hidden_size: int = 150,
) -> Dict[str, Dict[str, Optional[float]]]:
    """µs/token (token = leaf) for Nimble / PyTorch / TF Fold; Fold reads
    ``None`` where it was never built (ARM)."""
    trees = sst_like_trees(num_trees, seed=0)
    embeddings = embedding_table(dim=input_size, seed=0)
    weights = TreeLSTMWeights.create(input_size, hidden_size, seed=0)
    return _per_token_table(
        platforms,
        build_tree_lstm_module(weights),
        inputs=[tree_to_adt(t, embeddings) for t in trees],
        tokens=sum(t.num_leaves() for t in trees),
        model="tree_lstm",
        frameworks=(EagerFramework, FoldFramework),
    )


def table3_bert(num_sentences: int = 8) -> Dict[str, Dict[str, float]]:
    """µs/token for Nimble / PyTorch / MXNet / TensorFlow on BERT-base."""
    config = BertConfig()
    weights = BertWeights.create(config, seed=0)
    sentences = _embedded_sentences(num_sentences, config.hidden)
    return _per_token_table(
        DEFAULT_PLATFORMS,
        build_bert_module(weights),
        inputs=sentences,
        tokens=sum(s.shape[0] for s in sentences),
        model="bert",
        frameworks=(EagerFramework, HybridFramework, GraphFramework),
    )


# ---------------------------------------------------------------------------
# Table 4: VM overhead vs static TVM (BERT, seq 128)
# ---------------------------------------------------------------------------


def table4_overhead(
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    config: BertConfig = BertConfig(),
    seq_len: int = 128,
) -> Dict[str, Dict[str, float]]:
    """{platform: {tvm_ms, nimble_ms, kernel_ms, others_ms, and the parts
    of others_ms}}. The static "TVM" side is the executable specialized
    to ``seq_len``, replayed as a launch tape: the same kernels with no
    dispatch, shape function or allocation around them.

    Each part of ``others_ms`` sits beside the count that produced it:
    ``dispatch_ms`` and ``instructions``; ``shape_func_ms`` and
    ``shape_funcs`` (shape functions and the host kernels that turn a
    shape into a byte size); ``alloc_ms`` and ``alloc_storages``;
    ``copy_ms`` and ``copies``; ``sync_ms``, the host waiting for a
    device. On a CPU the kernels and the parts add up to ``nimble_ms``.
    On a GPU they are host charges that overlap the kernels, so they do
    not add up to ``others_ms``, which is elapsed time minus device busy
    time."""
    weights = BertWeights.create(config, seed=0)
    dyn_mod = build_bert_module(weights)
    x = _activations(np.random.RandomState(0), seq_len, config.hidden)
    results: Dict[str, Dict[str, float]] = {}
    for pname in platforms:
        platform = platform_by_name(pname)
        static_exe, _ = nimble.specialize(dyn_mod, platform, shapes=[(seq_len, config.hidden)])
        tape = LaunchTape(static_exe, x, ctx=ExecutionContext(platform, numerics="lite"))
        _, tvm_us = tape.replay()
        # Nimble.
        total_us, vm = _nimble_run_all(dyn_mod, platform, [x])
        profile = vm.profile
        kernel_us = profile.kernel_time_us
        counts = profile.instruction_counts
        results[pname] = {
            "tvm_ms": tvm_us / 1e3,
            "nimble_ms": total_us / 1e3,
            "kernel_ms": kernel_us / 1e3,
            "others_ms": max(0.0, total_us - kernel_us) / 1e3,
            "dispatch_ms": profile.dispatch_time_us / 1e3,
            "instructions": sum(counts.values()),
            "shape_func_ms": (profile.shape_func_time_us + profile.host_scalar_time_us) / 1e3,
            "shape_funcs": counts["INVOKE_PACKED"] - profile.kernel_invocations,
            "alloc_ms": profile.alloc_time_us / 1e3,
            "alloc_storages": counts["ALLOC_STORAGE"],
            "copy_ms": profile.copy_time_us / 1e3,
            "copies": counts["DEVICE_COPY"],
            "sync_ms": profile.host_sync_wait_us / 1e3,
        }
    return results


# ---------------------------------------------------------------------------
# Figure 3: symbolic codegen dispatch ablation (3 BERT denses, ARM)
# ---------------------------------------------------------------------------

# The three dense shapes in BERT-base: QKV/projection, FFN-in, FFN-out.
FIG3_DENSES = (
    ("dense1", 768, 768),
    ("dense2", 3072, 768),
    ("dense3", 768, 3072),
)


def _dense_weight(n_out: int, k_in: int) -> np.ndarray:
    return (np.random.RandomState(0).randn(n_out, k_in) * 0.02).astype(np.float32)


def _dense_primitive(weight: np.ndarray, rows: Optional[int] = None) -> Function:
    """The primitive ``dense(x, weight)``; ``rows=None`` leaves the row
    dimension ``Any`` (symbolic codegen)."""
    n_out, k_in = weight.shape
    x = Var("x", TensorType((Any() if rows is None else rows, k_in), "float32"))
    return Function(
        [x], api.dense(x, Constant(make_array(weight))),
        TensorType((Any() if rows is None else rows, n_out), "float32"),
        {"primitive": True},
    )


def figure3_dispatch(
    rows: Sequence[int] = tuple(range(1, 129)),
) -> Dict[str, Dict[str, float]]:
    """Relative latency (static = 100%) of symbolic kernels on ARM by
    number of dispatch kernels, 8 down to 1 ("no dispatch")."""
    platform = platform_by_name("arm")
    spec = platform.compute_spec
    results: Dict[str, Dict[str, float]] = {}
    for name, n_out, k_in in FIG3_DENSES:
        w = _dense_weight(n_out, k_in)
        # The schedule a build gives this dense (`KernelCache.kernel`),
        # with its dispatch tile of 8.
        sym_prim = _dense_primitive(w)
        schedule = build_schedule(sym_prim, {})

        def total_us(prim: Function, **codegen) -> float:
            kernel = KernelSet(
                prim, platform, spec, schedule=schedule, allow_library=False, **codegen
            )
            return sum(kernel.invoke_cost([(m, k_in)]).duration_us for m in rows)

        static_total = total_us(_dense_primitive(w, rows[-1]))
        entry = {"static": 100.0}
        for level in (8, 4, 2, 1):
            label = "no dispatch" if level == 1 else f"dispatch/{level}"
            entry[label] = 100.0 * total_us(sym_prim, num_dispatch_kernels=level) / static_total
        results[name] = entry
    return results


# ---------------------------------------------------------------------------
# §6.3 memory planning study
# ---------------------------------------------------------------------------


def memory_planning_study(
    config: BertConfig = BertConfig(), seq_len: int = 128
) -> Dict[str, float]:
    """Memory planning effect on BERT (Intel): allocation counts and
    latency with and without the §4.3 pass."""
    platform = platform_by_name("intel")
    mod = _bert_module(config)
    x = _activations(np.random.RandomState(0), seq_len, config.hidden)

    def allocator_stats(plan: bool):
        exe, _ = nimble.build(mod, platform, plan_memory=plan)
        vm = _vm(exe, platform)
        vm.run(x)
        return vm.ctx.allocator.stats

    stats_off, stats_on = allocator_stats(False), allocator_stats(True)
    return {
        "allocs_unplanned": float(stats_off.total_allocs),
        "allocs_planned": float(stats_on.total_allocs),
        "alloc_reduction": 1.0 - stats_on.total_allocs / max(1, stats_off.total_allocs),
        "alloc_latency_unplanned_ms": stats_off.alloc_time_us / 1e3,
        "alloc_latency_planned_ms": stats_on.alloc_time_us / 1e3,
        "peak_bytes_unplanned": float(stats_off.peak_bytes),
        "peak_bytes_planned": float(stats_on.peak_bytes),
    }


def memory_footprint_vs_static() -> Dict[str, Dict[str, float]]:
    """Nimble peak memory vs the static plan on the four CV models (the
    paper reports ≤8% extra footprint). The static footprint is the one
    the memory planner gives the build: its planned static bytes."""
    platform = platform_by_name("intel")
    builders = {
        "resnet": build_resnet_like,
        "mobilenet": build_mobilenet_like,
        "vgg": build_vgg_like,
        "squeezenet": build_squeezenet_like,
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, builder in builders.items():
        exe, report = nimble.build(builder(), platform)
        static_bytes = report.memory.static_bytes_after
        vm = _vm(exe, platform)
        vm.run(np.zeros((1, 3, 64, 64), np.float32))
        nimble_bytes = vm.ctx.allocator.stats.peak_bytes
        out[name] = {
            "static_bytes": float(static_bytes),
            "nimble_bytes": float(nimble_bytes),
            "overhead_pct": 100.0 * (nimble_bytes / max(1, static_bytes) - 1.0),
        }
    return out


# ---------------------------------------------------------------------------
# Serving study: batched shape-bucketed serving vs serial dispatch
# ---------------------------------------------------------------------------


def _serving_summary(runs: Dict[str, Run]) -> Dict[str, object]:
    batched, serial = runs["batched"], runs["serial"]
    return {
        "throughput_speedup": batched.report.throughput_rps
        / max(1e-12, serial.report.throughput_rps),
        "deterministic": batched.deterministic
        and same_simulation(batched.report, runs["repeat"].report),
    }


def serving_study(
    model: str = "lstm",
    num_requests: int = 32,
    platform_name: str = "nvidia",
    num_workers: int = 4,
    max_batch_size: int = 8,
    max_delay_us: float = 4000.0,
    mean_interarrival_us: float = 50.0,
    bucket_granularity: int = 8,
    bert_config: Optional[BertConfig] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Throughput/latency of the batched server vs one-at-a-time dispatch
    on the same MRPC-like traffic trace (paper-sized LSTM, or BERT).

    Returns ``{"serial": {...}, "batched": {...}, "summary": {...}}`` where
    the summary carries the throughput speedup and a determinism flag (the
    batched server must replay itself, and a second one built from
    scratch must reproduce it).
    """
    if model == "lstm":
        module = partial(_lstm_module, 300, 512, seed)
        trace = partial(lstm_traffic, num_requests, input_size=300)
    elif model == "bert":
        config = bert_config or BertConfig()
        module = partial(_bert_module, config, seed)
        trace = partial(bert_traffic, num_requests, hidden=config.hidden)
    else:
        raise ValueError(f"unknown serving model {model!r}")
    study = Study(
        module,
        platform_name,
        partial(trace, mean_interarrival_us=mean_interarrival_us),
        ServeConfig(
            max_batch_size=max_batch_size,
            max_delay_us=max_delay_us,
            num_workers=num_workers,
            bucket_granularity=bucket_granularity,
        ),
        variants=(
            # Serial and batched share one kernel cache (identical
            # module, compile once); the repeat builds from scratch so
            # the determinism check covers the whole compile-and-serve
            # path. Serial is `ServeConfig.serial()`'s three knobs.
            Variant(
                "serial",
                dict(max_batch_size=1, max_delay_us=0.0, num_workers=1),
                kernel_cache="shared",
            ),
            Variant("batched", kernel_cache="shared"),
            Variant("repeat", reported=False),
        ),
        row=(
            "throughput_rps", "p50_us", "p99_us", "mean_latency_us",
            "mean_batch_size", "num_batches", "span_us",
        ),
        summary=_serving_summary,
    )
    return run_study(study, seed=seed)


# ---------------------------------------------------------------------------
# Tiered specialization study: static recompilation of hot shapes
# ---------------------------------------------------------------------------

# The server every tiering study below starts from: batches of four on
# two workers, tiered specialization on.
TIERED = ServeConfig(max_batch_size=4, num_workers=2, specialize=True)
# ... and the one the three store studies (restart, predictive, fleet)
# start from. An explicit modeled compile cost, sized so a *cold* run
# reaches its specialized steady state within each traffic phase — the
# studies then measure a warm start against a non-degenerate baseline
# (the calibrated default outlasts a whole phase at these trace lengths,
# leaving cold at 0 hits). The restore charge is the calibration's, so
# warm/cold ratios stay honest model outputs.
STORE_TIERED = replace(
    TIERED, max_delay_us=1500.0, specialize_compile_lanes=2, specialize_compile_us=8000.0
)

# Part 2 of specialization_study: the LSTM MRPC mix served with tiering on.
TIERED_SERVING = Study(
    partial(_lstm_module, 64, 64),
    "intel",
    partial(lstm_traffic, 256, input_size=64, mean_interarrival_us=800.0),
    replace(TIERED, max_delay_us=2000.0, specialize_threshold=3),
    variants=(Variant("serving"),),
    row=(
        "specialized_hits", "specialized_hit_rate", "num_specialized_executables",
        "compile_us", "p50_us", "p99_us", "p50_us_dynamic", "p50_us_specialized",
        "deterministic",
    ),
)


def specialization_study() -> Dict[str, Dict[str, float]]:
    """Two measurements of tiered compilation (DyCL-style static recovery):

    1. **Executable tier comparison** — one BERT-class module compiled
       dynamically and specialized to the hot shape, run on the same
       input: end-to-end latency, shape-function time, allocations, and a
       bit-identity check (the tiers must differ only in overhead).
    2. **Serving with tiering** — the LSTM MRPC mix served with
       ``specialize=True`` (``TIERED_SERVING``): specialized hit rate,
       per-tier latency, and a replay-determinism flag.
    """
    platform = platform_by_name("intel")

    # --- 1. dynamic vs specialized executable on the hot shape -------------
    hot_shape = (24, SMALL_BERT.hidden)
    mod = _bert_module(SMALL_BERT)
    cache = KernelCache()
    dyn_exe, _ = nimble.build(mod, platform, kernel_cache=cache)
    spec_exe, _ = nimble.specialize(mod, platform, shapes=[hot_shape], kernel_cache=cache)
    x = _activations(np.random.RandomState(0), *hot_shape)

    def run_exe(exe):
        # Priced on the VM's second run, its profile and allocator stats
        # reset after the first: a served variant pays its pool's cold
        # misses once, so a first run's would decide the comparison.
        vm = _vm(exe, platform, "full")
        vm.run(x)
        vm.profile.reset()
        vm.ctx.allocator.stats.reset()
        out, latency = vm.run_with_latency(x)
        return out, latency, vm.profile, vm.ctx.allocator.stats

    out_d, lat_d, prof_d, stats_d = run_exe(dyn_exe)
    out_s, lat_s, prof_s, stats_s = run_exe(spec_exe)
    tiers = {
        "dynamic_us": lat_d,
        "specialized_us": lat_s,
        "speedup": lat_d / max(1e-9, lat_s),
        "shape_func_us_dynamic": prof_d.shape_func_time_us,
        "shape_func_us_specialized": prof_s.shape_func_time_us,
        "dispatch_us_dynamic": prof_d.dispatch_time_us,
        "dispatch_us_specialized": prof_s.dispatch_time_us,
        "allocs_dynamic": float(stats_d.total_allocs),
        "allocs_specialized": float(stats_s.total_allocs),
        "bit_identical": float(np.array_equal(out_d.numpy(), out_s.numpy())),
    }
    return {"tiers": tiers, **run_study(TIERED_SERVING)}


# ---------------------------------------------------------------------------
# Compile-pool study: lanes × cache size on a long-tailed shape mix
# ---------------------------------------------------------------------------


def compile_pool_study(
    num_requests: int = 192,
    lane_counts: Sequence[int] = (1, 2, 4),
    cache_sizes: Sequence[int] = (2, 4),
) -> Dict[str, Dict[str, float]]:
    """Sweep the specialization compile pool over lanes × cache size on a
    phased long-tailed shape mix (each phase's hot shape goes cold when
    the next begins, so the executable cache must evict to keep up).

    Per configuration: specialized hit rate, compile-queue wait
    mean/p99, eviction count, per-lane utilization, and a
    replay-determinism flag. The summary reports how much a wider pool
    cuts queue wait on identical traces: the fewest-lane pool vs the
    widest, both at the largest cache.
    """
    name = "lanes={},cache={}".format
    narrow = name(min(lane_counts), max(cache_sizes))
    wide = name(max(lane_counts), max(cache_sizes))
    study = Study(
        partial(_lstm_module, 16, 16),
        "intel",
        partial(long_tailed_traffic, num_requests, input_size=16, mean_interarrival_us=300.0),
        replace(
            TIERED,
            max_delay_us=1500.0,
            specialize_threshold=3,
            # 8000 µs per variant (the suffix share), +12000 µs once for
            # the prefix.
            specialize_compile_us=20_000.0,
            specialize_decay_half_life_us=6_000.0,
        ),
        # One kernel cache across the sweep: every server compiles the
        # same module, and the modeled compile cost is charged per
        # trigger anyway.
        variants=tuple(
            Variant(
                name(lanes, cache),
                dict(specialize_max_executables=cache, specialize_compile_lanes=lanes),
                kernel_cache="sweep",
            )
            for cache in cache_sizes
            for lanes in lane_counts
        ),
        row=(
            "specialized_hit_rate", "specialized_hits", "compiles", "evictions",
            "compile_us", "mean_queue_wait_us", "p99_queue_wait_us", "p50_us",
            "p99_us", "deterministic", "lane_util",
        ),
        summary=lambda runs: {
            "min_lanes": min(lane_counts),
            "max_lanes": max(lane_counts),
            "queue_wait_min_lanes_us": runs[narrow].report.mean_compile_queue_wait_us,
            "queue_wait_max_lanes_us": runs[wide].report.mean_compile_queue_wait_us,
            "deterministic": all(run.deterministic for run in runs.values()),
        },
    )
    return run_study(study)


# ---------------------------------------------------------------------------
# Batch-granularity specialization study
# ---------------------------------------------------------------------------

# Part 3 of batch_specialization_study: a hot-heavy LSTM mix served with
# the batched tier.
BATCHED_SERVING = Study(
    partial(_lstm_module, 8, 16),
    "intel",
    partial(
        long_tailed_traffic, 72, input_size=8, mean_interarrival_us=150.0,
        hot_lengths=(7,), hot_fraction=0.8, tail_min=3, tail_max=16,
    ),
    replace(
        TIERED,
        max_delay_us=2000.0,
        specialize_threshold=2,
        specialize_compile_us=400.0,
        specialize_batch=True,
    ),
    variants=(Variant("serving"),),
    row=(
        "batched_hits", "batched_hit_rate", "specialized_hit_rate", "batched_batches",
        "batched_shape_func_us", "p50_us_dynamic", "p50_us_batched", "deterministic",
    ),
)


def batch_specialization_study() -> Dict[str, Dict[str, float]]:
    """Three measurements of batch-granularity specialization:

    1. **Batched vs member-pipelined executables** — the hot BERT bucket
       run on the modeled GPU platform: 8 member-wise calls pipelined
       with one final sync (the member tier's worker loop) vs ONE call
       on the batch-specialized executable. The batched tier fuses each
       GEMM site into a single batched launch, so its throughput gain
       comes from launch-overhead amortization and GEMM saturation at
       8× the rows.
    2. **Bit identity** — dynamic, member-specialized, and
       batch-specialized outputs compared bitwise per member (full
       numerics, host platform).
    3. **Serving with the batched tier** (``BATCHED_SERVING``) — a
       hot-heavy LSTM mix served with ``specialize_batch=True``: full hot
       buckets must route to the batched tier (one VM call per bucket,
       zero shape functions) and replays must stay bit-identical.
    """
    gpu, host = platform_by_name("nvidia"), platform_by_name("intel")
    # One stream of random inputs feeds parts 1 and 2, in that order.
    rng = np.random.RandomState(0)

    def member_and_batched(mod, platform, shape, batch, cache):
        """*mod* specialized to *shape* member-wise and at batch
        granularity, both from one prefix."""
        prefix = nimble.build_prefix(mod, platform)
        member, _ = nimble.specialize(
            mod, platform, shapes=[shape], kernel_cache=cache, prefix=prefix
        )
        batched, _ = nimble.specialize(
            mod, platform, shapes=[shape], kernel_cache=cache, batch=batch,
            prefix=prefix,
        )
        return member, batched

    # --- 1. one batched call vs a member-pipelined bucket ------------------
    hot_shape = (24, SMALL_BERT.hidden)
    member_exe, batched_exe = member_and_batched(
        _bert_module(SMALL_BERT), gpu, hot_shape, 8, KernelCache()
    )
    xs = [_activations(rng, *hot_shape) for _ in range(8)]

    def pipelined(exe, inputs):
        """(µs, profile) of *inputs* run back to back, one sync at the end."""
        vm = _vm(exe, gpu)
        start = vm.ctx.clock.elapsed_us
        for x in inputs:
            vm.run(x, sync=False)
        vm.ctx.clock.sync_all()
        return vm.ctx.clock.elapsed_us - start, vm.profile

    member_us, member_profile = pipelined(member_exe, xs)
    batched_us, batched_profile = pipelined(batched_exe, [np.concatenate(xs, axis=0)])
    tiers = {
        "member_pipelined_us": member_us,
        "batched_us": batched_us,
        "throughput_gain": member_us / max(1e-9, batched_us),
        # One batched GEMM per member-wise GEMM site: the batched run
        # launches exactly as many GEMM kernels as ONE member run, while
        # the pipelined bucket pays 8 times that.
        "gemm_launches_member_total": float(member_profile.gemm_invocations()),
        "gemm_launches_batched": float(batched_profile.gemm_invocations()),
        "batched_runs": float(batched_profile.runs),
        "member_runs": float(member_profile.runs),
    }

    # --- 2. bit identity across the three tiers ----------------------------
    small = BertConfig(hidden=32, num_layers=1, num_heads=2, ffn=64)
    small_mod, small_cache = _bert_module(small), KernelCache()
    dyn_exe, _ = nimble.build(small_mod, host, kernel_cache=small_cache)
    mem_exe, bat_exe = member_and_batched(
        small_mod, host, (11, small.hidden), 3, small_cache
    )
    members = [_activations(rng, 11, small.hidden) for _ in range(3)]

    def run_full(exe, x):
        return _vm(exe, host, "full").run(x).numpy()

    outs_dyn = [run_full(dyn_exe, x) for x in members]
    outs_mem = [run_full(mem_exe, x) for x in members]
    outs_bat = np.split(run_full(bat_exe, np.concatenate(members, axis=0)), 3, axis=0)
    tiers["bit_identical"] = float(
        all(
            np.array_equal(d, m) and np.array_equal(d, b)
            for d, m, b in zip(outs_dyn, outs_mem, outs_bat)
        )
    )
    return {"tiers": tiers, **run_study(BATCHED_SERVING)}


# ---------------------------------------------------------------------------
# Launch-tape serving study: static hits without the VM around them
# ---------------------------------------------------------------------------

# Small BERT on the CPU, two hot lengths, the batched tier on: each exact
# and batched variant's first hit on a worker runs on the VM and records
# the variant's launch tape, and every later hit there replays it.
TAPE_SERVING = Study(
    partial(_bert_module, SMALL_BERT),
    "intel",
    partial(
        long_tailed_traffic, 96, input_size=SMALL_BERT.hidden, mean_interarrival_us=300.0,
        hot_lengths=(12, 20), hot_fraction=0.85, tail_min=4, tail_max=32,
    ),
    replace(
        TIERED,
        max_delay_us=1500.0,
        specialize_threshold=3,
        specialize_compile_us=2000.0,
        specialize_batch=True,
    ),
    variants=(Variant("serving"),),
    row=(
        "specialized_hits", "batched_hits", "first_hit_service_us",
        "replay_service_p50_us", "deterministic",
    ),
)


def tape_serving_study() -> Dict[str, Dict[str, float]]:
    """Static-tier hits replaying their launch tape (``TAPE_SERVING``):
    per exact and batched variant of a small BERT served on `intel_cpu`,
    the service µs of its first hit, which the VM serves and which
    records the tape, and the median service µs of its replays — the
    before and after of one run."""
    return run_study(TAPE_SERVING)


# ---------------------------------------------------------------------------
# Restart studies: cold vs warm server start over one artifact store
# ---------------------------------------------------------------------------

# Both restart studies run two brand-new servers, one after the other,
# over one store: the warm one starts over whatever the cold one left.
_COLD_WARM = (Variant("cold", store="store"), Variant("warm", store="store"))


def _cold_warm_summary(runs: Dict[str, Run]) -> Dict[str, object]:
    """What both restart studies compare: how much earlier the warm
    run's first static-tier response landed, bitwise outputs across the
    two, and both replays."""
    cold, warm = runs["cold"], runs["warm"]
    return {
        "first_hit_speedup": speedup(
            first_static_finish_us(cold.report), first_static_finish_us(warm.report)
        ),
        "bit_identical": outputs_equal(cold.report, warm.report),
        "deterministic": cold.deterministic and warm.deterministic,
    }


RESTART = Study(
    partial(_lstm_module, 16, 16),
    "intel",
    partial(
        long_tailed_traffic, 220, input_size=16, mean_interarrival_us=400.0,
        hot_lengths=(7, 12, 19), hot_fraction=0.85,
    ),
    replace(STORE_TIERED, specialize_threshold=5, specialize_max_executables=8),
    _COLD_WARM,
    row=(
        "specialized_hits", "specialized_hit_rate", "compile_charge_us",
        "fresh_compiles", "restored", "restore_us", "store_rejects",
        "first_specialized_hit_us", "p50_us", "p99_us", "deterministic",
    ),
    summary=lambda runs: {
        **_cold_warm_summary(runs),
        "warm_cold_charge_ratio": runs["warm"].report.specialize_compile_us
        / max(1e-9, runs["cold"].report.specialize_compile_us),
        "hit_rate_recovered": runs["warm"].report.specialized_hit_rate
        >= runs["cold"].report.specialized_hit_rate,
    },
)


def restart_study(artifact_dir: Optional[str] = None) -> Dict[str, Dict[str, float]]:
    """Cold vs warm server start against one persistent artifact store.

    Simulates the deployment story the store exists for: a server runs a
    hot-shape-concentrated traffic mix (paying the full compile charge
    for every hot shape), the process "dies" (the server object is
    dropped), and a **fresh** server is constructed against the same
    store and serves the identical trace. The warm server
    must restore every specialized executable at the modeled deserialize
    cost — compiling nothing — so it reaches (at least) the cold run's
    specialized hit rate for a small fraction of the compile charge, and
    its first specialized hit lands much earlier. Outputs are compared
    bitwise across the two runs: the store must never change *what* is
    computed, only when the static tiers come online.

    Returns ``{"cold": {...}, "warm": {...}, "summary": {...}}``; the
    summary includes the warm/cold compile-charge ratio (the headline:
    < 0.12), the time-to-first-specialized-hit speedup, a bit-identity
    flag, and per-run replay-determinism flags. The store lives under
    *artifact_dir* (kept) or a scratch directory (removed).
    """
    return run_study(RESTART, artifact_dir)


PREDICTIVE = Study(
    build_gram_module,
    "intel",
    partial(
        long_tailed_traffic, 200, input_size=16, mean_interarrival_us=400.0,
        hot_lengths=(9, 25, 41), hot_fraction=0.7,
    ),
    replace(
        STORE_TIERED,
        max_delay_us=1000.0,
        specialize_threshold=6,
        specialize_max_executables=4,
        # On in both runs: the cold one finds no profile in its empty
        # store and pre-arms nothing.
        specialize_predictive=True,
        specialize_partial=True,
        # The study's headline claim is *bitwise* cross-tier identity
        # (partial ≡ exact ≡ dynamic) across two servers whose tier
        # sequences intentionally differ — "lite" numerics skips large
        # kernels' compute, so only "full" makes that comparison
        # meaningful. The gram model is small enough that full compute
        # costs nothing here.
        numerics="full",
    ),
    _COLD_WARM,
    row=(
        "specialized_hits", "specialized_hit_rate", "partial_hits",
        "partial_shapes_covered", "guard_deopts", "predictive_compiles",
        "predictive_hits", "compile_charge_us", "restored",
        "first_specialized_hit_us", "p50_us", "p99_us", "deterministic",
    ),
    summary=lambda runs: {
        **_cold_warm_summary(runs),
        "predictive_compiles": runs["warm"].report.predictive_compiles,
        "predictive_hits": runs["warm"].report.predictive_hits,
        "partial_shapes_covered": max(
            MEASURES["partial_shapes_covered"](runs[n]) for n in ("cold", "warm")
        ),
        "guard_deopts": sum(runs[n].report.guard_deopts for n in ("cold", "warm")),
    },
)


def predictive_study(artifact_dir: Optional[str] = None) -> Dict[str, Dict[str, float]]:
    """Profile-guided predictive specialization + guarded partial shapes
    on a long-tailed traffic mix.

    Two fresh servers with one config (``specialize_predictive=True``)
    run the identical trace against one artifact store. The **cold**
    server starts with an empty store, so it has no profile to pre-arm
    from: specialization is reactive (threshold hits, then a compile)
    and the long tail of exact lengths is covered by a synthesized
    *partial* variant (stable feature dim bound, row dim left ``Any``,
    entry-guarded). At simulation end it persists its shape profile
    (``.nmblprof``). The **warm** server is constructed against the
    now-populated store: it pre-arms its historical top-K at virtual
    time 0 — before the first request lands — so its first specialized
    hit must land at least ~2× earlier than the cold run's.

    The model is the weight-free two-``Any``-dim Gram map
    (:func:`repro.models.build_gram_module`): its feature dim is *not*
    pinned by weights, so traffic with a stable feature width and
    long-tailed row counts genuinely exercises partial binding.

    Returns ``{"cold": {...}, "warm": {...}, "summary": {...}}``; the
    summary carries the first-hit speedup, how many distinct exact
    shapes the partial variant served, guard-deopt and predictive
    counters, a cold/warm bitwise-identity flag, and per-run
    replay-determinism flags.
    """
    return run_study(PREDICTIVE, artifact_dir)


# ---------------------------------------------------------------------------
# Fleet study: routed replicas over one shared artifact store
# ---------------------------------------------------------------------------

_FLEET_HOT = (9, 25, 41, 57)
_fleet_traffic = partial(
    multi_tenant_traffic, 200, input_size=16, mean_interarrival_us=300.0,
    tenant_mix=(("steady", 2), ("web", 2), ("batch", 2), ("bursty", 1)), hot_fraction=0.85,
)
_FLEET_TENANTS = (
    TenantSpec("steady", deadline_us=60_000.0),
    TenantSpec("web"),
    TenantSpec("batch"),
    TenantSpec("bursty", deadline_us=60_000.0, rate_per_s=4000.0, burst=4),
)
_FLEET_ROWS = ("affinity", "random", "least_loaded", "warm", "gc")
_REPLICA_SWEEP = (1, 2, 4)


def _fleet(name: str, store: str, routing: str = "affinity", replicas: int = 4, **variant):
    """A fleet variant: *replicas* replicas routed by *routing*, store GC on."""
    return Variant(
        name,
        store=store,
        fleet=FleetConfig(
            num_replicas=replicas,
            routing=routing,
            gc_interval_us=20_000.0,
            gc_max_age_us=30_000.0,
        ),
        tenants=_FLEET_TENANTS,
        **variant,
    )


def _fleet_summary(runs: Dict[str, Run]) -> Dict[str, object]:
    affinity, random_run, warm, gc = (runs[n].report for n in ("affinity", "random", "warm", "gc"))
    sweep = [runs[f"replicas={n}"] for n in _REPLICA_SWEEP]
    suffix_us = MEASURES["suffix_charge_us"]
    cold_first, warm_first = first_static_finish_us(affinity), first_static_finish_us(warm)
    return {
        "affinity_random_hit_ratio": (
            affinity.specialized_hit_rate / max(1e-9, random_run.specialized_hit_rate)
        ),
        "affinity_random_charge_ratio": (
            affinity.specialize_compile_us / max(1e-9, random_run.specialize_compile_us)
        ),
        "affinity_random_suffix_ratio": (
            suffix_us(runs["affinity"]) / max(1e-9, suffix_us(runs["random"]))
        ),
        "warm_first_hit_speedup": speedup(cold_first, warm_first),
        "warm_earlier": warm_first < cold_first,
        "admission_tripped": random_run.rejected > 0 and affinity.rejected > 0,
        "replica_sweep_deterministic": all(r.deterministic for r in sweep),
        # Every request a fleet served must compute bitwise the result
        # the lone server computed for that rid — placement, batching,
        # and tier must never change outputs.
        "single_server_match": all(
            outputs_equal(r.report, runs["single"].report, served_only=True) for r in sweep
        ),
        # The drifted-traffic run reclaimed the retired shape's blob
        # while the refcount guard held every live one.
        "gc_exercised": gc.gc_pruned > 0 and gc.gc_kept_referenced > 0 and gc.store_rejects == 0,
        "deterministic": all(runs[n].deterministic for n in _FLEET_ROWS),
    }


FLEET = Study(
    partial(_lstm_module, 16, 16),
    "intel",
    partial(_fleet_traffic, hot_lengths=_FLEET_HOT),
    replace(
        STORE_TIERED,
        specialize_threshold=4,
        # The cache is deliberately smaller than the number of hot
        # shapes in the trace — the pressure that makes placement
        # policy matter (see fleet_study).
        specialize_max_executables=2,
        specialize_compile_lanes=1,
    ),
    # Every fleet starts over a store of its own, except where it says so.
    variants=(
        _fleet("affinity", "affinity"),
        _fleet("random", "random", "random"),
        _fleet("least_loaded", "least_loaded", "least_loaded"),
        # The warm fleet: a NEW router (fresh replicas, fresh kernel
        # cache objects) over the store the affinity fleet filled.
        _fleet("warm", "affinity"),
        # The GC fleet: same populated store, but the traffic's hot set
        # has drifted (the first hot shape retired, a new one arrived).
        # Yesterday's blob for the retired shape is never re-hot —
        # age-pruned at the first collection — while every re-hot blob
        # is restored and then refcount-guarded. This is the
        # steady-state compaction story a long-lived store needs.
        _fleet(
            "gc",
            "affinity",
            trace=lambda seed: _fleet_traffic(
                hot_lengths=_FLEET_HOT[1:] + (_FLEET_HOT[0] + 64,), seed=seed + 1
            ),
        ),
        # Replica-count sweep (claim 3), each against its own store,
        # beside the lone server every count must agree with.
        Variant("single", store="single", reported=False),
        *(
            _fleet(f"replicas={n}", f"replicas={n}", replicas=n, reported=False)
            for n in _REPLICA_SWEEP
        ),
    ),
    row=(
        "admitted", "rejected", "affinity_rate", "specialized_hit_rate",
        "compile_charge_us", "suffix_charge_us", "fleet_restores", "store_rejects",
        "gc_pruned", "gc_kept_referenced", "first_specialized_hit_us", "p50_us",
        "p99_us", "slo_attainment_steady", "slo_attainment_bursty", "deterministic",
    ),
    summary=_fleet_summary,
)


def fleet_study() -> Dict[str, Dict[str, float]]:
    """The fleet layer's three claims, measured on one multi-tenant trace.

    1. **Shape-affinity routing concentrates specialization**: against
       random placement at the same fleet-wide fresh suffix charge (the
       shared store means any policy compiles each hot shape about
       once; each replica that compiles pays the prefix once more),
       affinity routing serves a much larger share of requests
       from the static tiers — the ``affinity_random_hit_ratio``
       headline, asserted ≥ 1.5 in ``benchmarks/bench_fleet.py``.
    2. **One replica's compile warms the whole fleet**: a *fresh* fleet
       started against the store a previous fleet filled reaches its
       first specialized hit strictly earlier than the cold fleet did
       (``warm_first_hit_speedup``), restoring instead of compiling.
    3. **Determinism at fleet scale**: for 1, 2 and 4 replicas — with
       store GC enabled — replaying the trace is bit-identical (outputs
       and every FleetReport counter), and every served request's output
       is bitwise equal to a single ``InferenceServer`` serving the same
       trace alone.

    The workload is sized so concentration is *structural*, not luck:
    four tenants with four distinct hot shapes, against replicas whose
    specialized-executable cache holds only two entries. Affinity
    routing pins each hot shape to one replica, so every replica's cache
    fits its share; random placement makes every replica juggle all four
    shapes in a two-slot cache — eviction thrash the shared store cannot
    restore fast enough. Three tenants are unlimited (one with a
    deadline class scored in the report); ``bursty`` is token-bucket
    limited so its bursts trip admission control — ``rejected`` must be
    > 0 or the admission path went untested.

    Returns ``{"affinity": {...}, "random": {...}, "least_loaded":
    {...}, "warm": {...}, "gc": {...}, "summary": {...}}`` — ``warm``
    re-runs the same trace over the affinity fleet's store, ``gc``
    runs a *drifted* trace over it (hot set rotated) so the collector
    reclaims the retired shape's blob under the refcount guard.
    """
    return run_study(FLEET)


# ---------------------------------------------------------------------------
# Multi-stream scheduling study
# ---------------------------------------------------------------------------


def stream_study(stream_counts: Sequence[int] = (1, 2, 4)) -> Dict[str, Dict[str, float]]:
    """Modeled multi-stream speedup from the AOT kernel schedule.

    Two workloads on BERT-base on the modeled GPU, both compiled once
    per stream count with the static scheduler
    (``CompilerOptions.device_streams``):

    * **single** — one inference at length 64: the q/k/v projections and
      other independent kernels inside each layer spread across streams,
      bounded by the attention critical path.
    * **pipeline** — a ragged-tail batch of 16 run member-wise with
      ``sync=False`` and the stream offset rotated per member (exactly
      what the serving worker does), so successive members' device work
      overlaps on top of the intra-member parallelism.

    Every configuration is run twice; the replay must reproduce the
    latency bit-for-bit, and every output must be bitwise identical to
    the single-stream run (the scheduler only moves modeled device time,
    never numerics). Returns ``{"streams=N": {...}, "summary": {...}}``
    with the summary carrying the best speedups and the identity/
    determinism flags.
    """
    config = BertConfig()
    mod = _bert_module(config)
    platform = platform_by_name("nvidia")
    rng = np.random.RandomState(11)
    x_single = _activations(rng, 64, config.hidden)
    members = [
        _activations(rng, length, config.hidden)
        for length in (48, 32, 24, 16, 56, 40, 8, 64, 48, 32, 24, 16, 56, 40, 8, 64)
    ]
    kernel_cache = KernelCache()

    def run_once(exe):
        """((single_us, pipeline_us), [single_out, *pipeline_outs], profile)."""
        streams = max(1, exe.device_streams)
        vm = _vm(exe, platform)
        single_out = vm.run(x_single)
        single_us = vm.ctx.elapsed_us
        vm = _vm(exe, platform)
        start = vm.ctx.elapsed_us
        outs = [
            vm.run(m, sync=False, stream_offset=i % streams)
            for i, m in enumerate(members)
        ]
        vm.ctx.clock.sync_all()
        return (single_us, vm.ctx.elapsed_us - start), [single_out] + outs, vm.profile

    results: Dict[str, Dict[str, float]] = {}
    baseline_us = baseline_outs = None
    bit_identical = True
    deterministic = True
    for count in stream_counts:
        exe, _ = nimble.build(
            mod, platform,
            options=CompilerOptions(device_streams=count),
            kernel_cache=kernel_cache,
        )
        (single_us, pipeline_us), outs, profile = run_once(exe)
        deterministic = deterministic and run_once(exe)[0] == (single_us, pipeline_us)
        if baseline_us is None:
            baseline_us, baseline_outs = (single_us, pipeline_us), outs
        bit_identical = bit_identical and all(
            np.array_equal(a.numpy(), b.numpy()) for a, b in zip(outs, baseline_outs)
        )
        busy = profile.stream_kernel_us
        total_busy = sum(busy.values())
        results[f"streams={count}"] = {
            "streams": float(exe.device_streams),
            "single_us": single_us,
            "pipeline_us": pipeline_us,
            "single_speedup": baseline_us[0] / single_us,
            "pipeline_speedup": baseline_us[1] / pipeline_us,
            "sync_events": float(profile.sync_events),
            "sync_waits": float(profile.sync_waits),
            "sync_stall_us": profile.sync_stall_us,
            "streams_busy": float(len(busy)),
            "busiest_stream_share": (
                max(busy.values()) / total_busy if total_busy else 0.0
            ),
        }
    results["summary"] = {
        "best_single_speedup": max(r["single_speedup"] for r in results.values()),
        "best_pipeline_speedup": max(r["pipeline_speedup"] for r in results.values()),
        "bit_identical": float(bit_identical),
        "deterministic": float(deterministic),
    }
    return results


# ---------------------------------------------------------------------------
# §4.5 symbolic tuning ablation
# ---------------------------------------------------------------------------


def tuning_ablation() -> Dict[str, float]:
    """The schedule a build gives the symbolic 768×768 dense on ARM vs
    naively reusing the static ``TUNE_AT``-row best at every row count
    and vs each row count's own static best (the oracle), summed over
    rows 1, 2, 4 … 256. Each is priced as a symbolic kernel with one
    residue per kernel."""
    platform = platform_by_name("arm")
    n_out = k_in = 768
    prim = _dense_primitive(_dense_weight(n_out, k_in))

    def total_us(pick) -> float:
        return sum(
            tuned_cost_us(
                platform.compute_spec, platform.name, compute_workload(prim, [(m, k_in)]),
                pick(m), (m, n_out, k_in), symbolic=True,
            )
            for m in (2**i for i in range(9))
        )

    naive = best_schedule(TUNE_AT, n_out, k_in, symbolic=False)
    workflow = build_schedule(prim, {})
    naive_us = total_us(lambda m: naive)
    workflow_us = total_us(lambda m: workflow)
    oracle_us = total_us(lambda m: best_schedule(m, n_out, k_in, symbolic=False))
    return {
        "naive_us": naive_us,
        "symbolic_workflow_us": workflow_us,
        "oracle_us": oracle_us,
        "workflow_vs_oracle": workflow_us / oracle_us,
        "naive_vs_oracle": naive_us / oracle_us,
    }
