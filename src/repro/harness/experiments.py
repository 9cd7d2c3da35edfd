"""The evaluation experiments (§6): one function per table/figure.

Every function returns a plain dict of measured numbers (virtual
microseconds) keyed the way the paper's tables are laid out, so
benchmarks and EXPERIMENTS.md generation share one source of truth.
All experiments run in ``lite`` numerics (identical latency model,
no heavyweight NumPy) with paper-sized models by default.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.nimble as nimble
from repro.baselines import (
    EagerFramework,
    FoldFramework,
    GraphFramework,
    HybridFramework,
)
from repro.codegen.kernels import KernelCache, KernelSet
from repro.codegen.tuner import SymbolicTuner
from repro.codegen.workload import compute_workload
from repro.core.memory import MemoryPlanReport
from repro.data import embedding_table, mrpc_like_lengths, sst_like_trees
from repro.fleet import FleetConfig, FleetRouter, TenantSpec
from repro.hardware import Platform, platform_by_name
from repro.models.bert import BertConfig, BertWeights, build_bert_module, build_bert_static_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module, tree_to_adt
from repro.models.vision import (
    build_mobilenet_like,
    build_resnet_like,
    build_squeezenet_like,
    build_vgg_like,
)
from repro.runtime.context import ExecutionContext
from repro.runtime.graph_runtime import GraphRuntime
from repro.serve import (
    InferenceServer,
    ServeConfig,
    bert_traffic,
    long_tailed_traffic,
    lstm_traffic,
    multi_tenant_traffic,
)
from repro.utils.reporting import percentile
from repro.vm.compiler import CompilerOptions
from repro.vm.interpreter import VirtualMachine

DEFAULT_PLATFORMS = ("intel", "nvidia", "arm")


def _embedded_sentences(n: int, dim: int, seed: int = 0) -> List[np.ndarray]:
    """MRPC-like variable-length sentences as embedding matrices."""
    rng = np.random.RandomState(seed + 7)
    return [
        (rng.randn(length, dim) * 0.1).astype(np.float32)
        for length in mrpc_like_lengths(n, seed)
    ]


def _nimble_run_all(
    mod, platform: Platform, inputs: Sequence, numerics: str = "lite",
    options: Optional[CompilerOptions] = None,
):
    """Compile once, run every input; returns (total_us, vm)."""
    exe, _ = nimble.build(mod, platform, options=options)
    ctx = ExecutionContext(platform, numerics=numerics)
    vm = VirtualMachine(exe, ctx)
    start = ctx.elapsed_us
    for x in inputs:
        vm.run(x)
    return ctx.elapsed_us - start, vm


# ---------------------------------------------------------------------------
# Table 1: LSTM
# ---------------------------------------------------------------------------


def table1_lstm(
    num_sentences: int = 10,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    layer_counts: Sequence[int] = (1, 2),
    input_size: int = 300,
    hidden_size: int = 512,
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[int, Dict[str, Dict[str, float]]]:
    """µs/token for Nimble / PyTorch / MXNet / TensorFlow, per platform.

    Returns ``{num_layers: {platform: {system: us_per_token}}}``.
    """
    sentences = _embedded_sentences(num_sentences, input_size, seed)
    tokens = sum(s.shape[0] for s in sentences)
    results: Dict[int, Dict[str, Dict[str, float]]] = {}
    for layers in layer_counts:
        weights = LSTMWeights.create(input_size, hidden_size, layers, seed=seed)
        mod = build_lstm_module(weights)
        results[layers] = {}
        for pname in platforms:
            platform = platform_by_name(pname)
            row: Dict[str, float] = {}
            total_us, _ = _nimble_run_all(mod, platform, sentences, numerics)
            row["nimble"] = total_us / tokens
            row["pytorch"] = (
                EagerFramework(platform, numerics).run_lstm(sentences, weights).us_per_token
            )
            row["mxnet"] = (
                HybridFramework(platform, numerics).run_lstm(sentences, weights).us_per_token
            )
            row["tensorflow"] = (
                GraphFramework(platform, numerics).run_lstm(sentences, weights).us_per_token
            )
            results[layers][pname] = row
    return results


# ---------------------------------------------------------------------------
# Table 2: Tree-LSTM
# ---------------------------------------------------------------------------


def table2_tree_lstm(
    num_trees: int = 10,
    platforms: Sequence[str] = ("intel", "arm"),
    input_size: int = 300,
    hidden_size: int = 150,
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, Dict[str, Optional[float]]]:
    """µs/token (token = leaf) for Nimble / PyTorch / TF Fold."""
    trees = sst_like_trees(num_trees, seed=seed)
    tokens = sum(t.num_leaves() for t in trees)
    embeddings = embedding_table(dim=input_size, seed=seed)
    weights = TreeLSTMWeights.create(input_size, hidden_size, seed=seed)
    mod = build_tree_lstm_module(weights)

    results: Dict[str, Dict[str, Optional[float]]] = {}
    for pname in platforms:
        platform = platform_by_name(pname)
        row: Dict[str, Optional[float]] = {}
        adts = [tree_to_adt(t, embeddings) for t in trees]
        total_us, _ = _nimble_run_all(mod, platform, adts, numerics)
        row["nimble"] = total_us / tokens
        row["pytorch"] = (
            EagerFramework(platform, numerics)
            .run_tree_lstm(trees, embeddings, weights)
            .us_per_token
        )
        fold = FoldFramework(platform, numerics)
        row["tf_fold"] = (
            fold.run_tree_lstm(trees, embeddings, weights).us_per_token
            if fold.supports("tree_lstm")
            else None
        )
        results[pname] = row
    return results


# ---------------------------------------------------------------------------
# Table 3: BERT
# ---------------------------------------------------------------------------


def table3_bert(
    num_sentences: int = 8,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    config: BertConfig = BertConfig(),
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """µs/token for Nimble / PyTorch / MXNet / TensorFlow."""
    weights = BertWeights.create(config, seed=seed)
    mod = build_bert_module(weights)
    sentences = _embedded_sentences(num_sentences, config.hidden, seed)
    tokens = sum(s.shape[0] for s in sentences)
    results: Dict[str, Dict[str, float]] = {}
    for pname in platforms:
        platform = platform_by_name(pname)
        row: Dict[str, float] = {}
        total_us, _ = _nimble_run_all(mod, platform, sentences, numerics)
        row["nimble"] = total_us / tokens
        row["pytorch"] = (
            EagerFramework(platform, numerics).run_bert(sentences, weights).us_per_token
        )
        row["mxnet"] = (
            HybridFramework(platform, numerics).run_bert(sentences, weights).us_per_token
        )
        row["tensorflow"] = (
            GraphFramework(platform, numerics).run_bert(sentences, weights).us_per_token
        )
        results[pname] = row
    return results


# ---------------------------------------------------------------------------
# Table 4: VM overhead vs static TVM (BERT, seq 128)
# ---------------------------------------------------------------------------


def table4_overhead(
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    config: BertConfig = BertConfig(),
    seq_len: int = 128,
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """{platform: {tvm_ms, nimble_ms, kernel_ms, others_ms}}."""
    weights = BertWeights.create(config, seed=seed)
    dyn_mod = build_bert_module(weights)
    static_mod = build_bert_static_module(weights, seq_len)
    x = (np.random.RandomState(seed).randn(seq_len, config.hidden) * 0.1).astype(np.float32)
    results: Dict[str, Dict[str, float]] = {}
    for pname in platforms:
        platform = platform_by_name(pname)
        # Static TVM baseline.
        graph = GraphRuntime(static_mod, platform)
        ctx = ExecutionContext(platform, numerics=numerics)
        _, tvm_us = graph.run(x, ctx=ctx)
        # Nimble.
        total_us, vm = _nimble_run_all(dyn_mod, platform, [x], numerics)
        kernel_us = vm.profile.kernel_time_us
        results[pname] = {
            "tvm_ms": tvm_us / 1e3,
            "nimble_ms": total_us / 1e3,
            "kernel_ms": kernel_us / 1e3,
            "others_ms": max(0.0, total_us - kernel_us) / 1e3,
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


def figure3_dispatch(
    platform_name: str = "arm",
    dispatch_levels: Sequence[Optional[int]] = (None, 8, 4, 2, 1),
    rows: Sequence[int] = tuple(range(1, 129)),
    tile: int = 8,
) -> Dict[str, Dict[str, float]]:
    """Relative latency (static = 100%) of symbolic kernels by number of
    dispatch kernels. ``None`` means static codegen (the baseline)."""
    from repro.ir import Any, Constant, Function, TensorType, Var
    from repro.ops import api
    from repro.tensor.ndarray import array as make_array

    platform = platform_by_name(platform_name)
    spec = platform.compute_spec
    results: Dict[str, Dict[str, float]] = {}
    for name, n_out, k_in in FIG3_DENSES:
        rng = np.random.RandomState(0)
        w = (rng.randn(n_out, k_in) * 0.02).astype(np.float32)

        def make_prim(symbolic: bool) -> Function:
            m_dim = Any() if symbolic else rows[-1]
            x = Var("x", TensorType((m_dim, k_in), "float32"))
            body = api.dense(x, Constant(make_array(w)))
            return Function(
                [x], body, TensorType((Any() if symbolic else rows[-1], n_out), "float32"),
                {"primitive": True},
            )

        # The schedule the symbolic tuner picks for this dense.
        sym_prim = make_prim(symbolic=True)
        tuner = SymbolicTuner(sym_prim, platform, spec, seed=hash(name) & 0xFFFF)
        schedule = tuner.tune(n_trials=96)
        if schedule.tile != tile:
            schedule = type(schedule)(tile, schedule.vectorize, schedule.unroll, schedule.parallel)

        entry: Dict[str, float] = {}
        static_total = 0.0
        for m in rows:
            static_kernel = KernelSet(
                make_prim(symbolic=False), platform, spec, schedule=schedule,
                symbolic=False, allow_library=False,
            )
            static_total += static_kernel.invoke_cost([(m, k_in)]).duration_us
        for level in dispatch_levels:
            if level is None:
                entry["static"] = 100.0
                continue
            kernel = KernelSet(
                sym_prim, platform, spec, schedule=schedule,
                num_dispatch_kernels=level, symbolic=True, allow_library=False,
            )
            total = sum(kernel.invoke_cost([(m, k_in)]).duration_us for m in rows)
            label = "no dispatch" if level == 1 else f"dispatch/{level}"
            entry[label] = 100.0 * total / static_total
        results[name] = entry
    return results


# ---------------------------------------------------------------------------
# §6.3 memory planning study
# ---------------------------------------------------------------------------


def memory_planning_study(
    platform_name: str = "intel",
    config: BertConfig = BertConfig(),
    seq_len: int = 128,
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, float]:
    """Memory planning effect on BERT: allocation counts and latency with
    and without the §4.3 pass."""
    platform = platform_by_name(platform_name)
    weights = BertWeights.create(config, seed=seed)
    mod = build_bert_module(weights)
    x = (np.random.RandomState(seed).randn(seq_len, config.hidden) * 0.1).astype(np.float32)

    def run(plan: bool):
        exe, report = nimble.build(mod, platform, plan_memory=plan)
        ctx = ExecutionContext(platform, numerics=numerics)
        vm = VirtualMachine(exe, ctx)
        vm.run(x)
        return report, ctx, vm

    report_off, ctx_off, _ = run(False)
    report_on, ctx_on, _ = run(True)
    stats_off, stats_on = ctx_off.allocator.stats, ctx_on.allocator.stats
    return {
        "allocs_unplanned": float(stats_off.total_allocs),
        "allocs_planned": float(stats_on.total_allocs),
        "alloc_reduction": 1.0 - stats_on.total_allocs / max(1, stats_off.total_allocs),
        "alloc_latency_unplanned_ms": stats_off.alloc_time_us / 1e3,
        "alloc_latency_planned_ms": stats_on.alloc_time_us / 1e3,
        "peak_bytes_unplanned": float(stats_off.peak_bytes),
        "peak_bytes_planned": float(stats_on.peak_bytes),
    }


def memory_footprint_vs_static(
    platform_name: str = "intel",
) -> Dict[str, Dict[str, float]]:
    """Nimble peak memory vs the static planner on the four CV models
    (the paper reports ≤8% extra footprint)."""
    platform = platform_by_name(platform_name)
    builders = {
        "resnet": build_resnet_like,
        "mobilenet": build_mobilenet_like,
        "vgg": build_vgg_like,
        "squeezenet": build_squeezenet_like,
    }
    out: Dict[str, Dict[str, float]] = {}
    for name, builder in builders.items():
        mod = builder()
        graph = GraphRuntime(builder(), platform)
        x = np.zeros((1, 3, 64, 64), np.float32)
        exe, report = nimble.build(mod, platform)
        ctx = ExecutionContext(platform, numerics="lite")
        vm = VirtualMachine(exe, ctx)
        vm.run(x)
        nimble_bytes = ctx.allocator.stats.peak_bytes
        static_bytes = graph.planned_bytes
        out[name] = {
            "static_bytes": float(static_bytes),
            "nimble_bytes": float(nimble_bytes),
            "overhead_pct": 100.0 * (nimble_bytes / max(1, static_bytes) - 1.0),
        }
    return out


# ---------------------------------------------------------------------------
# Serving study: batched shape-bucketed serving vs serial dispatch
# ---------------------------------------------------------------------------


def serving_study(
    model: str = "lstm",
    num_requests: int = 32,
    platform_name: str = "nvidia",
    num_workers: int = 4,
    max_batch_size: int = 8,
    max_delay_us: float = 4000.0,
    mean_interarrival_us: float = 50.0,
    bucket_granularity: int = 8,
    input_size: int = 300,
    hidden_size: int = 512,
    bert_config: Optional[BertConfig] = None,
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Throughput/latency of the batched server vs one-at-a-time dispatch
    on the same MRPC-like traffic trace.

    Returns ``{"serial": {...}, "batched": {...}, "summary": {...}}`` where
    the summary carries the throughput speedup and a determinism flag (the
    batched simulation re-run from scratch must reproduce identical
    numbers).
    """

    platform = platform_by_name(platform_name)
    if model == "lstm":
        weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
        mod = build_lstm_module(weights)
        requests = lstm_traffic(
            num_requests, input_size=input_size,
            mean_interarrival_us=mean_interarrival_us, seed=seed,
        )
    elif model == "bert":
        config = bert_config or BertConfig()
        weights = BertWeights.create(config, seed=seed)
        mod = build_bert_module(weights)
        requests = bert_traffic(
            num_requests, hidden=config.hidden,
            mean_interarrival_us=mean_interarrival_us, seed=seed,
        )
    else:
        raise ValueError(f"unknown serving model {model!r}")

    batched_config = ServeConfig(
        max_batch_size=max_batch_size,
        max_delay_us=max_delay_us,
        num_workers=num_workers,
        bucket_granularity=bucket_granularity,
        numerics=numerics,
    )

    def run(config: ServeConfig, kernel_cache: Optional[KernelCache] = None):
        server = InferenceServer(mod, platform, config, kernel_cache=kernel_cache)
        return server.simulate(requests)

    # Serial and batched share one kernel cache (identical module, compile
    # once); the repeat run builds from scratch so the determinism check
    # covers the whole compile-and-serve path.
    shared_cache = KernelCache()
    serial = run(
        ServeConfig.serial(bucket_granularity=bucket_granularity, numerics=numerics),
        shared_cache,
    )
    batched = run(batched_config, shared_cache)
    repeat = run(batched_config)

    def row(report) -> Dict[str, float]:
        return {
            "throughput_rps": report.throughput_rps,
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "mean_latency_us": report.mean_latency_us,
            "mean_batch_size": report.mean_batch_size,
            "num_batches": float(report.num_batches),
            "span_us": report.span_us,
        }

    deterministic = row(batched) == row(repeat) and (
        batched.latencies_us == repeat.latencies_us
    )
    return {
        "serial": row(serial),
        "batched": row(batched),
        "summary": {
            "throughput_speedup": batched.throughput_rps
            / max(1e-12, serial.throughput_rps),
            "deterministic": float(deterministic),
        },
    }


# ---------------------------------------------------------------------------
# Tiered specialization study: static recompilation of hot shapes
# ---------------------------------------------------------------------------


def specialization_study(
    platform_name: str = "intel",
    hot_len: int = 24,
    bert_config: Optional[BertConfig] = None,
    num_requests: int = 256,
    mean_interarrival_us: float = 800.0,
    num_workers: int = 2,
    max_batch_size: int = 4,
    max_delay_us: float = 2000.0,
    threshold: int = 3,
    input_size: int = 64,
    hidden_size: int = 64,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Two measurements of tiered compilation (DyCL-style static recovery):

    1. **Executable tier comparison** — one BERT-class module compiled
       dynamically and specialized to the hot shape, run on the same
       input: end-to-end latency, shape-function time, allocations, and a
       bit-identity check (the tiers must differ only in overhead).
    2. **Serving with tiering** — the LSTM MRPC mix served with
       ``specialize=True``: specialized hit rate, per-tier latency, and a
       replay-determinism flag.
    """

    platform = platform_by_name(platform_name)

    # --- 1. dynamic vs specialized executable on the hot shape -------------
    config = bert_config or BertConfig(hidden=64, num_layers=2, num_heads=2, ffn=128)
    weights = BertWeights.create(config, seed=seed)
    mod = build_bert_module(weights)
    cache = KernelCache()
    dyn_exe, _ = nimble.build(mod, platform, kernel_cache=cache)
    spec_exe, _ = nimble.specialize(
        mod, platform, shapes=[(hot_len, config.hidden)], kernel_cache=cache
    )
    x = (np.random.RandomState(seed).randn(hot_len, config.hidden) * 0.1).astype(
        np.float32
    )

    def run_exe(exe):
        ctx = ExecutionContext(platform, numerics="full")
        vm = VirtualMachine(exe, ctx)
        out, latency = vm.run_with_latency(x)
        return out, latency, vm.profile, ctx.allocator.stats

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

    # --- 2. serving the LSTM MRPC mix with tiering on ----------------------
    lstm_weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    lstm_mod = build_lstm_module(lstm_weights)
    requests = lstm_traffic(
        num_requests, input_size=input_size,
        mean_interarrival_us=mean_interarrival_us, seed=seed,
    )
    serve_config = ServeConfig(
        max_batch_size=max_batch_size,
        max_delay_us=max_delay_us,
        num_workers=num_workers,
        specialize=True,
        specialize_threshold=threshold,
    )
    server = InferenceServer(lstm_mod, platform, serve_config)
    report = server.simulate(requests)
    replay = server.simulate(requests)
    deterministic = (
        report.latencies_us == replay.latencies_us
        and report.specialized_hits == replay.specialized_hits
        and report.specialize_compile_us == replay.specialize_compile_us
    )
    serving = {
        "specialized_hits": float(report.specialized_hits),
        "specialized_hit_rate": report.specialized_hit_rate,
        "num_specialized_executables": float(report.num_specialized_executables),
        "compile_us": report.specialize_compile_us,
        "p50_us": report.p50_us,
        "p99_us": report.p99_us,
        "p50_us_dynamic": report.tier_latency_percentile_us("dynamic", 50.0),
        "p50_us_specialized": report.tier_latency_percentile_us("specialized", 50.0),
        "deterministic": float(deterministic),
    }
    return {"tiers": tiers, "serving": serving}


# ---------------------------------------------------------------------------
# Compile-pool study: lanes × cache size on a long-tailed shape mix
# ---------------------------------------------------------------------------


def compile_pool_study(
    platform_name: str = "intel",
    num_requests: int = 192,
    mean_interarrival_us: float = 300.0,
    lane_counts: Sequence[int] = (1, 2, 4),
    cache_sizes: Sequence[int] = (2, 4),
    threshold: int = 3,
    # 8000 µs per variant (the suffix share), +12000 µs once for the prefix.
    compile_us: float = 20_000.0,
    decay_half_life_us: float = 6_000.0,
    input_size: int = 16,
    hidden_size: int = 16,
    max_batch_size: int = 4,
    max_delay_us: float = 1500.0,
    num_workers: int = 2,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Sweep the specialization compile pool over lanes × cache size on a
    phased long-tailed shape mix (each phase's hot shape goes cold when
    the next begins, so the executable cache must evict to keep up).

    Per configuration: specialized hit rate, compile-queue wait
    mean/p99, eviction count, per-lane utilization, and a
    replay-determinism flag. The summary reports how much a wider pool
    cuts queue wait on identical traces.
    """

    platform = platform_by_name(platform_name)
    weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    mod = build_lstm_module(weights)
    requests = long_tailed_traffic(
        num_requests,
        input_size=input_size,
        mean_interarrival_us=mean_interarrival_us,
        seed=seed,
    )
    # One kernel cache across the sweep: every server compiles the same
    # module, and the modeled compile cost is charged per trigger anyway.
    shared_cache = KernelCache()

    def run(lanes: int, cache: int) -> Dict[str, float]:
        config = ServeConfig(
            max_batch_size=max_batch_size,
            max_delay_us=max_delay_us,
            num_workers=num_workers,
            specialize=True,
            specialize_threshold=threshold,
            specialize_max_executables=cache,
            specialize_compile_us=compile_us,
            specialize_compile_lanes=lanes,
            specialize_decay_half_life_us=decay_half_life_us,
        )
        server = InferenceServer(mod, platform, config, kernel_cache=shared_cache)
        report = server.simulate(requests)
        replay = server.simulate(requests)
        deterministic = (
            report.latencies_us == replay.latencies_us
            and report.specialized_hits == replay.specialized_hits
            and report.specialize_queue_waits_us == replay.specialize_queue_waits_us
            and report.specialize_lane_busy_us == replay.specialize_lane_busy_us
            and report.specialize_evictions == replay.specialize_evictions
        )
        row = {
            "specialized_hit_rate": report.specialized_hit_rate,
            "specialized_hits": float(report.specialized_hits),
            "compiles": float(len(report.specialize_queue_waits_us)),
            "evictions": float(report.specialize_evictions),
            "compile_us": report.specialize_compile_us,
            "mean_queue_wait_us": report.mean_compile_queue_wait_us,
            "p99_queue_wait_us": report.compile_queue_wait_percentile_us(99.0),
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "deterministic": float(deterministic),
        }
        for i, util in enumerate(report.compile_lane_utilization):
            row[f"lane{i}_util"] = util
        return row

    results: Dict[str, Dict[str, float]] = {}
    for cache in cache_sizes:
        for lanes in lane_counts:
            results[f"lanes={lanes},cache={cache}"] = run(lanes, cache)

    # Summarize from the lane counts actually swept: the fewest-lane pool
    # vs the widest, both at the largest cache.
    min_lanes, max_lanes = min(lane_counts), max(lane_counts)
    big = max(cache_sizes)
    narrow = results[f"lanes={min_lanes},cache={big}"]
    wide = results[f"lanes={max_lanes},cache={big}"]
    results["summary"] = {
        "min_lanes": float(min_lanes),
        "max_lanes": float(max_lanes),
        "queue_wait_min_lanes_us": narrow["mean_queue_wait_us"],
        "queue_wait_max_lanes_us": wide["mean_queue_wait_us"],
        "deterministic": float(
            all(
                row["deterministic"] == 1.0
                for key, row in results.items()
                if key != "summary"
            )
        ),
    }
    return results


# ---------------------------------------------------------------------------
# Batch-granularity specialization study
# ---------------------------------------------------------------------------


def batch_specialization_study(
    platform_name: str = "nvidia",
    hot_len: int = 24,
    batch: int = 8,
    bert_config: Optional[BertConfig] = None,
    num_requests: int = 72,
    mean_interarrival_us: float = 150.0,
    input_size: int = 8,
    hidden_size: int = 16,
    threshold: int = 2,
    compile_us: float = 400.0,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Three measurements of batch-granularity specialization:

    1. **Batched vs member-pipelined executables** — the hot BERT bucket
       run on the modeled GPU platform: ``batch`` member-wise calls
       pipelined with one final sync (the member tier's worker loop) vs
       ONE call on the batch-specialized executable. The batched tier
       fuses each GEMM site into a single batched launch, so its
       throughput gain comes from launch-overhead amortization and GEMM
       saturation at ``batch ×`` the rows.
    2. **Bit identity** — dynamic, member-specialized, and
       batch-specialized outputs compared bitwise per member (full
       numerics, host platform).
    3. **Serving with the batched tier** — a hot-heavy LSTM mix served
       with ``specialize_batch=True``: full hot buckets must route to the
       batched tier (one VM call per bucket, zero shape functions) and
       replays must stay bit-identical.
    """

    platform = platform_by_name(platform_name)

    # --- 1. one batched call vs a member-pipelined bucket ------------------
    config = bert_config or BertConfig(hidden=64, num_layers=2, num_heads=2, ffn=128)
    weights = BertWeights.create(config, seed=seed)
    mod = build_bert_module(weights)
    cache = KernelCache()
    member_exe, _ = nimble.specialize(
        mod, platform, shapes=[(hot_len, config.hidden)], kernel_cache=cache
    )
    batched_exe, _ = nimble.specialize(
        mod, platform, shapes=[(hot_len, config.hidden)], kernel_cache=cache,
        batch=batch,
    )
    rng = np.random.RandomState(seed)
    xs = [
        (rng.randn(hot_len, config.hidden) * 0.1).astype(np.float32)
        for _ in range(batch)
    ]

    ctx_m = ExecutionContext(platform, numerics="lite")
    vm_m = VirtualMachine(member_exe, ctx_m)
    start = ctx_m.clock.elapsed_us
    for x in xs:
        vm_m.run(x, sync=False)
    ctx_m.clock.sync_all()
    member_us = ctx_m.clock.elapsed_us - start

    ctx_b = ExecutionContext(platform, numerics="lite")
    vm_b = VirtualMachine(batched_exe, ctx_b)
    start = ctx_b.clock.elapsed_us
    vm_b.run(np.concatenate(xs, axis=0), sync=False)
    ctx_b.clock.sync_all()
    batched_us = ctx_b.clock.elapsed_us - start

    tiers = {
        "member_pipelined_us": member_us,
        "batched_us": batched_us,
        "throughput_gain": member_us / max(1e-9, batched_us),
        # One batched GEMM per member-wise GEMM site: the batched run
        # launches exactly as many GEMM kernels as ONE member run, while
        # the pipelined bucket pays `batch` times that.
        "gemm_launches_member_total": float(vm_m.profile.gemm_invocations()),
        "gemm_launches_batched": float(vm_b.profile.gemm_invocations()),
        "batched_runs": float(vm_b.profile.runs),
        "member_runs": float(vm_m.profile.runs),
    }

    # --- 2. bit identity across the three tiers ----------------------------
    host = platform_by_name("intel")
    small = BertConfig(hidden=32, num_layers=1, num_heads=2, ffn=64)
    small_w = BertWeights.create(small, seed=seed)
    small_mod = build_bert_module(small_w)
    small_cache = KernelCache()
    dyn_exe, _ = nimble.build(small_mod, host, kernel_cache=small_cache)
    mem_exe, _ = nimble.specialize(
        small_mod, host, shapes=[(11, small.hidden)], kernel_cache=small_cache
    )
    bat_exe, _ = nimble.specialize(
        small_mod, host, shapes=[(11, small.hidden)], kernel_cache=small_cache,
        batch=3,
    )
    members = [
        (rng.randn(11, small.hidden) * 0.1).astype(np.float32) for _ in range(3)
    ]

    def run_full(exe, *inputs):
        vm = VirtualMachine(exe, ExecutionContext(host, numerics="full"))
        return vm.run(*inputs)

    outs_dyn = [run_full(dyn_exe, x).numpy() for x in members]
    outs_mem = [run_full(mem_exe, x).numpy() for x in members]
    stacked_out = run_full(bat_exe, np.concatenate(members, axis=0)).numpy()
    outs_bat = np.split(stacked_out, 3, axis=0)
    tiers["bit_identical"] = float(
        all(
            np.array_equal(d, m) and np.array_equal(d, b)
            for d, m, b in zip(outs_dyn, outs_mem, outs_bat)
        )
    )

    # --- 3. serving the hot-heavy LSTM mix with the batched tier -----------
    lstm_weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    lstm_mod = build_lstm_module(lstm_weights)
    requests = long_tailed_traffic(
        num_requests,
        input_size=input_size,
        mean_interarrival_us=mean_interarrival_us,
        hot_lengths=(7,),
        hot_fraction=0.8,
        tail_min=3,
        tail_max=16,
        seed=seed,
    )
    serve_config = ServeConfig(
        max_batch_size=4,
        max_delay_us=2000.0,
        num_workers=2,
        specialize=True,
        specialize_threshold=threshold,
        specialize_compile_us=compile_us,
        specialize_batch=True,
    )
    server = InferenceServer(lstm_mod, platform_by_name("intel"), serve_config)
    report = server.simulate(requests)
    replay = server.simulate(requests)
    deterministic = (
        report.latencies_us == replay.latencies_us
        and [r.tier for r in report.responses]
        == [r.tier for r in replay.responses]
        and report.batched_hits == replay.batched_hits
        and report.specialize_compile_us == replay.specialize_compile_us
    )
    serving = {
        "batched_hits": float(report.batched_hits),
        "batched_hit_rate": report.batched_hit_rate,
        "specialized_hit_rate": report.specialized_hit_rate,
        "batched_batches": float(report.profile_batched.runs),
        "batched_shape_func_us": report.profile_batched.shape_func_time_us,
        "p50_us_dynamic": report.tier_latency_percentile_us("dynamic", 50.0),
        "p50_us_batched": report.tier_latency_percentile_us("batched", 50.0),
        "deterministic": float(deterministic),
    }
    return {"tiers": tiers, "serving": serving}


# ---------------------------------------------------------------------------
# Restart study: persistent artifact store, cold vs warm server start
# ---------------------------------------------------------------------------


def restart_study(
    platform_name: str = "intel",
    num_requests: int = 220,
    mean_interarrival_us: float = 400.0,
    hot_lengths: Sequence[int] = (7, 12, 19),
    hot_fraction: float = 0.85,
    threshold: int = 5,
    max_executables: int = 8,
    compile_lanes: int = 2,
    compile_us: float = 8000.0,
    input_size: int = 16,
    hidden_size: int = 16,
    max_batch_size: int = 4,
    max_delay_us: float = 1500.0,
    num_workers: int = 2,
    artifact_dir: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Cold vs warm server start against one persistent artifact store.

    Simulates the deployment story the store exists for: a server runs a
    hot-shape-concentrated traffic mix (paying the full compile charge
    for every hot shape), the process "dies" (the server object is
    dropped), and a **fresh** server is constructed against the same
    ``artifact_dir`` and serves the identical trace. The warm server
    must restore every specialized executable at the modeled deserialize
    cost — compiling nothing — so it reaches (at least) the cold run's
    specialized hit rate for a small fraction of the compile charge, and
    its first specialized hit lands much earlier. Outputs are compared
    bitwise across the two runs: the store must never change *what* is
    computed, only when the static tiers come online.

    Returns ``{"cold": {...}, "warm": {...}, "summary": {...}}``; the
    summary includes the warm/cold compile-charge ratio (the headline:
    < 0.12), the time-to-first-specialized-hit speedup, a bit-identity
    flag, and per-run replay-determinism flags.
    """
    import tempfile


    platform = platform_by_name(platform_name)
    weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    mod = build_lstm_module(weights)
    requests = long_tailed_traffic(
        num_requests,
        input_size=input_size,
        mean_interarrival_us=mean_interarrival_us,
        hot_lengths=tuple(hot_lengths),
        hot_fraction=hot_fraction,
        seed=seed,
    )
    owns_dir = artifact_dir is None
    if owns_dir:
        artifact_dir = tempfile.mkdtemp(prefix="nimble-restart-study-")
    config = ServeConfig(
        max_batch_size=max_batch_size,
        max_delay_us=max_delay_us,
        num_workers=num_workers,
        specialize=True,
        specialize_threshold=threshold,
        specialize_max_executables=max_executables,
        specialize_compile_lanes=compile_lanes,
        # An explicit modeled compile cost, sized so the *cold* run
        # reaches its specialized steady state within each traffic
        # phase — the study then measures warm restart against a
        # non-degenerate baseline (the calibrated default outlasts a
        # whole phase at this trace length, leaving cold at 0 hits).
        # The restore charge keeps its calibrated default, so the
        # warm/cold ratio stays an honest model output.
        specialize_compile_us=compile_us,
        artifact_dir=artifact_dir,
    )

    def first_specialized_hit_us(report) -> float:
        hits = [r.finish_us for r in report.responses if r.tier != "dynamic"]
        return min(hits) if hits else math.inf

    def run_fresh_server():
        """A brand-new server: new kernel cache, new VMs, new manager —
        everything a process restart loses. Only the artifact_dir
        persists between calls."""
        server = InferenceServer(mod, platform, config)
        report = server.simulate(requests)
        replay = server.simulate(requests)
        deterministic = (
            report.latencies_us == replay.latencies_us
            and [r.tier for r in report.responses]
            == [r.tier for r in replay.responses]
            and report.specialize_compile_us == replay.specialize_compile_us
            and report.specialize_restored == replay.specialize_restored
            and report.store_rejects == replay.store_rejects
        )
        return report, deterministic

    try:
        cold, cold_deterministic = run_fresh_server()
        warm, warm_deterministic = run_fresh_server()
    finally:
        if owns_dir:
            # The study made its own scratch store; repeated harness
            # runs must not accumulate blob directories in /tmp.
            import shutil

            shutil.rmtree(artifact_dir, ignore_errors=True)

    def row(report, deterministic) -> Dict[str, float]:
        return {
            "specialized_hits": float(report.specialized_hits),
            "specialized_hit_rate": report.specialized_hit_rate,
            "compile_charge_us": report.specialize_compile_us,
            "fresh_compiles": float(report.specialize_fresh_compiles),
            "restored": float(report.specialize_restored),
            "restore_us": report.specialize_restore_us,
            "store_rejects": float(report.store_rejects),
            "first_specialized_hit_us": first_specialized_hit_us(report),
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "deterministic": float(deterministic),
        }

    bit_identical = len(cold.responses) == len(warm.responses) and all(
        a.rid == b.rid
        and np.array_equal(
            np.asarray(a.output.numpy()), np.asarray(b.output.numpy())
        )
        for a, b in zip(cold.responses, warm.responses)
    )
    charge_ratio = warm.specialize_compile_us / max(
        1e-9, cold.specialize_compile_us
    )
    cold_first = first_specialized_hit_us(cold)
    warm_first = first_specialized_hit_us(warm)
    # inf/inf (neither run ever hit a static tier — degenerate config)
    # would be NaN; report "no change" instead of poisoning downstream
    # arithmetic.
    first_hit_speedup = (
        1.0 if cold_first == warm_first else cold_first / warm_first
    )
    return {
        "cold": row(cold, cold_deterministic),
        "warm": row(warm, warm_deterministic),
        "summary": {
            "warm_cold_charge_ratio": charge_ratio,
            "first_hit_speedup": first_hit_speedup,
            "hit_rate_recovered": float(
                warm.specialized_hit_rate >= cold.specialized_hit_rate
            ),
            "bit_identical": float(bit_identical),
            "deterministic": float(cold_deterministic and warm_deterministic),
        },
    }


# ---------------------------------------------------------------------------
# Predictive + partial specialization study
# ---------------------------------------------------------------------------


def predictive_study(
    platform_name: str = "intel",
    num_requests: int = 200,
    mean_interarrival_us: float = 400.0,
    hot_lengths: Sequence[int] = (9, 25, 41),
    hot_fraction: float = 0.7,
    threshold: int = 6,
    max_executables: int = 4,
    compile_lanes: int = 2,
    compile_us: float = 8000.0,
    input_size: int = 16,
    max_batch_size: int = 4,
    max_delay_us: float = 1000.0,
    num_workers: int = 2,
    partial_min_shapes: int = 3,
    artifact_dir: Optional[str] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Profile-guided predictive specialization + guarded partial shapes
    on a long-tailed traffic mix.

    Two fresh servers run the identical trace against one artifact
    store. The **cold** server starts with an empty store: specialization
    is reactive (threshold hits, then a compile) and the long tail of
    exact lengths is covered by a synthesized *partial* variant (stable
    feature dim bound, row dim left ``Any``, entry-guarded). At
    simulation end it persists its shape profile (``.nmblprof``). The
    **warm** server is constructed against the now-populated store with
    ``specialize_predictive=True``: it pre-arms its historical top-K at
    virtual time 0 — before the first request lands — so its first
    specialized hit must land at least ~2× earlier than the cold run's.

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
    import tempfile

    from repro.models import build_gram_module

    platform = platform_by_name(platform_name)
    mod = build_gram_module()
    requests = long_tailed_traffic(
        num_requests,
        input_size=input_size,
        mean_interarrival_us=mean_interarrival_us,
        hot_lengths=tuple(hot_lengths),
        hot_fraction=hot_fraction,
        seed=seed,
    )
    owns_dir = artifact_dir is None
    if owns_dir:
        artifact_dir = tempfile.mkdtemp(prefix="nimble-predictive-study-")
    config = ServeConfig(
        max_batch_size=max_batch_size,
        max_delay_us=max_delay_us,
        num_workers=num_workers,
        specialize=True,
        specialize_threshold=threshold,
        specialize_max_executables=max_executables,
        specialize_compile_lanes=compile_lanes,
        # Explicit modeled compile cost, like restart_study: sized so
        # the cold run's reactive warm-up is visible but finishes well
        # inside the trace, giving the warm run a non-degenerate
        # first-hit baseline to beat.
        specialize_compile_us=compile_us,
        artifact_dir=artifact_dir,
        specialize_predictive=True,
        specialize_partial=True,
        specialize_partial_min_shapes=partial_min_shapes,
        # The study's headline claim is *bitwise* cross-tier identity
        # (partial ≡ exact ≡ dynamic) across two servers whose tier
        # sequences intentionally differ — "lite" numerics skips large
        # kernels' compute, so only "full" makes that comparison
        # meaningful. The gram model is small enough that full compute
        # costs nothing here.
        numerics="full",
    )
    length_of = {r.rid: int(np.asarray(r.payload).shape[0]) for r in requests}

    def first_specialized_hit_us(report) -> float:
        hits = [r.finish_us for r in report.responses if r.tier != "dynamic"]
        return min(hits) if hits else math.inf

    def partial_shapes_covered(report) -> int:
        """Distinct exact row counts served by the guarded-partial tier."""
        return len(
            {length_of[r.rid] for r in report.responses if r.tier == "partial"}
        )

    def run_fresh_server():
        server = InferenceServer(mod, platform, config)
        report = server.simulate(requests)
        replay = server.simulate(requests)
        deterministic = (
            report.latencies_us == replay.latencies_us
            and [r.tier for r in report.responses]
            == [r.tier for r in replay.responses]
            and report.specialize_compile_us == replay.specialize_compile_us
            and report.predictive_compiles == replay.predictive_compiles
            and report.predictive_hits == replay.predictive_hits
            and report.guard_deopts == replay.guard_deopts
            and report.store_rejects == replay.store_rejects
        )
        return report, deterministic

    try:
        cold, cold_deterministic = run_fresh_server()
        warm, warm_deterministic = run_fresh_server()
    finally:
        if owns_dir:
            import shutil

            shutil.rmtree(artifact_dir, ignore_errors=True)

    def row(report, deterministic) -> Dict[str, float]:
        return {
            "specialized_hits": float(report.specialized_hits),
            "specialized_hit_rate": report.specialized_hit_rate,
            "partial_hits": float(report.partial_hits),
            "partial_shapes_covered": float(partial_shapes_covered(report)),
            "guard_deopts": float(report.guard_deopts),
            "predictive_compiles": float(report.predictive_compiles),
            "predictive_hits": float(report.predictive_hits),
            "compile_charge_us": report.specialize_compile_us,
            "restored": float(report.specialize_restored),
            "first_specialized_hit_us": first_specialized_hit_us(report),
            "p50_us": report.p50_us,
            "p99_us": report.p99_us,
            "deterministic": float(deterministic),
        }

    bit_identical = len(cold.responses) == len(warm.responses) and all(
        a.rid == b.rid
        and np.array_equal(
            np.asarray(a.output.numpy()), np.asarray(b.output.numpy())
        )
        for a, b in zip(cold.responses, warm.responses)
    )
    cold_first = first_specialized_hit_us(cold)
    warm_first = first_specialized_hit_us(warm)
    first_hit_speedup = (
        1.0 if cold_first == warm_first else cold_first / warm_first
    )
    return {
        "cold": row(cold, cold_deterministic),
        "warm": row(warm, warm_deterministic),
        "summary": {
            "first_hit_speedup": first_hit_speedup,
            "predictive_compiles": float(warm.predictive_compiles),
            "predictive_hits": float(warm.predictive_hits),
            "partial_shapes_covered": float(
                max(partial_shapes_covered(cold), partial_shapes_covered(warm))
            ),
            "guard_deopts": float(cold.guard_deopts + warm.guard_deopts),
            "bit_identical": float(bit_identical),
            "deterministic": float(cold_deterministic and warm_deterministic),
        },
    }


# ---------------------------------------------------------------------------
# Fleet study: routed replicas over one shared artifact store
# ---------------------------------------------------------------------------


def fleet_study(
    platform_name: str = "intel",
    num_requests: int = 200,
    num_replicas: int = 4,
    replica_counts: Sequence[int] = (1, 2, 4),
    mean_interarrival_us: float = 300.0,
    threshold: int = 4,
    max_executables: int = 2,
    compile_lanes: int = 1,
    compile_us: float = 8000.0,
    input_size: int = 16,
    hidden_size: int = 16,
    max_batch_size: int = 4,
    max_delay_us: float = 1500.0,
    num_workers: int = 2,
    hot_lengths: Sequence[int] = (9, 25, 41, 57),
    hot_fraction: float = 0.85,
    bursty_rate_per_s: float = 4000.0,
    bursty_burst: int = 4,
    steady_deadline_us: float = 60_000.0,
    gc_interval_us: float = 20_000.0,
    gc_max_age_us: float = 30_000.0,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """The fleet layer's three claims, measured on one multi-tenant trace.

    1. **Shape-affinity routing concentrates specialization**: against
       random placement at the same fleet-wide fresh-compile charge (the
       shared store means any policy compiles each hot shape about
       once), affinity routing serves a much larger share of requests
       from the static tiers — the ``affinity_random_hit_ratio``
       headline, asserted ≥ 1.5 in ``benchmarks/bench_fleet.py``.
    2. **One replica's compile warms the whole fleet**: a *fresh* fleet
       started against the store a previous fleet filled reaches its
       first specialized hit strictly earlier than the cold fleet did
       (``warm_first_hit_speedup``), restoring instead of compiling.
    3. **Determinism at fleet scale**: for every replica count in
       *replica_counts* — with store GC enabled — replaying the trace is
       bit-identical (outputs and every FleetReport counter), and every
       served request's output is bitwise equal to a single
       ``InferenceServer`` serving the same trace alone.

    The workload is sized so concentration is *structural*, not luck:
    four tenants with four distinct hot shapes, against replicas whose
    specialized-executable cache holds only ``max_executables`` (< 4)
    entries. Affinity routing pins each hot shape to one replica, so
    every replica's cache fits its share; random placement makes every
    replica juggle all four shapes in a two-slot cache — eviction
    thrash the shared store cannot restore fast enough. Three tenants
    are unlimited (one with a deadline class scored in the report);
    ``bursty`` is token-bucket limited so its bursts trip admission
    control — ``rejected`` must be > 0 or the admission path went
    untested.

    Returns ``{"affinity": {...}, "random": {...}, "least_loaded":
    {...}, "warm": {...}, "gc": {...}, "summary": {...}}`` — ``warm``
    re-runs the same trace over the affinity fleet's store, ``gc``
    runs a *drifted* trace over it (hot set rotated) so the collector
    reclaims the retired shape's blob under the refcount guard.
    """
    import shutil
    import tempfile


    platform = platform_by_name(platform_name)
    weights = LSTMWeights.create(input_size, hidden_size, num_layers=1, seed=seed)
    mod = build_lstm_module(weights)
    requests = multi_tenant_traffic(
        num_requests,
        input_size=input_size,
        mean_interarrival_us=mean_interarrival_us,
        tenant_mix=(("steady", 2), ("web", 2), ("batch", 2), ("bursty", 1)),
        hot_lengths=tuple(hot_lengths),
        hot_fraction=hot_fraction,
        seed=seed,
    )
    tenants = (
        TenantSpec("steady", deadline_us=steady_deadline_us),
        TenantSpec("web"),
        TenantSpec("batch"),
        TenantSpec(
            "bursty",
            deadline_us=steady_deadline_us,
            rate_per_s=bursty_rate_per_s,
            burst=bursty_burst,
        ),
    )

    def config(artifact_dir: str) -> "ServeConfig":
        return ServeConfig(
            max_batch_size=max_batch_size,
            max_delay_us=max_delay_us,
            num_workers=num_workers,
            specialize=True,
            specialize_threshold=threshold,
            # The cache is deliberately smaller than the number of hot
            # shapes in the trace — the pressure that makes placement
            # policy matter (see the docstring).
            specialize_max_executables=max_executables,
            specialize_compile_lanes=compile_lanes,
            # Explicit modeled compile cost, like restart_study: sized so
            # cold fleets reach a specialized steady state within this
            # trace, making hit-rate comparisons non-degenerate.
            specialize_compile_us=compile_us,
            artifact_dir=artifact_dir,
        )

    def first_specialized_hit_us(report) -> float:
        hits = [r.finish_us for r in report.responses if r.tier != "dynamic"]
        return min(hits) if hits else math.inf

    def outputs_of(report) -> Dict[int, np.ndarray]:
        return {
            r.rid: np.asarray(r.output.numpy()) for r in report.responses
        }

    def run_fleet(
        artifact_dir: str, routing: str, replicas: int, trace=None
    ):
        """One fresh fleet + a replay; returns (report, deterministic)."""
        trace = requests if trace is None else trace
        router = FleetRouter(
            mod,
            platform,
            config(artifact_dir),
            fleet=FleetConfig(
                num_replicas=replicas,
                routing=routing,
                gc_interval_us=gc_interval_us,
                gc_max_age_us=gc_max_age_us,
            ),
            tenants=tenants,
        )
        report = router.simulate(trace)
        replay = router.simulate(trace)
        first, second = outputs_of(report), outputs_of(replay)
        deterministic = (
            report.counters() == replay.counters()
            and set(first) == set(second)
            and all(np.array_equal(first[k], second[k]) for k in first)
        )
        return report, deterministic

    scratch: List[str] = []

    def fresh_dir() -> str:
        d = tempfile.mkdtemp(prefix="nimble-fleet-study-")
        scratch.append(d)
        return d

    try:
        affinity_dir = fresh_dir()
        affinity, affinity_det = run_fleet(affinity_dir, "affinity", num_replicas)
        random_run, random_det = run_fleet(fresh_dir(), "random", num_replicas)
        least, least_det = run_fleet(fresh_dir(), "least_loaded", num_replicas)
        # The warm fleet: a NEW router (fresh replicas, fresh kernel
        # cache objects) over the store the affinity fleet filled.
        warm, warm_det = run_fleet(affinity_dir, "affinity", num_replicas)
        # The GC fleet: same populated store, but the traffic's hot set
        # has drifted (the first hot shape retired, a new one arrived).
        # Yesterday's blob for the retired shape is never re-hot —
        # age-pruned at the first collection — while every re-hot blob
        # is restored and then refcount-guarded. This is the
        # steady-state compaction story a long-lived store needs.
        drifted = multi_tenant_traffic(
            num_requests,
            input_size=input_size,
            mean_interarrival_us=mean_interarrival_us,
            tenant_mix=(("steady", 2), ("web", 2), ("batch", 2), ("bursty", 1)),
            hot_lengths=tuple(hot_lengths[1:]) + (hot_lengths[0] + 64,),
            hot_fraction=hot_fraction,
            seed=seed + 1,
        )
        gc_run, gc_det = run_fleet(
            affinity_dir, "affinity", num_replicas, trace=drifted
        )
        # Replica-count sweep (claim 3), each against its own store.
        sweep_det = True
        single = InferenceServer(mod, platform, config(fresh_dir()))
        single_outputs = outputs_of(single.simulate(requests))
        single_match = True
        for count in replica_counts:
            report, det = run_fleet(fresh_dir(), "affinity", count)
            sweep_det = sweep_det and det
            fleet_outputs = outputs_of(report)
            # Every request the fleet served must compute bitwise the
            # same result the lone server computed for that rid —
            # placement, batching, and tier must never change outputs.
            single_match = single_match and all(
                np.array_equal(out, single_outputs[rid])
                for rid, out in fleet_outputs.items()
            )
    finally:
        for d in scratch:
            shutil.rmtree(d, ignore_errors=True)

    def row(report, deterministic: bool) -> Dict[str, float]:
        return {
            "admitted": float(report.admitted),
            "rejected": float(report.rejected),
            "affinity_rate": report.affinity_rate,
            "specialized_hit_rate": report.specialized_hit_rate,
            "compile_charge_us": report.specialize_compile_us,
            "fleet_restores": float(report.total_fleet_restores),
            "store_rejects": float(report.store_rejects),
            "gc_pruned": float(report.gc_pruned),
            "gc_kept_referenced": float(report.gc_kept_referenced),
            "first_specialized_hit_us": first_specialized_hit_us(report),
            "p50_us": report.responses
            and percentile([r.latency_us for r in report.responses], 50.0)
            or 0.0,
            "p99_us": report.responses
            and percentile([r.latency_us for r in report.responses], 99.0)
            or 0.0,
            "slo_attainment_steady": report.tenants["steady"].slo_attainment,
            "slo_attainment_bursty": report.tenants["bursty"].slo_attainment,
            "deterministic": float(deterministic),
        }

    cold_first = first_specialized_hit_us(affinity)
    warm_first = first_specialized_hit_us(warm)
    return {
        "affinity": row(affinity, affinity_det),
        "random": row(random_run, random_det),
        "least_loaded": row(least, least_det),
        "warm": row(warm, warm_det),
        "gc": row(gc_run, gc_det),
        "summary": {
            "affinity_random_hit_ratio": (
                affinity.specialized_hit_rate
                / max(1e-9, random_run.specialized_hit_rate)
            ),
            "affinity_random_charge_ratio": (
                affinity.specialize_compile_us
                / max(1e-9, random_run.specialize_compile_us)
            ),
            "warm_first_hit_speedup": (
                1.0 if cold_first == warm_first else cold_first / warm_first
            ),
            "warm_earlier": float(warm_first < cold_first),
            "admission_tripped": float(random_run.rejected > 0
                                       and affinity.rejected > 0),
            "replica_sweep_deterministic": float(sweep_det),
            "single_server_match": float(single_match),
            # The drifted-traffic run reclaimed the retired shape's
            # blob while the refcount guard held every live one.
            "gc_exercised": float(
                gc_run.gc_pruned > 0
                and gc_run.gc_kept_referenced > 0
                and gc_run.store_rejects == 0
            ),
            "deterministic": float(
                affinity_det and random_det and least_det and warm_det
                and gc_det
            ),
        },
    }


# ---------------------------------------------------------------------------
# Multi-stream scheduling study
# ---------------------------------------------------------------------------


def stream_study(
    stream_counts: Sequence[int] = (1, 2, 4),
    platform_name: str = "nvidia",
    bert_config: Optional[BertConfig] = None,
    single_seq_len: int = 64,
    pipeline_lengths: Sequence[int] = (
        48, 32, 24, 16, 56, 40, 8, 64, 48, 32, 24, 16, 56, 40, 8, 64,
    ),
    numerics: str = "lite",
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Modeled multi-stream speedup from the AOT kernel schedule.

    Two workloads on BERT, both compiled once per stream count with the
    static scheduler (``CompilerOptions.device_streams``):

    * **single** — one inference at ``single_seq_len``: the q/k/v
      projections and other independent kernels inside each layer spread
      across streams, bounded by the attention critical path.
    * **pipeline** — a ragged-tail batch run member-wise with
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
    config = bert_config or BertConfig()
    weights = BertWeights.create(config, seed=seed)
    mod = build_bert_module(weights)
    platform = platform_by_name(platform_name)
    rng = np.random.RandomState(seed + 11)
    x_single = (rng.randn(single_seq_len, config.hidden) * 0.1).astype(np.float32)
    members = [
        (rng.randn(length, config.hidden) * 0.1).astype(np.float32)
        for length in pipeline_lengths
    ]
    kernel_cache = KernelCache()

    def run_once(exe):
        """(single_us, pipeline_us, single_out, pipeline_outs, profile)."""
        streams = max(1, exe.device_streams)
        ctx = ExecutionContext(platform, numerics=numerics)
        vm = VirtualMachine(exe, ctx)
        single_out = vm.run(x_single)
        single_us = ctx.elapsed_us
        ctx2 = ExecutionContext(platform, numerics=numerics)
        vm2 = VirtualMachine(exe, ctx2)
        start = ctx2.elapsed_us
        outs = [
            vm2.run(m, sync=False, stream_offset=i % streams)
            for i, m in enumerate(members)
        ]
        ctx2.clock.sync_all()
        return single_us, ctx2.elapsed_us - start, single_out, outs, vm2.profile

    results: Dict[str, Dict[str, float]] = {}
    baseline = None
    bit_identical = True
    deterministic = True
    for count in stream_counts:
        exe, _ = nimble.build(
            mod, platform,
            options=CompilerOptions(device_streams=count),
            kernel_cache=kernel_cache,
        )
        single_us, pipeline_us, single_out, outs, profile = run_once(exe)
        replay = run_once(exe)
        deterministic = deterministic and (
            replay[0] == single_us and replay[1] == pipeline_us
        )
        if baseline is None:
            baseline = (single_us, pipeline_us, single_out, outs)
        else:
            bit_identical = bit_identical and np.array_equal(
                single_out.numpy(), baseline[2].numpy()
            )
            bit_identical = bit_identical and all(
                np.array_equal(a.numpy(), b.numpy())
                for a, b in zip(outs, baseline[3])
            )
        busy = profile.stream_kernel_us
        total_busy = sum(busy.values())
        results[f"streams={count}"] = {
            "streams": float(exe.device_streams),
            "single_us": single_us,
            "pipeline_us": pipeline_us,
            "single_speedup": baseline[0] / single_us,
            "pipeline_speedup": baseline[1] / pipeline_us,
            "sync_events": float(profile.sync_events),
            "sync_waits": float(profile.sync_waits),
            "sync_stall_us": profile.sync_stall_us,
            "streams_busy": float(len(busy)),
            "busiest_stream_share": (
                max(busy.values()) / total_busy if total_busy else 0.0
            ),
        }
    best_single = max(r["single_speedup"] for r in results.values())
    best_pipeline = max(r["pipeline_speedup"] for r in results.values())
    results["summary"] = {
        "best_single_speedup": best_single,
        "best_pipeline_speedup": best_pipeline,
        "bit_identical": float(bit_identical),
        "deterministic": float(deterministic),
    }
    return results


# ---------------------------------------------------------------------------
# §4.5 symbolic tuning ablation
# ---------------------------------------------------------------------------


def tuning_ablation(
    platform_name: str = "arm",
    n_out: int = 768,
    k_in: int = 768,
    eval_shapes: Sequence[int] = tuple(2**i for i in range(0, 9)),
) -> Dict[str, float]:
    """How well the cross-shape-tuned config does vs per-shape oracle tuning
    and vs naively using the shape-64 winner."""
    from repro.codegen.tuner import AutoTuner
    from repro.ir import Any, Constant, Function, TensorType, Var
    from repro.ops import api
    from repro.tensor.ndarray import array as make_array

    platform = platform_by_name(platform_name)
    spec = platform.compute_spec
    rng = np.random.RandomState(0)
    w = (rng.randn(n_out, k_in) * 0.02).astype(np.float32)
    x = Var("x", TensorType((Any(), k_in), "float32"))
    prim = Function(
        [x], api.dense(x, Constant(make_array(w))),
        TensorType((Any(), n_out), "float32"), {"primitive": True},
    )

    tuner = AutoTuner(prim, platform, spec, seed=3)
    records = tuner.tune(64, n_trials=96)
    naive = records[0].schedule  # shape-64 winner, applied everywhere

    sym = SymbolicTuner(prim, platform, spec, seed=3)
    chosen = sym.tune(n_trials=96)

    def total(schedule) -> float:
        return sum(tuner.measure(schedule, m) for m in eval_shapes)

    oracle = 0.0
    for m in eval_shapes:
        per_shape = AutoTuner(prim, platform, spec, seed=3)
        oracle += per_shape.tune(m, n_trials=96)[0].cost_us

    return {
        "naive_us": total(naive),
        "symbolic_workflow_us": total(chosen),
        "oracle_us": oracle,
        "workflow_vs_oracle": total(chosen) / max(1e-9, oracle),
        "naive_vs_oracle": total(naive) / max(1e-9, oracle),
    }
