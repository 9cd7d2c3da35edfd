"""Multi-stream scheduling: modeled speedup, bit-identity, determinism.

Not a paper table — this extends the reproduction with the AOT kernel
dependency graph + static multi-stream schedule. The study
(``harness.stream_study``) compiles BERT once per stream count and runs
two workloads on the virtual clock:

- **single** — one inference: the independent kernels inside each layer
  (q/k/v projections, per-layer parallelism) spread across streams,
  bounded by the attention critical path;
- **pipeline** — a ragged-tail batch run member-wise with the stream
  offset rotated per member (what the serving worker does), overlapping
  successive members' device work on top of the intra-member schedule.

CI runs this file and fails on any assertion:

- the member pipeline is at least **1.3x** faster than single-stream at
  the best stream count, and the single inference at least 1.15x;
- a ``device_streams=1`` build is byte-identical to a default build —
  the scheduler being *off* is exactly the pre-streams compiler;
- outputs are bitwise identical across every stream count (the schedule
  moves modeled device time, never numerics) and every configuration
  replays with bit-equal latency.
"""

import pytest

import repro.nimble as nimble
from repro.harness import format_table, stream_study
from repro.hardware.platforms import nvidia_gpu
from repro.models.bert import BertWeights, build_bert_module
from repro.vm.compiler import CompilerOptions

STREAM_COUNTS = (1, 2, 4)

ROW_METRICS = (
    "single_us",
    "single_speedup",
    "pipeline_us",
    "pipeline_speedup",
    "sync_events",
    "sync_waits",
    "streams_busy",
    "busiest_stream_share",
)


@pytest.mark.paper
def test_stream_scheduling(modeled):
    results = modeled(
        "stream_study", lambda: stream_study(stream_counts=STREAM_COUNTS)
    )
    rows = [results[f"streams={n}"] for n in STREAM_COUNTS]
    summary = results["summary"]
    print()
    print(
        format_table(
            "Static multi-stream schedule on BERT (virtual µs)",
            [[m] + [row[m] for row in rows] for m in ROW_METRICS],
            ["metric"] + [f"streams={n}" for n in STREAM_COUNTS],
        )
    )
    print(
        f"best single speedup {summary['best_single_speedup']:.3f}x, "
        f"best pipeline speedup {summary['best_pipeline_speedup']:.3f}x, "
        f"bit_identical={bool(summary['bit_identical'])}, "
        f"deterministic={bool(summary['deterministic'])}"
    )
    # Headline: the static schedule buys real modeled overlap — the
    # ragged-tail member pipeline runs >= 1.3x faster than single-stream,
    # and even one inference gains >= 1.15x from intra-layer parallelism.
    assert summary["best_pipeline_speedup"] >= 1.30
    assert summary["best_single_speedup"] >= 1.15
    # More streams never lose to single-stream on either workload.
    for row in rows[1:]:
        assert row["single_speedup"] > 1.0
        assert row["pipeline_speedup"] > 1.0
        # The schedule actually spread work: every stream ran kernels and
        # no stream monopolized the device.
        assert row["streams_busy"] == row["streams"]
        assert row["busiest_stream_share"] < 0.9
    # The scheduler never changes what is computed, and the whole
    # simulation replays bit-for-bit at every stream count.
    assert summary["bit_identical"] == 1.0
    assert summary["deterministic"] == 1.0


@pytest.mark.paper
def test_single_stream_build_is_prestream_build():
    """``device_streams=1`` must be the identity: the same content hash,
    the exact instruction stream, and the same modeled latency as a build
    that never heard of streams. (Raw ``save()`` bytes are not compared —
    the pickled shape-function section has never been byte-stable across
    builds in one process; ``content_hash`` is the canonical identity.)"""
    import numpy as np

    from repro.models.bert import BertConfig
    from repro.runtime.context import ExecutionContext
    from repro.vm.interpreter import VirtualMachine

    config = BertConfig(hidden=64, num_heads=4, num_layers=2, ffn=128)
    weights = BertWeights.create(config, seed=0)
    mod = build_bert_module(weights)
    platform = nvidia_gpu()
    default_exe, _ = nimble.build(mod, platform)
    one_exe, _ = nimble.build(
        mod, platform, options=CompilerOptions(device_streams=1)
    )
    assert default_exe.device_streams == 1
    assert one_exe.device_streams == 1
    assert one_exe.num_events == 0
    assert default_exe.content_hash() == one_exe.content_hash()
    assert default_exe.functions == one_exe.functions

    x = (np.arange(32 * config.hidden, dtype=np.float32) % 7).reshape(
        32, config.hidden
    ) * 0.01
    results = []
    for exe in (default_exe, one_exe):
        ctx = ExecutionContext(platform, numerics="lite")
        out = VirtualMachine(exe, ctx).run(x)
        results.append((ctx.elapsed_us, out.numpy()))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
