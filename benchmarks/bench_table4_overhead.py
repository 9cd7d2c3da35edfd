"""Table 4: VM overhead vs static TVM on BERT (sequence length 128)."""

import pytest

from repro.harness import format_table, table4_overhead
from repro.harness.paper import TABLE4_OVERHEAD as PAPER


@pytest.mark.paper
def test_table4_overhead(modeled):
    results = modeled("table4_overhead", table4_overhead)
    rows = []
    for platform in ("intel", "arm", "nvidia"):
        m = results[platform]
        p = PAPER[platform]
        rows.append(
            [platform, m["tvm_ms"], m["nimble_ms"], m["kernel_ms"], m["others_ms"],
             p["tvm_ms"], p["nimble_ms"], p["kernel_ms"], p["others_ms"]]
        )
    print()
    print(
        format_table(
            "Table 4 — BERT seq-128 latency, ms (measured | paper)",
            rows,
            ["platform", "tvm", "nimble", "kernel", "others",
             "p:tvm", "p:nimble", "p:kernel", "p:others"],
            floatfmt="{:.2f}",
        )
    )
    # `others` part by part, each beside the count that produced it. On
    # the CPUs the kernels and the parts are the whole inference; on the
    # GPU the parts are host charges that overlap the kernels, so they
    # add up to more than `others`, which is elapsed minus device busy.
    parts = [("dispatch_ms", "instructions"), ("shape_func_ms", "shape_funcs"),
             ("alloc_ms", "alloc_storages"), ("copy_ms", "copies"), ("sync_ms", None)]
    print(
        format_table(
            "Table 4 — Nimble's others, ms (count)",
            [[platform, results[platform]["others_ms"]]
             + [f"{results[platform][ms]:.3f}"
                + (f" ({results[platform][count]})" if count else "") for ms, count in parts]
             for platform in ("intel", "arm", "nvidia")],
            ["platform", "others", "dispatch", "shape funcs", "alloc", "copies", "sync"],
            floatfmt="{:.3f}",
        )
    )
    for platform in ("intel", "arm"):
        m = results[platform]
        assert m["kernel_ms"] + sum(m[ms] for ms, _ in parts) == pytest.approx(
            m["nimble_ms"], rel=1e-9)
    for platform in ("intel", "arm"):
        m = results[platform]
        overhead = m["nimble_ms"] / m["tvm_ms"] - 1.0
        # Paper: TVM static is 5%-25% faster than Nimble on CPUs.
        assert 0.02 < overhead < 0.30, (platform, overhead)
    # On the GPU the overhead nearly vanishes (overlap, §6.3).
    nv = results["nvidia"]
    assert nv["nimble_ms"] / nv["tvm_ms"] - 1.0 < 0.05
    assert nv["others_ms"] < 0.15
