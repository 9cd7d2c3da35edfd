"""CI verification sweep: every workload artifact verifies clean.

Builds the paper's three dynamic workloads (LSTM, BERT, TreeLSTM) at
one and four device streams, plus the shape-specialized BERT variant
that actually carries a multi-stream schedule, and runs the full static
verifier (`repro.analysis.verify_executable` — bytecode, races,
lifetimes) over each. The bar is **zero error findings** on every
artifact: a scheduler or memory-planner regression that emits racy or
ill-formed bytecode turns this step red even if no functional test
happens to hit the broken path.

A second leg sends the LSTM's dynamic build, two specialized variants
and the staged prefix through an `ArtifactStore`: the four blobs must
name exactly one weight chunk, every name must resolve to a file, and
every executable restored through the store must verify clean too.

Run under pytest (the CI `verify-artifacts` step) or directly
(`PYTHONPATH=src python benchmarks/verify_artifacts.py`); both exit
nonzero on any finding.
"""

import sys

import pytest

import repro.nimble as nimble
from repro.analysis import verify_executable
from repro.harness import format_table
from repro.hardware.platforms import nvidia_gpu
from repro.models.bert import BertConfig, BertWeights, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module
from repro.models.tree_lstm import TreeLSTMWeights, build_tree_lstm_module
from repro.vm.compiler import CompilerOptions

STREAM_COUNTS = (1, 4)


def _workloads():
    bert_cfg = BertConfig(hidden=64, num_heads=4, num_layers=2, ffn=128)
    return [
        ("lstm", build_lstm_module(LSTMWeights.create(16, 32, 1))),
        ("bert", build_bert_module(BertWeights.create(bert_cfg, seed=0))),
        (
            "tree_lstm",
            build_tree_lstm_module(TreeLSTMWeights.create(16, 24, seed=0)),
        ),
    ]


def sweep():
    """(rows, failures): one row per artifact, one failure per finding."""
    rows, failures = [], []

    def record(name, exe):
        findings = verify_executable(exe)
        errors = [f for f in findings if f.severity == "error"]
        warnings = [f for f in findings if f.severity == "warning"]
        rows.append([
            name,
            float(exe.device_streams),
            float(exe.num_events),
            float(exe.num_instructions),
            float(len(errors)),
            float(len(warnings)),
        ])
        failures.extend(f"{name}: {f}" for f in errors)

    for model, mod in _workloads():
        for streams in STREAM_COUNTS:
            # The compiler's own gate stays off so a broken artifact
            # reaches the sweep and is *reported*, not thrown past.
            opts = CompilerOptions(device_streams=streams, verify=False)
            exe, _ = nimble.build(mod, nvidia_gpu(), options=opts)
            record(f"{model} s{streams}", exe)
    # The one build in the zoo with a real multi-stream schedule.
    bert_cfg = BertConfig(hidden=64, num_heads=4, num_layers=2, ffn=128)
    spec, _ = nimble.specialize(
        build_bert_module(BertWeights.create(bert_cfg, seed=0)),
        nvidia_gpu(),
        shapes=[(8, 64)],
        options=CompilerOptions(device_streams=4, verify=False),
    )
    record("bert specialized s4", spec)
    return rows, failures


def store_sweep(root):
    """(blobs, chunk names, failures) of the LSTM's store round trip."""
    from repro.hardware.platforms import intel_cpu
    from repro.store import ArtifactStore

    mod = build_lstm_module(LSTMWeights.create(16, 32, 1))
    prefix = nimble.build_prefix(mod, intel_cpu())
    store = ArtifactStore(root)
    keys = [store.put(nimble.build(mod, intel_cpu())[0])]
    for length in (5, 9):
        exe, _ = nimble.specialize(mod, intel_cpu(), shapes=[(length, 16)], prefix=prefix)
        keys.append(store.put(exe))
    blobs = [("prefix", store.put_prefix(prefix))] + [("exe", key) for key in keys]
    # Another instance, as a restarted process reads: verify stays on.
    store = ArtifactStore(root)
    failures = [
        f"{kind} {key[:12]} names {name[:12]}, not on disk"
        for kind, key in blobs
        for name in store.chunk_refs(kind, key)
        if name not in store.chunk_names()
    ]
    for key in keys:
        exe = store.get(key)
        errors = [] if exe is None else [
            f for f in verify_executable(exe) if f.severity == "error"
        ]
        failures.extend(f"restored {key[:12]}: {f}" for f in errors)
    failures.extend(f"rejected {key[:12]}: {why}" for key, why in store.reject_log)
    if store.get_prefix(blobs[0][1]) is None:
        failures.append("prefix did not restore")
    return blobs, store.chunk_names(), failures


@pytest.mark.paper
def test_store_round_trip_has_one_weight_chunk_and_verifies(tmp_path):
    blobs, chunks, failures = store_sweep(tmp_path)
    print(f"\nstore leg: {len(blobs)} blobs name {len(chunks)} chunk(s)")
    assert not failures, "store failures:\n" + "\n".join(failures)
    assert len(chunks) == 1


@pytest.mark.paper
def test_all_artifacts_verify_clean():
    rows, failures = sweep()
    print()
    print(
        format_table(
            "Static verification sweep (zero errors required)",
            rows,
            ["artifact", "streams", "events", "instrs", "errors", "warnings"],
        )
    )
    assert not failures, "verification failures:\n" + "\n".join(failures)
    # The sweep must include at least one genuinely scheduled artifact,
    # or a scheduler regression could hide behind event-free builds.
    assert any(row[2] > 0 for row in rows)


if __name__ == "__main__":
    import tempfile

    test_rows, test_failures = sweep()
    with tempfile.TemporaryDirectory() as scratch:
        test_failures += store_sweep(scratch)[2]
    for line in test_failures:
        print(f"FAIL {line}", file=sys.stderr)
    sys.exit(1 if test_failures else 0)
