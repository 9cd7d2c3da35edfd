"""The four workloads of the repo benchmark.

Every size, rate and limit lives in ``SIZES`` below and nowhere else.
A workload is a class with the same five steps, which ``bench.harness``
drives and times:

``setup``         build what the timed passes start from (``setup_s``)
``prepare_pass``  untimed per-pass housekeeping (fresh or copied
                  artifact directories)
``run_pass``      the timed region: identical work every pass
``check``         untimed, once: compare outputs with references the
                  compiler did not produce, using the last pass's live
                  objects, and complete the *first* pass's result with
                  whatever the virtual metrics need from outside the
                  timed region. The first pass is the one reported: it
                  starts from the same state in every process, however
                  many passes the time allows (``Any`` tokens are a
                  process-global counter, so a later pass's pickled
                  kernels can be a few bytes longer)
``close``         remove what the workload left on disk

The program under test only ever sees the generated inputs. What
``--seed`` changes: every weight and payload *value*, the shuffled order
and the within-stratum draw of sentence lengths and tree sizes, and a
sub-microsecond jitter on serving arrival times. What it does not
change: the shape *mix* — the length and tree-size distributions are
sampled one value per quantile stratum, and the serving traces take
their arrival pattern and hot/tail shape sequence from the repo's
generators at ``TRACE_SEED``. Modeled latency depends on shapes and
arrival times, never on tensor values; redrawing the pattern per seed
moves the open-loop p90 by ±30%, which would make medians across seeds
useless as a referee. The virtual metrics therefore move by well under
1% from seed to seed and are bit-equal for one seed.
"""

from __future__ import annotations

import hashlib
import inspect
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.analysis as analysis
import repro.nimble as nimble
from repro.codegen.kernels import KernelCache
from repro.data import Tree, embedding_table
from repro.data import mrpc, sst
from repro.fleet import FleetConfig, FleetRouter, TenantSpec
from repro.hardware import intel_cpu, nvidia_gpu
from repro.models.bert import BertConfig, BertWeights, bert_reference, build_bert_module
from repro.models.lstm import LSTMWeights, build_lstm_module, lstm_reference
from repro.models.tree_lstm import (
    TreeLSTMWeights,
    build_tree_lstm_module,
    tree_lstm_reference,
    tree_to_adt,
)
from repro.runtime.context import ExecutionContext
from repro.serve import (
    InferenceServer,
    Request,
    ServeConfig,
    long_tailed_traffic,
    multi_tenant_traffic,
)
from repro.vm.executable import Executable
from repro.vm.profiler import VMProfile

# --------------------------------------------------------------------- sizes
#
# ISSUE 12 sized the workloads for ~2 min of timed passes; the driver
# allows 92 whole runs in 3420 s, so a run (set-up three times, timed
# passes, check) has to fit in ~25 s. What was cut, in the order the
# issue prescribes: passes to 3-4 of ~2-5 s; then op counts to half
# (vm_single 288 -> 144 ops, fleet_restart 200 -> 100 base requests).
# Two things could not be halved and were reshaped instead (measurements
# in bench/README.md): BERT is 256 wide with 4 heads and 6 layers, not
# BERT-base (12 layers cost 2.5 s of MemoryPlan per build, and 768-wide
# weights make 100+ MB blobs whose save/load time was bimodal);
# serve_tiered keeps all 192 requests per rate (a shorter trace ends
# before throughput can be told from the offered rate) but times only
# the nominal rate, the others being replayed once, untimed, because
# their numbers are virtual and exact.

SIZES = {
    "bench": dict(
        lstm=dict(input_size=300, hidden_size=512, num_layers=2),
        tree=dict(input_size=300, hidden_size=150),
        bert=dict(hidden=256, num_heads=4, num_layers=6, ffn=1024),
        compile=dict(lstm_variants=4, batch=4, bert_length=32, gpu_streams=4, probes=8),
        vm=dict(lstm=32, lstm_static=16, trees=48, bert=32, bert_static=16,
                static_length=20, warm_up=4, checked=8),
        serve=dict(requests=192, input_size=64, hidden_size=128,
                   hot_lengths=(9, 25, 41), tail_max=64),
        fleet=dict(requests=100, replicas=4, input_size=16, hidden_size=16,
                   hot_lengths=(9, 25, 41, 57), tail_max=64),
        min_passes=3,
        setup_repeats=3,
    ),
    # bench/test_smoke.py: the same code paths in a few seconds.
    "smoke": dict(
        lstm=dict(input_size=12, hidden_size=16, num_layers=1),
        tree=dict(input_size=12, hidden_size=8),
        bert=dict(hidden=24, num_heads=3, num_layers=1, ffn=48),
        compile=dict(lstm_variants=2, batch=2, bert_length=12, gpu_streams=4, probes=2),
        vm=dict(lstm=2, lstm_static=1, trees=2, bert=2, bert_static=1,
                static_length=10, warm_up=1, checked=1),
        serve=dict(requests=24, input_size=8, hidden_size=8,
                   hot_lengths=(5, 7, 9), tail_max=10),
        fleet=dict(requests=28, replicas=2, input_size=8, hidden_size=8,
                   hot_lengths=(5, 7, 9, 11), tail_max=12),
        min_passes=1,
        setup_repeats=1,
    ),
}

# The arrival pattern and shape sequence of both serving traces.
TRACE_SEED = 0

# serve_tiered: mean gaps of the three offered rates, and the limit.
SERVE_GAPS_US = {"low": 3200.0, "nominal": 1600.0, "high": 800.0}
SERVE_SLO_US = 20_000.0
SERVE_SLO_SHARE = 0.90        # of *sent* requests inside the limit
SERVE_KEEPS_UP_SHARE = 0.95   # served throughput / offered rate

# fleet_restart: the tenant deadline is also the goodput limit.
FLEET_DEADLINE_US = 60_000.0

# Closed-loop goodput limits per model: 1.5x the per-model p90 modeled
# latency of vm_single at seed 0 on the commit that added the benchmark,
# frozen here so a later slowdown shows as lost goodput.
MODEL_SLO_US = {
    "bench": {"lstm": 4500.0, "tree_lstm": 1370.0, "bert": 1750.0},
    "smoke": {"lstm": 1e9, "tree_lstm": 1e9, "bert": 1e9},
}

# Outputs compared with NumPy references: the issue's tolerance.
RTOL, ATOL = 1e-4, 1e-5


# ------------------------------------------------------------------- results


@dataclass
class PassResult:
    """What one timed pass produced. ``ops`` are the operations whose
    modeled latency the end-to-end metrics describe: ``(id, tier,
    latency_us)``. ``facts`` are per-layer numbers read from the public
    report objects (VMProfile, AllocStats, ServeReport, FleetReport)."""

    attempted: int
    ops: List[Tuple[str, str, float]] = field(default_factory=list)
    raised: int = 0
    refused: int = 0
    slo_met: int = 0
    # How many ops the limit was applied to; ``attempted`` unless the
    # modeled ops are not the timed ones (compile_cold's probes).
    slo_of: Optional[int] = None
    modeled_throughput_rps: float = 0.0
    artifact_bytes: int = 0
    facts: Dict[str, float] = field(default_factory=dict)
    # Whatever ``check`` needs from the pass (reports, executables);
    # the harness drops it from every pass but the last.
    payload: object = None

    def virtual_view(self):
        """Everything about the pass that must repeat bit for bit."""
        return (self.attempted, self.raised, self.refused, self.slo_met,
                self.modeled_throughput_rps, tuple(self.ops))


@dataclass
class Check:
    compared: int = 0
    mismatches: int = 0
    messages: List[str] = field(default_factory=list)
    # op id -> output bytes, for the ops whose outputs were computed in
    # full numerics; folded into ``modeled_digest``.
    outputs: Dict[str, bytes] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.compared += 1
        if not ok:
            self.mismatches += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def modeled_digest(result: PassResult, check: Check) -> str:
    """sha256 over (op id, tier, latency_us, output bytes) of every op."""
    h = hashlib.sha256()
    for op, tier, latency in result.ops:
        h.update(repr((op, tier, float(latency).hex())).encode())
        h.update(check.outputs.get(op, b""))
    return h.hexdigest()


# ------------------------------------------------------------------- helpers


def make(factory: Callable, notes: List[str], **wanted):
    """Call *factory* with the options it still has. The ROADMAP plans
    to delete knobs whose proven-better value becomes the only path
    (``specialize_staged``, ...); an option the constructor no longer
    takes is dropped and listed in the result file's ``notes`` instead
    of breaking the benchmark."""
    params = inspect.signature(factory).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return factory(**wanted)
    dropped = sorted(set(wanted) - set(params))
    if dropped:
        note = f"{factory.__name__} no longer takes {', '.join(dropped)}"
        if note not in notes:
            notes.append(note)
    return factory(**{k: v for k, v in wanted.items() if k in params})


def stratified(n: int, rng, mean: float, std: float, lo: int, hi: int,
               width: float = 1.0) -> List[int]:
    """*n* draws from the clipped normal the repo's MRPC/SST generators
    use, one per quantile stratum (so the multiset barely moves between
    seeds), in seeded random order. ``width`` < 1 draws from the middle
    of each stratum only."""
    dist = statistics.NormalDist(mean, std)
    quantiles = (np.arange(n) + 0.5 + width * (rng.uniform(size=n) - 0.5)) / n
    values = [int(min(hi, max(lo, round(dist.inv_cdf(q))))) for q in quantiles]
    rng.shuffle(values)
    return values


def sentence_lengths(n: int, rng, width: float = 1.0) -> List[int]:
    return stratified(n, rng, mrpc.MEAN_LENGTH, mrpc.STD_LENGTH,
                      mrpc.MIN_LENGTH, mrpc.MAX_LENGTH, width)


def sentences(lengths: Sequence[int], dim: int, rng) -> List[np.ndarray]:
    return [(rng.randn(length, dim) * 0.1).astype(np.float32) for length in lengths]


def random_tree(tokens: List[int], rng) -> Tree:
    """A seeded random binary bracketing over *tokens*."""
    if len(tokens) == 1:
        return Tree.leaf(tokens[0])
    split = int(rng.randint(1, len(tokens)))
    return Tree.node(random_tree(tokens[:split], rng), random_tree(tokens[split:], rng))


def trees(n: int, vocab: int, rng) -> List[Tree]:
    sizes = stratified(n, rng, sst.MEAN_LEAVES, sst.STD_LEAVES,
                       sst.MIN_LEAVES, sst.MAX_LEAVES)
    return [random_tree(rng.randint(0, vocab, size=k).tolist(), rng) for k in sizes]


def reseed_trace(trace: Sequence[Request], rng) -> List[Request]:
    """Keep a generated trace's pattern (rid, tenant, shape, arrival
    order); redraw every payload value and move each arrival by less
    than a microsecond."""
    return [
        Request(
            rid=r.rid,
            arrival_us=r.arrival_us + float(rng.uniform(0.0, 0.5)),
            payload=(rng.randn(*r.payload.shape) * 0.1).astype(np.float32),
            tenant=r.tenant,
        )
        for r in trace
    ]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def as_bytes(output) -> bytes:
    if isinstance(output, tuple):
        return b"".join(as_bytes(o) for o in output)
    return np.ascontiguousarray(output.numpy()).tobytes()


# Every per-layer number that comes from a public report object rather
# than from the trace; a workload that does not touch a layer reads 0.
FACT_NAMES = (
    "vm.interpreter.instructions",
    "vm.interpreter.kernel_invocations",
    "vm.interpreter.modeled_dispatch_us",
    "vm.interpreter.modeled_kernel_us",
    "vm.interpreter.modeled_shape_func_us",
    "vm.interpreter.modeled_alloc_us",
    "vm.interpreter.modeled_copy_us",
    "vm.interpreter.modeled_sync_stall_us",
    "vm.interpreter.lstm.wall_s",
    "vm.interpreter.lstm.us_per_token",
    "vm.interpreter.tree_lstm.wall_s",
    "vm.interpreter.tree_lstm.us_per_token",
    "vm.interpreter.bert.wall_s",
    "vm.interpreter.bert.us_per_token",
    "runtime.allocator.allocs",
    "runtime.allocator.pool_hit_share",
    "runtime.allocator.peak_bytes",
    "serve.batcher.batches",
    "serve.batcher.mean_batch_size",
    "serve.batcher.modeled_queue_p50_us",
    "serve.batcher.modeled_queue_p90_us",
    "serve.worker.modeled_utilization",
    "serve.specialization.hit_share",
    "serve.specialization.batched_hit_share",
    "serve.specialization.variants_compiled",
    "serve.specialization.variants_restored",
    "serve.specialization.evictions",
    "serve.specialization.guard_deopts",
    "serve.specialization.modeled_compile_us",
    "serve.specialization.modeled_queue_wait_p50_us",
    "serve.load.low.p50_us",
    "serve.load.low.p90_us",
    "serve.load.low.goodput_share",
    "serve.load.high.p50_us",
    "serve.load.high.p90_us",
    "serve.load.high.goodput_share",
    "serve.slo_max_rate_rps",
    "store.rejects",
    "store.gc.pruned",
    "fleet.admitted",
    "fleet.rejected",
    "fleet.affinity_share",
    "fleet.restores",
    "fleet.routed_imbalance",
)


def profile_facts(profile: VMProfile) -> Dict[str, float]:
    return {
        "vm.interpreter.instructions": float(sum(profile.instruction_counts.values())),
        "vm.interpreter.kernel_invocations": float(profile.kernel_invocations),
        "vm.interpreter.modeled_dispatch_us": profile.dispatch_time_us,
        "vm.interpreter.modeled_kernel_us": profile.kernel_time_us,
        "vm.interpreter.modeled_shape_func_us": profile.shape_func_time_us,
        "vm.interpreter.modeled_alloc_us": profile.alloc_time_us,
        "vm.interpreter.modeled_copy_us": profile.copy_time_us,
        "vm.interpreter.modeled_sync_stall_us": profile.sync_stall_us,
    }


def allocator_facts(contexts: Sequence[ExecutionContext]) -> Dict[str, float]:
    stats = [ctx.allocator.stats for ctx in contexts]
    allocs = sum(s.total_allocs for s in stats)
    return {
        "runtime.allocator.allocs": float(allocs),
        "runtime.allocator.pool_hit_share": (
            sum(s.pooled_allocs for s in stats) / allocs if allocs else 0.0
        ),
        "runtime.allocator.peak_bytes": float(max((s.peak_bytes for s in stats), default=0)),
        "vm.interpreter.modeled_alloc_us": sum(s.alloc_time_us for s in stats),
    }


def serve_facts(reports: Sequence, workers: Sequence) -> Dict[str, float]:
    """Per-layer numbers of one simulation, from its ServeReport(s) —
    one for a lone server, one per replica for a fleet."""
    responses = [r for rep in reports for r in rep.responses]
    served = len(responses)
    batches = sum(rep.num_batches for rep in reports)
    queues = [r.queue_us for r in responses]
    waits = [w for rep in reports for w in rep.specialize_queue_waits_us]
    utilization = [u for rep in reports for u in rep.worker_utilization]
    profile = VMProfile()
    for rep in reports:
        profile.merge(rep.profile)
    facts = profile_facts(profile)
    facts.update(allocator_facts([w.ctx for w in workers]))
    facts.update({
        "serve.batcher.batches": float(batches),
        "serve.batcher.mean_batch_size": served / batches if batches else 0.0,
        "serve.batcher.modeled_queue_p50_us": percentile(queues, 50) if queues else 0.0,
        "serve.batcher.modeled_queue_p90_us": percentile(queues, 90) if queues else 0.0,
        "serve.worker.modeled_utilization": (
            sum(utilization) / len(utilization) if utilization else 0.0
        ),
        "serve.specialization.hit_share": (
            sum(rep.specialized_hits for rep in reports) / served if served else 0.0
        ),
        "serve.specialization.batched_hit_share": (
            sum(rep.batched_hits for rep in reports) / served if served else 0.0
        ),
        "serve.specialization.variants_compiled": float(
            sum(rep.specialize_fresh_compiles for rep in reports)
        ),
        "serve.specialization.variants_restored": float(
            sum(rep.specialize_restored for rep in reports)
        ),
        "serve.specialization.evictions": float(
            sum(rep.specialize_evictions for rep in reports)
        ),
        "serve.specialization.guard_deopts": float(sum(rep.guard_deopts for rep in reports)),
        "serve.specialization.modeled_compile_us": sum(
            rep.specialize_compile_us for rep in reports
        ),
        "serve.specialization.modeled_queue_wait_p50_us": (
            percentile(waits, 50) if waits else 0.0
        ),
        "store.rejects": float(sum(rep.store_rejects for rep in reports)),
    })
    return facts


class ReferenceVM:
    """The plain dynamic build of a module in full numerics: what every
    specialized, batched, restored or fleet-served output must equal
    bit for bit. One trace served at several rates carries the same
    payloads, so outputs are remembered by request id."""

    def __init__(self, mod, platform, trace: Sequence[Request]) -> None:
        exe, _ = nimble.build(mod, platform)
        self.vm = nimble.VirtualMachine(exe, ExecutionContext(platform, numerics="full"))
        self.payloads = {r.rid: r.payload for r in trace}
        self.outputs: Dict[int, bytes] = {}

    def output_bytes(self, rid: int) -> bytes:
        if rid not in self.outputs:
            self.outputs[rid] = as_bytes(self.vm.run(self.payloads[rid]))
        return self.outputs[rid]


def check_served(check: Check, reference: ReferenceVM, responses: Sequence, label: str,
                 static_every: int = 1, dynamic_every: int = 8) -> None:
    """Served outputs against the reference VM: every ``static_every``-th
    response of the static tiers and every ``dynamic_every``-th dynamic
    one. (The dynamic tier *is* the plain dynamic executable, run
    through batching and stream rotation; sampling keeps the check
    inside the time cap.)"""
    seen = {"static": 0, "dynamic": 0}
    every = {"static": static_every, "dynamic": dynamic_every}
    for response in responses:
        kind = "dynamic" if response.tier == "dynamic" else "static"
        seen[kind] += 1
        if seen[kind] % every[kind] != 1 % every[kind]:
            continue
        got = as_bytes(response.output)
        check.expect(
            got == reference.output_bytes(response.rid),
            f"{label}: rid {response.rid} ({response.tier}) differs from the dynamic VM",
        )
        check.outputs[f"{label}:{response.rid}"] = got


def check_drained(check: Check, workers: Sequence, label: str) -> None:
    for worker in workers:
        try:
            worker.ctx.allocator.assert_drained()
            leaked = None
        except MemoryError as err:
            leaked = str(err)
        check.expect(leaked is None, f"{label}: worker {worker.worker_id}: {leaked}")


# ----------------------------------------------------------------- workloads


class Workload:
    name = ""
    loop = ""

    def __init__(self, seed: int, size: str, scratch: Path, notes: List[str], gauge) -> None:
        # The harness's SpeedGauge: closed-loop workloads tick it after
        # every op so it can tell how fast the box was running.
        self.gauge = gauge
        self.seed = seed
        self.size_name = size
        self.size = SIZES[size]
        self.scratch = Path(scratch)
        self.notes = notes
        # Set by the harness for the traced pass so closed-loop ops can
        # name themselves; None otherwise.
        self.tracer = None
        # Set by the harness when per-layer metrics were asked for:
        # `check` may then spend time on numbers only they report.
        self.layers_wanted = False

    def rng(self, stream: int):
        return np.random.RandomState([self.seed, stream])

    def fresh_dir(self, prefix: str) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_pass(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, first: PassResult, last: PassResult) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _note_failure(self, what: str, err: Exception) -> None:
        self.notes.append(f"{self.name}: {what} raised {type(err).__name__}: {err}")


class _Models:
    """Weights and IR modules of the three paper models at one size."""

    def __init__(self, size: dict, seed: int) -> None:
        self.lstm_w = LSTMWeights.create(seed=seed, **size["lstm"])
        self.tree_w = TreeLSTMWeights.create(seed=seed, **size["tree"])
        self.bert_w = BertWeights.create(BertConfig(**size["bert"]), seed=seed)
        self.lstm = build_lstm_module(self.lstm_w)
        self.tree = build_tree_lstm_module(self.tree_w)
        self.bert = build_bert_module(self.bert_w)
        self.vocab = 512
        self.embeddings = embedding_table(
            vocab_size=self.vocab, dim=size["tree"]["input_size"], seed=seed
        )

    def reference(self, model: str, x):
        """The NumPy reference output for one input of *model*."""
        if model == "lstm":
            return lstm_reference(x, self.lstm_w)
        if model == "tree_lstm":
            return tree_lstm_reference(x, self.embeddings, self.tree_w)[0]
        return bert_reference(x, self.bert_w)

    def vm_input(self, model: str, x):
        return tree_to_adt(x, self.embeddings) if model == "tree_lstm" else x

    def tokens(self, model: str, x) -> int:
        return x.num_leaves() if model == "tree_lstm" else x.shape[0]


def close_to(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))


class _Runner:
    """One executable with one VM per numerics mode, for the checks."""

    def __init__(self, exe: Executable, platform) -> None:
        self.exe = exe
        self.vms = {
            mode: nimble.VirtualMachine(exe, ExecutionContext(platform, numerics=mode))
            for mode in ("full", "lite")
        }

    def run(self, mode: str, *inputs):
        out, latency = self.vms[mode].run_with_latency(*inputs)
        return out, latency


class CompileCold(Workload):
    name = "compile_cold"
    loop = "closed, 1 client; op = one compile or one save+load+verify"

    def setup(self) -> None:
        cfg = self.size["compile"]
        self.models = _Models(self.size, self.seed)
        rng = self.rng(1)
        # One specialized length from the middle of each quantile band
        # of the sentence lengths (a whole band of four is a quarter of
        # the distribution: too wide to compare seeds), kept distinct.
        self.lstm_lengths = sorted(sentence_lengths(cfg["lstm_variants"], rng, width=0.25))
        for i in range(1, len(self.lstm_lengths)):
            self.lstm_lengths[i] = max(self.lstm_lengths[i], self.lstm_lengths[i - 1] + 1)
        # Probe inputs: run after the timed passes, on the executables
        # the last pass loaded back from bytes.
        per_length = max(1, cfg["probes"] // cfg["lstm_variants"])
        lstm_dim = self.size["lstm"]["input_size"]
        self.lstm_probes = sentences(
            [length for length in self.lstm_lengths for _ in range(per_length)], lstm_dim, rng
        )
        self.tree_probes = trees(cfg["probes"], self.models.vocab, rng)
        bert_lengths = sentence_lengths(cfg["probes"], rng)
        bert_lengths[:2] = [cfg["bert_length"]] * 2
        self.bert_probes = sentences(bert_lengths, self.size["bert"]["hidden"], rng)
        self._warm_up()

    def _warm_up(self) -> None:
        """Every compiler entry point once, on toy modules, so imports
        and lazy tables are not billed to the first timed pass."""
        toy = _Models(SIZES["smoke"], self.seed)
        cache = KernelCache()
        for mod in (toy.lstm, toy.tree, toy.bert):
            exe, _ = nimble.build(mod, intel_cpu(), kernel_cache=cache)
            analysis.verify_executable(Executable.load(exe.save()))
        nimble.build(toy.bert, nvidia_gpu(), options=nimble.CompilerOptions(device_streams=2))
        prefix, _ = nimble.compile_prefix(toy.lstm, intel_cpu(), use_cache=False)
        width = SIZES["smoke"]["lstm"]["input_size"]
        nimble.specialize(toy.lstm, intel_cpu(), shapes=[(3, width)], prefix=prefix, batch=2)
        nimble.specialize(toy.bert, intel_cpu(), shapes=[(3, SIZES["smoke"]["bert"]["hidden"])])

    def _jobs(self, cache: KernelCache) -> List[Tuple[str, Callable]]:
        cfg = self.size["compile"]
        m = self.models
        cpu, gpu = intel_cpu(), nvidia_gpu()
        lstm_dim = self.size["lstm"]["input_size"]
        state: Dict[str, object] = {}

        def lstm_variant(length: int, batch: int = 1):
            if "prefix" not in state:
                state["prefix"], _ = nimble.compile_prefix(m.lstm, cpu)
            return nimble.specialize(
                m.lstm, cpu, shapes=[(length, lstm_dim)], kernel_cache=cache,
                prefix=state["prefix"], batch=batch,
            )

        jobs: List[Tuple[str, Callable]] = [
            ("lstm", lambda: nimble.build(m.lstm, cpu, kernel_cache=cache)),
            ("tree_lstm", lambda: nimble.build(m.tree, cpu, kernel_cache=cache)),
            ("bert", lambda: nimble.build(m.bert, cpu, kernel_cache=cache)),
            ("bert@gpu", lambda: nimble.build(
                m.bert, gpu, kernel_cache=cache,
                options=make(nimble.CompilerOptions, self.notes,
                             device_streams=cfg["gpu_streams"]),
            )),
        ]
        for length in self.lstm_lengths:
            jobs.append((f"lstm[{length}]", lambda length=length: lstm_variant(length)))
        jobs.append((
            f"lstm[{self.lstm_lengths[0]}]x{cfg['batch']}",
            lambda: lstm_variant(self.lstm_lengths[0], cfg["batch"]),
        ))
        jobs.append((f"bert[{cfg['bert_length']}]", lambda: nimble.specialize(
            m.bert, cpu, shapes=[(cfg["bert_length"], self.size["bert"]["hidden"])],
            kernel_cache=cache,
        )))
        return jobs

    def run_pass(self) -> PassResult:
        cache = KernelCache()
        nimble.clear_prefix_cache()
        jobs = self._jobs(cache)
        result = PassResult(attempted=2 * len(jobs))
        built: Dict[str, Executable] = {}
        for op, (name, job) in enumerate(jobs):
            if self.tracer is not None:
                self.tracer.op = op
            try:
                built[name] = job()[0]
            except Exception as err:  # one bad compile must not hide the rest
                result.raised += 2
                self._note_failure(f"compile {name}", err)
            self.gauge.tick()
        loaded: Dict[str, Executable] = {}
        for op, (name, exe) in enumerate(built.items(), start=len(jobs)):
            if self.tracer is not None:
                self.tracer.op = op
            try:
                blob = exe.save()
                result.artifact_bytes += len(blob)
                restored = Executable.load(blob)
                errors = [f for f in analysis.verify_executable(restored)
                          if f.severity == "error"]
                if errors:
                    raise RuntimeError(f"{len(errors)} verifier error(s): {errors[0]}")
                loaded[name] = restored
            except Exception as err:
                result.raised += 1
                self._note_failure(f"save/load/verify {name}", err)
            self.gauge.tick()
        result.payload = (built, loaded)
        return result

    def check(self, first: PassResult, last: PassResult) -> Check:
        """Run the probes on the executables the last pass loaded back
        from bytes. Their lite-numerics latencies become this workload's
        modeled ops: the run time of the code the compiler generated."""
        check = Check()
        cfg = self.size["compile"]
        built, loaded = last.payload
        m = self.models
        cpu, gpu = intel_cpu(), nvidia_gpu()
        limits = MODEL_SLO_US[self.size_name]
        if len(loaded) != first.attempted // 2:
            check.expect(False, "not every executable was built and loaded back")
            return check

        def probe(name: str, model: str, tier: str, inputs: Sequence, platform=cpu,
                  want: Optional[Sequence[bytes]] = None, calls: int = 1):
            """Run *inputs* on the loaded executable *name* in full and
            lite numerics; returns the full outputs as bytes."""
            runner = _Runner(loaded[name], platform)
            got = []
            for i, x in enumerate(inputs):
                op = f"{name}:{i}"
                arg = m.vm_input(model, x)
                out, full_us = runner.run("full", arg)
                _, lite_us = runner.run("lite", arg)
                check.expect(full_us == lite_us,
                             f"{op}: modeled latency {lite_us} (lite) != {full_us} (full)")
                first.ops.append((op, tier, lite_us))
                first.slo_met += lite_us <= limits[model] * calls
                got.append(as_bytes(out))
                check.outputs[op] = got[-1]
                if want is not None:
                    check.expect(got[-1] == want[i],
                                 f"{op}: differs from the dynamic executable")
                else:
                    check.expect(
                        close_to(out.numpy(), m.reference(model, x)),
                        f"{op}: not close to the NumPy reference",
                    )
            return got

        lstm_out = probe("lstm", "lstm", "dynamic", self.lstm_probes)
        per_length = len(self.lstm_probes) // len(self.lstm_lengths)
        for k, length in enumerate(self.lstm_lengths):
            rows = slice(k * per_length, (k + 1) * per_length)
            probe(f"lstm[{length}]", "lstm", "specialized",
                  self.lstm_probes[rows], want=lstm_out[rows])
        # The batched variant takes its members stacked along axis 0
        # and returns their outputs stacked the same way.
        batch = cfg["batch"]
        members = [self.lstm_probes[i % per_length] for i in range(batch)]
        probe(f"lstm[{self.lstm_lengths[0]}]x{batch}", "lstm", "batched",
              [np.concatenate(members, axis=0)],
              want=[b"".join(lstm_out[i % per_length] for i in range(batch))], calls=batch)
        probe("tree_lstm", "tree_lstm", "dynamic", self.tree_probes)
        bert_out = probe("bert", "bert", "dynamic", self.bert_probes)
        probe(f"bert[{cfg['bert_length']}]", "bert", "specialized",
              self.bert_probes[:2], want=bert_out[:2])
        probe("bert@gpu", "bert", "dynamic", self.bert_probes[:2], platform=gpu)
        # Loading must not change behaviour: the executable as built
        # against the one that went through save + load.
        for name, model, x in (("lstm", "lstm", self.lstm_probes[0]),
                               ("tree_lstm", "tree_lstm", self.tree_probes[0]),
                               ("bert", "bert", self.bert_probes[0])):
            out, _ = _Runner(built[name], cpu).run("full", m.vm_input(model, x))
            check.expect(as_bytes(out) == check.outputs[f"{name}:0"],
                         f"{name}: built and loaded executables disagree")
        total_us = sum(latency for _, _, latency in first.ops)
        first.modeled_throughput_rps = len(first.ops) / total_us * 1e6
        first.slo_of = len(first.ops)
        return check


class VMSingle(Workload):
    name = "vm_single"
    loop = "closed, 1 client; op = one VirtualMachine.run_with_latency"

    # (row, model, tier): dynamic and specialized rows drive the same
    # interpreter through different bytecode.
    ROWS = (
        ("lstm", "lstm", "dynamic"),
        ("lstm_static", "lstm", "specialized"),
        ("tree_lstm", "tree_lstm", "dynamic"),
        ("bert", "bert", "dynamic"),
        ("bert_static", "bert", "specialized"),
    )

    def setup(self) -> None:
        cfg = self.size["vm"]
        self.models = m = _Models(self.size, self.seed)
        rng = self.rng(2)
        cpu = intel_cpu()
        cache = KernelCache()
        lstm_dim = self.size["lstm"]["input_size"]
        bert_dim = self.size["bert"]["hidden"]
        fixed = cfg["static_length"]
        self.exes: Dict[str, Executable] = {
            "lstm": nimble.build(m.lstm, cpu, kernel_cache=cache)[0],
            "lstm_static": nimble.specialize(
                m.lstm, cpu, shapes=[(fixed, lstm_dim)], kernel_cache=cache)[0],
            "tree_lstm": nimble.build(m.tree, cpu, kernel_cache=cache)[0],
            "bert": nimble.build(m.bert, cpu, kernel_cache=cache)[0],
            "bert_static": nimble.specialize(
                m.bert, cpu, shapes=[(fixed, bert_dim)], kernel_cache=cache)[0],
        }
        self.raw_inputs = {
            "lstm": sentences(sentence_lengths(cfg["lstm"], rng), lstm_dim, rng),
            "lstm_static": sentences([fixed] * cfg["lstm_static"], lstm_dim, rng),
            "tree_lstm": trees(cfg["trees"], m.vocab, rng),
            "bert": sentences(sentence_lengths(cfg["bert"], rng), bert_dim, rng),
            "bert_static": sentences([fixed] * cfg["bert_static"], bert_dim, rng),
        }
        self.inputs = {
            row: [m.vm_input(model, x) for x in self.raw_inputs[row]]
            for row, model, _ in self.ROWS
        }
        self.tokens: Dict[str, int] = {}
        for row, model, _ in self.ROWS:
            self.tokens[model] = self.tokens.get(model, 0) + sum(
                m.tokens(model, x) for x in self.raw_inputs[row])
        # One long-lived VM per executable, as a serving process holds.
        self.vms = {
            row: nimble.VirtualMachine(exe, ExecutionContext(cpu, numerics="lite"))
            for row, exe in self.exes.items()
        }
        for row, vm in self.vms.items():
            for x in self.inputs[row][: cfg["warm_up"]]:
                vm.run(x)

    def run_pass(self) -> PassResult:
        # Every pass starts from the state a fresh VM is in (clock at
        # zero, pools empty), so passes are identical on both clocks.
        for vm in self.vms.values():
            vm.ctx.allocator.assert_drained()
            vm.ctx.allocator.release_all()
            vm.ctx.allocator.stats.reset()
            vm.ctx.reset_clock()
            vm.profile.reset()
        limits = MODEL_SLO_US[self.size_name]
        result = PassResult(attempted=sum(len(v) for v in self.inputs.values()))
        wall: Dict[str, float] = {}
        modeled: Dict[str, float] = {}
        op = 0
        for row, model, tier in self.ROWS:
            vm = self.vms[row]
            for i, x in enumerate(self.inputs[row]):
                if self.tracer is not None:
                    self.tracer.op = op
                op += 1
                begin = time.perf_counter()
                try:
                    _, latency = vm.run_with_latency(x)
                except Exception as err:
                    result.raised += 1
                    self._note_failure(f"{row}:{i}", err)
                    continue
                wall[model] = wall.get(model, 0.0) + time.perf_counter() - begin
                result.ops.append((f"{row}:{i}", tier, latency))
                result.slo_met += latency <= limits[model]
                modeled[model] = modeled.get(model, 0.0) + latency
                self.gauge.tick()
        total_us = sum(latency for _, _, latency in result.ops)
        result.modeled_throughput_rps = len(result.ops) / total_us * 1e6 if total_us else 0.0
        profile = VMProfile()
        for vm in self.vms.values():
            profile.merge(vm.profile)
        result.facts = profile_facts(profile)
        result.facts.update(allocator_facts([vm.ctx for vm in self.vms.values()]))
        for model, tokens in self.tokens.items():
            result.facts[f"vm.interpreter.{model}.wall_s"] = wall.get(model, 0.0)
            result.facts[f"vm.interpreter.{model}.us_per_token"] = modeled.get(model, 0.0) / tokens
        return result

    def check(self, first: PassResult, last: PassResult) -> Check:
        check = Check()
        cfg = self.size["vm"]
        m = self.models
        cpu = intel_cpu()
        n = cfg["checked"]
        check.expect(first.virtual_view() == last.virtual_view(),
                     "the first and the last pass disagree on the virtual clock")
        lite_us = {op: latency for op, _, latency in last.ops}
        full = {row: nimble.VirtualMachine(exe, ExecutionContext(cpu, numerics="full"))
                for row, exe in self.exes.items()}
        outputs: Dict[str, bytes] = {}
        # A fresh full-numerics VM fed the first inputs of a row, in
        # order, walks the same allocator and clock history as the
        # timed pass did: the latencies must match exactly.
        for row, model, _ in self.ROWS:
            for i, x in enumerate(self.inputs[row][:n]):
                op = f"{row}:{i}"
                out, full_us = full[row].run_with_latency(x)
                check.expect(full_us == lite_us.get(op),
                             f"{op}: modeled latency {lite_us.get(op)} (lite) != {full_us} (full)")
                outputs[op] = check.outputs[op] = as_bytes(out)
                if row == model:
                    check.expect(
                        close_to(out.numpy(), m.reference(model, self.raw_inputs[row][i])),
                        f"{op}: not close to the NumPy reference",
                    )
        # Specialized rows: bitwise equal to the dynamic executable on
        # the same input.
        for row, model, tier in self.ROWS:
            if tier != "specialized":
                continue
            for i, x in enumerate(self.inputs[row][:n]):
                check.expect(as_bytes(full[model].run(x)) == outputs[f"{row}:{i}"],
                             f"{row}:{i}: differs from the dynamic executable")
        # Loaded from bytes: same outputs; and the size of what ran.
        for row, _, _ in self.ROWS:
            blob = self.exes[row].save()
            first.artifact_bytes += len(blob)
            restored = nimble.VirtualMachine(
                Executable.load(blob), ExecutionContext(cpu, numerics="full"))
            del blob
            for i, x in enumerate(self.inputs[row][: min(2, n)]):
                check.expect(as_bytes(restored.run(x)) == outputs[f"{row}:{i}"],
                             f"{row}:{i}: the executable loaded from bytes disagrees")
        return check


class ServeTiered(Workload):
    name = "serve_tiered"
    loop = ("open; seeded Poisson arrivals on the virtual clock, so the generator "
            "is never late")

    def setup(self) -> None:
        cfg = self.size["serve"]
        self.mod = build_lstm_module(LSTMWeights.create(
            input_size=cfg["input_size"], hidden_size=cfg["hidden_size"],
            num_layers=1, seed=self.seed))
        self.traces = {
            rate: reseed_trace(
                long_tailed_traffic(
                    cfg["requests"], input_size=cfg["input_size"],
                    mean_interarrival_us=gap, hot_lengths=cfg["hot_lengths"],
                    hot_fraction=0.75, tail_min=4, tail_max=cfg["tail_max"],
                    seed=TRACE_SEED),
                self.rng(3))
            for rate, gap in SERVE_GAPS_US.items()
        }
        self._dirs: List[Path] = []

    def prepare_pass(self) -> None:
        for old in self._dirs:
            shutil.rmtree(old, ignore_errors=True)
        self._dirs = [self.fresh_dir("serve-")]

    def _serve(self, rate: str, artifact_dir: Path):
        """One cold server over an empty store, one replay of *rate*."""
        config = make(
            ServeConfig, self.notes,
            max_batch_size=4, max_delay_us=1500.0, num_workers=2,
            # The LSTM is small enough that NumPy is noise next to the
            # interpreter; full numerics lets every pass's outputs be
            # checked instead of serving the trace a second time.
            numerics="full",
            specialize=True, specialize_threshold=4, specialize_max_executables=2,
            specialize_compile_lanes=2, specialize_batch=True, specialize_staged=True,
            device_streams=2, artifact_dir=str(artifact_dir),
        )
        nimble.clear_prefix_cache()
        server = InferenceServer(self.mod, nvidia_gpu(), config)
        return server, server.simulate(self.traces[rate])

    def _score(self, rate: str, report) -> Dict[str, float]:
        trace = self.traces[rate]
        latencies = report.latencies_us
        span_us = trace[-1].arrival_us - trace[0].arrival_us
        offered_rps = len(trace) / span_us * 1e6
        goodput = sum(1 for v in latencies if v <= SERVE_SLO_US) / len(trace)
        return {
            "p50_us": percentile(latencies, 50),
            "p90_us": percentile(latencies, 90),
            "goodput_share": goodput,
            "throughput_rps": report.throughput_rps,
            "meets_slo": (goodput >= SERVE_SLO_SHARE
                          and report.throughput_rps >= SERVE_KEEPS_UP_SHARE * offered_rps),
        }

    def run_pass(self) -> PassResult:
        trace = self.traces["nominal"]
        result = PassResult(attempted=len(trace))
        try:
            server, report = self._serve("nominal", self._dirs[0])
        except Exception as err:  # one raising request aborts the simulation
            result.raised = len(trace)
            self._note_failure("simulate(nominal)", err)
            return result
        result.ops = [(f"nominal:{r.rid}", r.tier, r.latency_us) for r in report.responses]
        result.raised = len(trace) - len(report.responses)
        result.slo_met = sum(1 for r in report.responses if r.latency_us <= SERVE_SLO_US)
        result.artifact_bytes = tree_bytes(self._dirs[0])
        result.payload = (server, report)
        return result

    def check(self, first: PassResult, last: PassResult) -> Check:
        """Also replays the non-headline rates, once: their numbers are
        virtual, so one replay each is exact."""
        check = Check()
        check.expect(first.virtual_view() == last.virtual_view(),
                     "the first and the last pass disagree on the virtual clock")
        if last.payload is None:
            check.expect(False, "the nominal simulation raised")
            return check
        reference = ReferenceVM(self.mod, nvidia_gpu(), self.traces["nominal"])
        runs = {"nominal": last.payload}
        # `high` is the saturated rate modeled_throughput_rps reports;
        # `low` only feeds per-layer metrics, so it runs when they are
        # wanted (5 s of a run otherwise spent on nothing reported).
        for rate in ("low", "high") if self.layers_wanted else ("high",):
            self._dirs.append(self.fresh_dir("serve-"))
            runs[rate] = self._serve(rate, self._dirs[-1])
        scores = {}
        for rate, (server, report) in runs.items():
            # The headline rate in full, the others sampled.
            sparse = 1 if rate == "nominal" else 4
            check_served(check, reference, report.responses, rate,
                         static_every=sparse, dynamic_every=8 * sparse)
            check_drained(check, server.workers, rate)
            check.expect(len(report.responses) == len(self.traces[rate]),
                         f"{rate}: {len(report.responses)} responses for "
                         f"{len(self.traces[rate])} requests")
            scores[rate] = self._score(rate, report)
        server, report = runs["nominal"]
        first.modeled_throughput_rps = scores["high"]["throughput_rps"]
        if self.layers_wanted:
            first.facts = serve_facts([report], server.workers)
            for rate in ("low", "high"):
                for stat in ("p50_us", "p90_us", "goodput_share"):
                    first.facts[f"serve.load.{rate}.{stat}"] = scores[rate][stat]
            first.facts["serve.slo_max_rate_rps"] = max(
                (1e6 / SERVE_GAPS_US[rate] for rate in scores if scores[rate]["meets_slo"]),
                default=0.0,
            )
        return check


class FleetRestart(Workload):
    name = "fleet_restart"
    loop = "open, fixed rate with bursts; arrivals on the virtual clock"

    def setup(self) -> None:
        cfg = self.size["fleet"]
        self.mod = build_lstm_module(LSTMWeights.create(
            input_size=cfg["input_size"], hidden_size=cfg["hidden_size"],
            num_layers=1, seed=self.seed))
        # At this load most requests are flushed alone by the batch
        # deadline, so their latency is delay + service exactly and no
        # arrival jitter can move it: the seed also lengthens every hot
        # shape by 0 or 1 token, or p50 and p90 would not depend on it.
        shift = int(self.rng(5).randint(0, 2))
        hot_lengths = tuple(length + shift for length in cfg["hot_lengths"])
        # Tenants, deadlines, token bucket, GC and server settings as
        # harness.experiments.fleet_study configures them.
        self.trace = reseed_trace(
            multi_tenant_traffic(
                cfg["requests"], input_size=cfg["input_size"], mean_interarrival_us=300.0,
                tenant_mix=(("steady", 2), ("web", 2), ("batch", 2), ("bursty", 1)),
                hot_lengths=hot_lengths, hot_fraction=0.85,
                tail_max=cfg["tail_max"], seed=TRACE_SEED),
            self.rng(4))
        self.tenants = (
            TenantSpec("steady", deadline_us=FLEET_DEADLINE_US),
            TenantSpec("web"),
            TenantSpec("batch"),
            TenantSpec("bursty", deadline_us=FLEET_DEADLINE_US, rate_per_s=4000.0, burst=4),
        )
        # Fill the store: one cold fleet serves the trace once.
        self.filled = self.fresh_dir("fleet-filled-")
        self._fleet(self.filled)[0].simulate(self.trace)
        self._pass_dir: Optional[Path] = None

    def _fleet(self, artifact_dir: Path):
        config = make(
            ServeConfig, self.notes,
            max_batch_size=4, max_delay_us=1500.0, num_workers=2, numerics="full",
            specialize=True, specialize_threshold=4, specialize_max_executables=2,
            specialize_compile_lanes=1, specialize_compile_us=8000.0,
            specialize_staged=True, specialize_predictive=True,
            artifact_dir=str(artifact_dir),
        )
        fleet = make(
            FleetConfig, self.notes,
            num_replicas=self.size["fleet"]["replicas"], routing="affinity",
            gc_interval_us=20_000.0, gc_max_age_us=30_000.0,
        )
        # A restarted process starts with an empty in-process prefix
        # cache; the prefix has to come back from the store.
        nimble.clear_prefix_cache()
        router = FleetRouter(self.mod, intel_cpu(), config, fleet=fleet, tenants=self.tenants)
        return router, config

    def prepare_pass(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
        self._pass_dir = self.fresh_dir("fleet-pass-")
        shutil.rmtree(self._pass_dir)
        shutil.copytree(self.filled, self._pass_dir)

    def run_pass(self) -> PassResult:
        result = PassResult(attempted=len(self.trace))
        try:
            router, _ = self._fleet(self._pass_dir)
            report = router.simulate(self.trace)
        except Exception as err:
            result.raised = len(self.trace)
            self._note_failure("FleetRouter.simulate", err)
            return result
        responses = report.responses
        result.ops = [(f"fleet:{r.rid}", r.tier, r.latency_us) for r in responses]
        result.refused = report.rejected
        result.raised = len(self.trace) - report.rejected - len(responses)
        result.slo_met = sum(1 for r in responses if r.latency_us <= FLEET_DEADLINE_US)
        span_us = max(r.finish_us for r in responses) - min(r.arrival_us for r in responses)
        result.modeled_throughput_rps = len(responses) / span_us * 1e6
        result.artifact_bytes = tree_bytes(self._pass_dir)
        result.payload = (router, report)
        return result

    def check(self, first: PassResult, last: PassResult) -> Check:
        check = Check()
        check.expect(first.virtual_view() == last.virtual_view(),
                     "the first and the last pass disagree on the virtual clock")
        if last.payload is None:
            check.expect(False, "the fleet simulation raised")
            return check
        router, report = last.payload
        workers = [w for replica in router.replicas for w in replica.workers]
        check_served(check, ReferenceVM(self.mod, intel_cpu(), self.trace),
                     report.responses, "fleet")
        check_drained(check, workers, "fleet")
        served = {r.rid for r in report.responses}
        check.expect(served.isdisjoint(report.rejected_rids)
                     and len(served) + report.rejected == len(self.trace),
                     "served and rejected requests do not partition the trace")
        routed = report.routed
        first.facts = serve_facts(report.replica_reports, workers)
        first.facts.update({
            "store.gc.pruned": float(report.gc_pruned),
            "fleet.admitted": float(report.admitted),
            "fleet.rejected": float(report.rejected),
            "fleet.affinity_share": report.affinity_rate,
            "fleet.restores": float(report.total_fleet_restores),
            "fleet.routed_imbalance": (
                max(routed) * len(routed) / sum(routed) if sum(routed) else 0.0
            ),
        })
        return check


WORKLOADS = {w.name: w for w in (CompileCold, VMSingle, ServeTiered, FleetRestart)}
