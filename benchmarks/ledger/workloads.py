"""The six ledger workloads and the loop that measures them.

Every layer is driven from outside, through names the packages export.
A workload is: set-up (first compile, keys, servers, warm-up), a
compile phase (the whole chain from source to an analyzer-verified,
re-loaded binary, repeated) and a request phase (draw inputs, encode,
encrypt, execute, decrypt, decode, compare with a reference the
compiler did not produce).  The traced pass runs both phases a few
times with every call wrapped in a harness span, adds the probes that
only per-layer metrics need, and reads the spans and histograms the
program already emits under ``repro.obs.observe``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import ceilings
import numpy as np
from spans import Recorder, layer_self_times
from stats import summarize, tail, undisturbed

from repro import (
    Client,
    CompiledCircuit,
    Gate,
    Server,
    TensorSpec,
    compile_function,
    compile_to_binary,
)
from repro.analyze import (
    AnalysisCache,
    AnalyzerConfig,
    analyze_binary,
    analyze_binary_cached,
    analyze_netlist,
)
from repro.bench import mnist_spec, mnist_workload, vip_workload
from repro.chiseltorch.dtypes import UInt
from repro.isa import disassemble
from repro.mblut import (
    assemble_mb,
    decrypt_mb_outputs,
    disassemble_mb,
    encrypt_mb_inputs,
    synthesize,
)
from repro.obs import observe
from repro.runtime import CpuBackend, build_schedule
from repro.serialization import load_cloud_key, save_cloud_key
from repro.serve import (
    BusyError,
    DeadlineError,
    FheServiceClient,
    ServeConfig,
    serving,
)
from repro.synth import optimize
from repro.tfhe import (
    PARAMETER_SETS,
    LweCiphertext,
    encrypt_bits,
    evaluate_gates_batch,
    generate_keys,
)

ANALYZER_FAMILIES = ("structural", "hazards", "noise", "dataflow", "cost")


class CheckFailed(Exception):
    """An output differed from its reference, or two compiles differed."""


class Context:
    """What one run of one workload carries: seed, clock, spans, op counts."""

    def __init__(
        self, name: str, seed: int, seconds: float, traced: bool, started: float
    ):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        #: ``perf_counter`` at process start, before the heavy imports.
        self.started = started
        self.rec = Recorder(name, keep=traced)
        self.attempted = 0
        self.failed = 0
        #: Harness self-checks that did not hold (make the run incorrect).
        self.violations: List[str] = []
        self._lock = threading.Lock()

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def op(self, what: str, fn: Callable[[], object]) -> object:
        """Run one counted operation; a raise is a failure, not an abort."""
        with self._lock:
            self.attempted += 1
        try:
            return fn()
        except Exception:
            # The boundary that must keep running: a failed compile,
            # execution or request (mismatch, BUSY, DEADLINE, crash) is
            # counted and reported, and the run goes on.
            with self._lock:
                self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc()
            return None


@dataclass
class Program:
    """One compile's outputs: what the client keeps and what executes."""

    #: Tensor-level I/O contract (client side).
    compiled: CompiledCircuit
    #: The netlist that was assembled (carries the multi-bit I/O map).
    source: object
    binary: bytes
    #: Re-loaded from ``binary``: the program actually executed.
    netlist: object
    bootstraps: int
    levels: int
    max_level_width: int
    gates_elaborated: int
    gates_removed: int
    analysis: object

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.binary).hexdigest()

    def identity(self) -> tuple:
        return (self.sha, self.bootstraps, self.levels, len(self.binary))


def _program(compiled, source, schedule, binary, netlist, analysis, removed=0):
    return Program(
        compiled=compiled,
        source=source,
        binary=binary,
        netlist=netlist,
        bootstraps=schedule.num_bootstrapped,
        levels=schedule.depth,
        max_level_width=max(level.width for level in schedule.levels),
        gates_elaborated=compiled.netlist.num_gates,
        gates_removed=removed,
        analysis=analysis,
    )


@dataclass
class Served:
    """The execution call that served one request."""

    execute_s: float
    #: Program instances the call carried (stacked by us or batched by serve).
    instances: int


@dataclass
class InsideCall:
    """One in-process execution seen through ``repro.obs.observe``."""

    execute_s: float
    blind_rotate_ms: float
    keyswitch_ms: float
    level_ms: List[float]


@dataclass
class View:
    """Everything the phases measured, for the metric tables."""

    compile_s: List[float] = field(default_factory=list)
    shas: List[str] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    execute_s: List[float] = field(default_factory=list)
    gate_ms: List[float] = field(default_factory=list)
    verified: int = 0
    request_wall_s: float = 0.0
    #: In-process single-instance executions outside / inside observe().
    outside_s: List[float] = field(default_factory=list)
    inside: List[InsideCall] = field(default_factory=list)


class Workload:
    """Base: the hooks the measuring loop calls; subclasses fill them in."""

    name = ""
    params_name = "tfhe-test"
    #: Closed-loop connections issuing requests (each its own thread).
    connections = 1
    #: Program instances per request.
    instances = 1
    #: Untimed requests before the first timed one.
    warm_requests = 1
    #: Set-ups per untraced run; ``setup_s`` is taken over all of them.
    setups = 3
    #: Compile repetitions per half (one before, one after the requests):
    #: at least, at most, and the share of ``--seconds`` a half may use
    #: once its minimum is done.
    compile_reps = (10, 10, 0.0)
    #: Requests when the phase is not bounded by ``--seconds``.
    request_count: Optional[int] = None
    #: Requests sent even when ``--seconds`` is already used up.
    min_requests = 1
    #: Span the main thread waits in while other threads send requests.
    wait_span = "harness.wait"
    #: Compiles per half and requests per phase of the traced pass.
    trace_compiles = 2
    trace_requests = 3
    #: False when requests run in plaintext (no keys, no ``local_request``).
    encrypted = True
    #: True when the request *is* one in-process single-instance execution.
    local_is_request = False

    program: Program

    @property
    def params(self):
        return PARAMETER_SETS[self.params_name]

    # -- compile side --------------------------------------------------
    def build(self) -> CompiledCircuit:
        raise NotImplementedError

    def chain(self, rec: Recorder) -> Program:
        """Source -> optimized, scheduled, assembled, re-loaded, analyzed."""
        with rec.span("chiseltorch.elaborate"):
            compiled = self.build()
        with rec.span("synth.optimize"):
            optimized = optimize(compiled.netlist)
        with rec.span("scheduler.build"):
            schedule = build_schedule(optimized)
        with rec.span("isa.assemble"):
            binary = compile_to_binary(
                CompiledCircuit(
                    optimized, compiled.input_specs, compiled.output_specs
                )
            )
        with rec.span("isa.disassemble"):
            netlist = disassemble(binary)
        with rec.span("analyze.cold"):
            analysis = analyze_binary(
                binary, AnalyzerConfig(params=self.params)
            )
        return _program(
            compiled, optimized, schedule, binary, netlist, analysis,
            removed=compiled.netlist.num_gates - optimized.num_gates,
        )

    def plain(self, program: Program, arrays: Sequence[np.ndarray]):
        """Plaintext evaluation of the re-loaded program."""
        bits = program.compiled.encode_inputs(*arrays)
        return program.compiled.decode_outputs(program.netlist.evaluate(bits))

    # -- inputs and references (harness side) --------------------------
    def draw(self, rng: np.random.Generator) -> Tuple[tuple, object]:
        """Random inputs and the output the reference says they give."""
        raise NotImplementedError

    def matches(self, got, want) -> bool:
        return int(got[0]) == want

    # -- runtime side --------------------------------------------------
    def start(self, ctx: Context) -> None:
        """Keys, servers, registration: everything a request needs."""

    def stop(self) -> None:
        """Release what :meth:`start` opened."""

    def request(self, ctx: Context, rng, conn: int) -> Served:
        raise NotImplementedError

    def local_request(self, ctx: Context, rng) -> Served:
        """One in-process single-instance encrypted execution."""
        raise NotImplementedError

    def layer_extras(self, ctx: Context, view: View) -> Dict[str, float]:
        """Per-layer metrics only this workload can produce."""
        return {}


# ----------------------------------------------------------------------
# hamming_distance (the repo's Fig. 10 program) under four deployments
# ----------------------------------------------------------------------
class Fig10(Workload):
    """``hamming_distance``: 224 bootstraps over 17 levels, boolean path."""

    #: Run the gate probes in set-up even when untraced (as warm-up).
    probe_warmup = False
    local_is_request = True

    def build(self) -> CompiledCircuit:
        return vip_workload("hamming_distance").build()

    def draw(self, rng):
        a, b = rng.integers(0, 2, (2, 32))
        return (a.astype(float), b.astype(float)), int((a ^ b).sum())

    def start(self, ctx: Context) -> None:
        rec = ctx.rec
        with rec.span("tfhe.keygen"):
            self.client = Client(self.params, seed=ctx.seed)
        with rec.span("tfhe.bkfft"):
            self.client.cloud_key.bootstrap_fft()
        with rec.span("executors.start"):
            self.local = Server(self.client.cloud_key)
        if self.probe_warmup or ctx.traced:
            gate_probes(ctx, self.client.cloud_key, self.client.encrypt_bits)
        self.deploy(ctx)

    def deploy(self, ctx: Context) -> None:
        """Bring up what serves requests (default: the in-process server)."""

    def encrypt(self, ctx: Context, arrays) -> LweCiphertext:
        with ctx.rec.span("core.encode"):
            bits = self.program.compiled.encode_inputs(*arrays)
        with ctx.rec.span("tfhe.encrypt"):
            return self.client.encrypt_bits(bits)

    def decrypt(self, ctx: Context, ct: LweCiphertext):
        with ctx.rec.span("tfhe.decrypt"):
            bits = self.client.decrypt_bits(ct)
        with ctx.rec.span("core.decode"):
            return self.program.compiled.decode_outputs(bits)

    def verify(self, ctx: Context, out: LweCiphertext, want) -> None:
        if not self.matches(self.decrypt(ctx, out), want):
            raise CheckFailed(f"{self.name}: decrypted output != {want}")

    def request(self, ctx: Context, rng, conn: int) -> Served:
        cases = [self.draw(rng) for _ in range(self.instances)]
        cts = [self.encrypt(ctx, arrays) for arrays, _ in cases]
        outs, served = self.execute(ctx, cts, conn)
        for out, (_, want) in zip(outs, cases):
            self.verify(ctx, out, want)
        return served

    def execute_local(self, ctx: Context, ct: LweCiphertext):
        with ctx.rec.span("executors.execute") as span:
            out, _ = self.local.execute(self.program.netlist, ct)
        return out, Served(span.s, 1)

    def execute(self, ctx: Context, cts, conn: int):
        out, served = self.execute_local(ctx, cts[0])
        return [out], served

    def local_request(self, ctx: Context, rng) -> Served:
        arrays, want = self.draw(rng)
        out, served = self.execute_local(ctx, self.encrypt(ctx, arrays))
        self.verify(ctx, out, want)
        return served


class Fig10D128(Fig10):
    name = "fig10_d128"
    params_name = "tfhe-default-128"
    # One execution is ~17 s here: the probes are the whole warm-up and
    # the traced pass affords one execution per phase.
    probe_warmup = True
    warm_requests = 0
    trace_requests = 1


class Fig10TestMany(Fig10):
    name = "fig10_test_many"
    instances = 8
    local_is_request = False

    def execute(self, ctx: Context, cts, conn: int):
        stacked = LweCiphertext.stack(cts)
        with ctx.rec.span("executors.execute_many") as span:
            out, _ = self.local.execute_many(self.program.netlist, stacked)
        outs = [out[i] for i in range(len(cts))]
        return outs, Served(span.s, len(cts))

    def layer_extras(self, ctx, view):
        single = statistics.median(view.outside_s)
        many = statistics.median(view.execute_s)
        return {"executors.many_speedup": self.instances * single / many}


class Fig10DistTest(Fig10):
    name = "fig10_dist_test"
    local_is_request = False

    def deploy(self, ctx: Context) -> None:
        self.reports: List[object] = []
        with ctx.rec.span("distributed.pool_start"):
            # One worker: two on two cores oversubscribe BLAS and the
            # timings stop repeating, so this measures the overhead of
            # distribution and its exact task and byte counts, not a
            # speed-up.
            self.server = Server(
                self.client.cloud_key, backend="distributed", num_workers=1
            )

    def stop(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()

    def execute(self, ctx: Context, cts, conn: int):
        with ctx.rec.span("distributed.execute") as span:
            out, report = self.server.execute(self.program.netlist, cts[0])
        self.reports.append(report)
        return [out], Served(span.s, 1)

    def layer_extras(self, ctx, view):
        last = self.reports[-1]
        extras = {
            "distributed.pool_start_ms": _ms(ctx.rec, "distributed.pool_start"),
            "distributed.overhead_ratio": statistics.median(view.execute_s)
            / statistics.median(view.outside_s),
            "distributed.tasks": last.tasks_submitted,
            "distributed.ct_bytes_moved": last.ciphertext_bytes_moved,
            "distributed.key_bytes_moved": sum(
                report.key_bytes_moved for report in self.reports
            ),
        }
        extras.update(serialization_probe(ctx, self.client.cloud_key))
        return extras


class Fig10ServeTest(Fig10):
    name = "fig10_serve_test"
    connections = 2
    local_is_request = False
    # While the connections run their closed loops the main thread is
    # blocked on the served system, so that wait is the serve layer's.
    wait_span = "serve.closed_loop"

    def deploy(self, ctx: Context) -> None:
        rec = ctx.rec
        self.replies: List[dict] = []
        self.refused = 0
        # Client.encrypt_bits draws from one generator; two connections
        # must not draw from it at once.
        self.encrypt_lock = threading.Lock()
        self.stack = contextlib.ExitStack()
        with rec.span("serve.start"):
            # The documented deployment setting.
            handle = self.stack.enter_context(
                serving(ServeConfig(max_batch=16, linger_s=0.005))
            )
        # BUSY and DEADLINE are failures here, so the SDK must not hide
        # them behind its retries.
        self.clients = [
            self.stack.enter_context(
                FheServiceClient("127.0.0.1", handle.port, "ledger", retries=0)
            )
            for _ in range(self.connections)
        ]
        with rec.span("serve.register_key"):
            self.clients[0].register_key(self.client.cloud_key)
        with rec.span("serve.register_program"):
            self.program_id = self.clients[0].register_program(
                self.program.binary
            )

    def stop(self) -> None:
        stack = getattr(self, "stack", None)
        if stack is not None:
            stack.close()

    def encrypt(self, ctx: Context, arrays) -> LweCiphertext:
        with self.encrypt_lock:
            return super().encrypt(ctx, arrays)

    def execute(self, ctx: Context, cts, conn: int):
        try:
            with ctx.rec.span("serve.call") as span:
                out, _, info = self.clients[conn].call(
                    self.program_id, cts[0]
                )
        except (BusyError, DeadlineError):
            self.refused += 1
            raise
        stages = info["stages"]
        self.replies.append(
            {
                "latency_ms": span.s * 1e3,
                "batch": info["batch_size"],
                "queue_wait_ms": stages["queue_wait_ms"],
                "linger_ms": stages["batch_linger_ms"],
                "execute_ms": stages["execute_ms"],
            }
        )
        # The execution call is the server's: its wall and how many
        # requests it batched come back in the reply header.
        return [out], Served(stages["execute_ms"] / 1e3, info["batch_size"])

    def layer_extras(self, ctx, view):
        def p50(key):
            return statistics.median(reply[key] for reply in self.replies)

        extras = {
            "serve.register_key_ms": _ms(ctx.rec, "serve.register_key"),
            "serve.register_program_ms": _ms(ctx.rec, "serve.register_program"),
            "serve.queue_wait_ms_p50": p50("queue_wait_ms"),
            "serve.linger_ms_p50": p50("linger_ms"),
            "serve.execute_ms_p50": p50("execute_ms"),
            "serve.wire_overhead_ms_p50": statistics.median(
                reply["latency_ms"]
                - reply["queue_wait_ms"]
                - reply["linger_ms"]
                - reply["execute_ms"]
                for reply in self.replies
            ),
            "serve.mean_batch": statistics.fmean(
                reply["batch"] for reply in self.replies
            ),
            "serve.refused": self.refused,
        }
        extras.update(serialization_probe(ctx, self.client.cloud_key))
        return extras


# ----------------------------------------------------------------------
# mnist_s_reduced: the compile layers do all the work
# ----------------------------------------------------------------------
class MnistSCompile(Workload):
    name = "mnist_s_compile"
    # ~2.5 s per compile: the compile phase gets most of --seconds, and
    # the request phase is a fixed number of plaintext evaluations
    # (75k bootstraps are ~50 s encrypted even at test parameters).
    compile_reps = (2, 32, 0.4)
    request_count = 40
    trace_compiles = 1
    encrypted = False

    def __init__(self):
        self.bench = mnist_workload("S", "reduced")
        self.shape = mnist_spec("S", "reduced").input_shape

    def build(self) -> CompiledCircuit:
        return self.bench.build()

    def draw(self, rng):
        image = rng.integers(-128, 128, self.shape).astype(np.float64)
        # numpy reference_cnn: independent of the compiler under test.
        return (image,), self.bench.reference(image)[0]

    def matches(self, got, want) -> bool:
        return np.array_equal(got[0], want)

    def request(self, ctx: Context, rng, conn: int) -> Served:
        arrays, want = self.draw(rng)
        compiled = self.program.compiled
        with ctx.rec.span("core.encode"):
            bits = compiled.encode_inputs(*arrays)
        with ctx.rec.span("hdl.evaluate") as span:
            out = self.program.netlist.evaluate(bits)
        with ctx.rec.span("core.decode"):
            got = compiled.decode_outputs(out)
        if not self.matches(got, want):
            raise CheckFailed(f"{self.name}: evaluated output != reference")
        return Served(span.s, 1)


# ----------------------------------------------------------------------
# 8-bit adder on the multi-bit LUT path
# ----------------------------------------------------------------------
class Adder8Mblut(Workload):
    name = "adder8_mblut"
    params_name = "tfhe-mb-128"
    # ~2 s per run, and the most interference-prone of the six (its
    # working set lives in the shared cache).
    min_requests = 3
    trace_requests = 2
    local_is_request = True
    # ~2.4 ms per compile: 20 of them are too short a window to repeat.
    compile_reps = (50, 50, 0.0)
    # 5-9 s of key generation each: a third does not fit the time the
    # driver allows for all its runs.
    setups = 2

    def build(self) -> CompiledCircuit:
        return compile_function(
            lambda x, y: x + y,
            [TensorSpec("x", (), UInt(8)), TensorSpec("y", (), UInt(8))],
            name="adder8",
        )

    def chain(self, rec: Recorder) -> Program:
        with rec.span("chiseltorch.elaborate"):
            compiled = self.build()
        with rec.span("mblut.synthesize"):
            mb = synthesize(compiled.netlist, modulus=16)
        with rec.span("scheduler.build"):
            schedule = build_schedule(mb)
        with rec.span("mblut.assemble"):
            binary = assemble_mb(mb)
        with rec.span("mblut.disassemble"):
            netlist = disassemble_mb(binary)
        with rec.span("analyze.cold"):
            # Format-1 binaries route to the MB + NB families.
            analysis = analyze_binary(
                binary, AnalyzerConfig(params=self.params)
            )
        return _program(compiled, mb, schedule, binary, netlist, analysis)

    def plain(self, program: Program, arrays):
        # A re-loaded binary has no I/O map (it is client metadata), so
        # the map of the synthesized netlist translates bits <-> wires.
        mb = program.source
        bits = program.compiled.encode_inputs(*arrays)
        wires = mb.io.encode_inputs(bits, mb.input_prec)
        out = mb.io.decode_outputs(program.netlist.evaluate(wires))
        return program.compiled.decode_outputs(out)

    def draw(self, rng):
        a, b = (int(v) for v in rng.integers(0, 256, 2))
        return (np.array(float(a)), np.array(float(b))), (a + b) & 0xFF

    def start(self, ctx: Context) -> None:
        rec = ctx.rec
        self.noise_rng = ctx.rng(0xE7C)
        with rec.span("tfhe.keygen"):
            self.secret, self.cloud = generate_keys(self.params, seed=ctx.seed)
        with rec.span("tfhe.bkfft"):
            self.cloud.bootstrap_fft()
        with rec.span("executors.start"):
            self.backend = CpuBackend(self.cloud)
        if ctx.traced:
            gate_probes(
                ctx,
                self.cloud,
                lambda bits: encrypt_bits(self.secret, bits, self.noise_rng),
            )

    def request(self, ctx: Context, rng, conn: int) -> Served:
        rec = ctx.rec
        arrays, want = self.draw(rng)
        program = self.program
        with rec.span("core.encode"):
            bits = program.compiled.encode_inputs(*arrays)
        with rec.span("tfhe.encrypt"):
            ct = encrypt_mb_inputs(
                self.secret, program.source, bits, self.noise_rng
            )
        with rec.span("executors.run") as span:
            out, _ = self.backend.run(program.netlist, ct)
        with rec.span("tfhe.decrypt"):
            out_bits = decrypt_mb_outputs(self.secret, program.source, out)
        with rec.span("core.decode"):
            got = program.compiled.decode_outputs(out_bits)
        if not self.matches(got, want):
            raise CheckFailed(f"{self.name}: decrypted output != {want}")
        return Served(span.s, 1)

    def local_request(self, ctx: Context, rng) -> Served:
        return self.request(ctx, rng, 0)

    def layer_extras(self, ctx, view):
        rec = ctx.rec
        levels = [ms for call in view.inside for ms in call.level_ms]
        return {
            "mblut.synthesize_ms": _ms(rec, "mblut.synthesize"),
            "mblut.bootstraps_before": int(
                self.program.compiled.netlist.stats().num_bootstrapped_gates
            ),
            "mblut.bootstraps_after": self.program.bootstraps,
            "mblut.assemble_ms": _ms(rec, "mblut.assemble"),
            "mblut.disassemble_ms": _ms(rec, "mblut.disassemble"),
            "mblut.level_ms": statistics.median(levels) if levels else 0.0,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig10D128,
        Fig10TestMany,
        Fig10ServeTest,
        Fig10DistTest,
        MnistSCompile,
        Adder8Mblut,
    )
}


# ----------------------------------------------------------------------
# probes shared by several workloads
# ----------------------------------------------------------------------
def _ms(rec: Recorder, name: str) -> float:
    samples = rec.seconds(name)
    return statistics.median(samples) * 1e3 if samples else 0.0


def gate_probes(ctx: Context, cloud, encrypt) -> None:
    """``evaluate_gates_batch`` at batch 1 and 16 on fresh encryptions."""
    bits = ctx.rng(0x6A7E).integers(0, 2, ceilings.BATCH).astype(bool)
    ca, cb = encrypt(bits), encrypt(~bits)
    for batch, reps in ((1, 3), (ceilings.BATCH, 2)):
        codes = np.full(batch, int(Gate.NAND))
        for _ in range(reps if ctx.traced else 1):
            with ctx.rec.span(f"tfhe.gate_b{batch}"):
                evaluate_gates_batch(cloud, codes, ca[:batch], cb[:batch])


def serialization_probe(ctx: Context, cloud_key) -> Dict[str, float]:
    with ctx.rec.span("serialization.dump") as dump:
        blob = save_cloud_key(cloud_key)
    with ctx.rec.span("serialization.load") as load:
        load_cloud_key(blob)
    return {
        "serialization.cloud_key_bytes": len(blob),
        "serialization.cloud_key_dump_ms": dump.s * 1e3,
        "serialization.cloud_key_load_ms": load.s * 1e3,
    }


def analyzer_probes(workload: Workload, ctx: Context) -> None:
    """Cached verdict, then one analysis family enabled at a time."""
    rec = ctx.rec
    program = workload.program
    config = AnalyzerConfig(params=workload.params)
    cache = AnalysisCache()
    analyze_binary_cached(program.binary, config, cache=cache)
    for _ in range(3):
        with rec.span("analyze.cached"):
            analyze_binary_cached(program.binary, config, cache=cache)
    for family in ANALYZER_FAMILIES:
        only = dataclasses.replace(
            config, **{name: name == family for name in ANALYZER_FAMILIES}
        )
        with rec.span(f"analyze.{family}"):
            analyze_netlist(program.netlist, only)


# ----------------------------------------------------------------------
# the measuring loop
# ----------------------------------------------------------------------
def checked_compile(
    workload: Workload, ctx: Context, rng, first: Optional[Program]
) -> Tuple[Program, float]:
    """One timed compile chain, then its checks (untimed)."""
    with ctx.rec.span("harness.compile") as span:
        program = workload.chain(ctx.rec)
    if first is not None and program.identity() != first.identity():
        raise CheckFailed(
            f"{workload.name}: two compiles differ: "
            f"{program.identity()} != {first.identity()}"
        )
    if program.analysis.report.has_errors:
        raise CheckFailed(f"{workload.name}: analyzer reports errors")
    arrays, want = workload.draw(rng)
    with ctx.rec.span("hdl.evaluate"):
        got = workload.plain(program, arrays)
    if not workload.matches(got, want):
        raise CheckFailed(f"{workload.name}: plaintext run != reference")
    return program, span.s


def compile_phase(
    workload: Workload, ctx: Context, view: View, half: int
) -> None:
    """One half of the compile repetitions (before / after the requests).

    Two halves some seconds apart: a burst of interference then spoils
    at most one of them.
    """
    least, most, share = workload.compile_reps
    if ctx.traced:
        least = most = workload.trace_compiles
    rng = ctx.rng(0xC0DE, half)
    started = time.perf_counter()
    for attempt in range(most):
        if attempt >= least and (
            time.perf_counter() - started >= share * ctx.seconds
        ):
            break
        result = ctx.op(
            "compile",
            lambda: checked_compile(workload, ctx, rng, workload.program),
        )
        if result is not None:
            view.compile_s.append(result[1])
            view.shas.append(result[0].sha)


def request_phase(
    workload: Workload, ctx: Context, view: View, budget_s: float
) -> None:
    """Closed loop: each connection sends its next request on the reply."""
    count = workload.request_count
    if ctx.traced:
        count = workload.trace_requests
    bootstraps = workload.program.bootstraps
    lock = threading.Lock()

    def loop(conn: int, parent) -> None:
        rng = ctx.rng(0x5EED, conn)
        sent = 0
        while sent < count if count is not None else (
            sent < workload.min_requests or time.perf_counter() < deadline
        ):
            sent += 1

            def one():
                with ctx.rec.span("harness.request", parent=parent) as span:
                    served = workload.request(ctx, rng, conn)
                return span.s, served

            result = ctx.op("request", one)
            if result is None:
                continue
            latency, served = result
            with lock:
                view.latency_s.append(latency)
                view.execute_s.append(served.execute_s)
                view.gate_ms.append(
                    served.execute_s * 1e3 / (bootstraps * served.instances)
                )
                view.verified += workload.instances

    with ctx.rec.span("harness.requests") as phase:
        deadline = time.perf_counter() + budget_s
        if workload.connections == 1:
            loop(0, None)
        else:
            threads = [
                threading.Thread(target=loop, args=(conn, phase))
                for conn in range(workload.connections)
            ]
            for thread in threads:
                thread.start()
            with ctx.rec.span(workload.wait_span):
                for thread in threads:
                    thread.join()
    view.request_wall_s = phase.s


def inside_phase(workload: Workload, ctx: Context, view: View) -> None:
    """In-process executions outside and inside ``repro.obs.observe``.

    Per-level time and the blind-rotate / key-switch split cannot be
    seen from outside one ``execute`` call; the program already emits
    them (``L<n> bootstrap`` spans, ``bootstrap_phase_ms`` histogram)
    whenever observability is on.
    """
    rng = ctx.rng(0x0B5)
    if workload.local_is_request:
        view.outside_s = list(view.execute_s)
    else:
        for _ in range(workload.trace_requests):
            served = ctx.op(
                "execute", lambda: workload.local_request(ctx, rng)
            )
            if served is not None:
                view.outside_s.append(served.execute_s)
    for _ in range(workload.trace_requests):
        with observe() as ob:
            served = ctx.op(
                "execute", lambda: workload.local_request(ctx, rng)
            )
        if served is None:
            continue
        phases = {
            series["labels"].get("phase"): series["sum"]
            for series in ob.metrics.snapshot_series()["histograms"].get(
                "bootstrap_phase_ms", []
            )
        }
        view.inside.append(
            InsideCall(
                execute_s=served.execute_s,
                blind_rotate_ms=phases.get("blind_rotate", 0.0),
                keyswitch_ms=phases.get("keyswitch", 0.0),
                level_ms=[
                    span.duration_s * 1e3
                    for span in ob.tracer.iter_spans(cat="execute")
                    if span.args.get("kind") == "bootstrap"
                ],
            )
        )




def observed_compile(workload: Workload, ctx: Context) -> Optional[float]:
    """One compile chain inside ``repro.obs.observe`` (seconds)."""
    with observe():
        result = ctx.op(
            "compile",
            lambda: checked_compile(
                workload, ctx, ctx.rng(0x0B5), workload.program
            ),
        )
    return None if result is None else result[1]


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, MiB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def end_to_end(workload: Workload, view: View, setup_s: List[float]):
    """The end-to-end metrics of one untraced run, and the full report.

    The gated durations are each the fastest tenth of their samples (see
    ``stats.undisturbed``), set-up over the run's set-ups; the report
    beside them has every timing as median, quartiles,
    extremes and sample count, the highest tail percentile the request
    count supports, and the measured closed-loop throughput.
    """
    program = workload.program
    level, tail_s = tail(view.latency_s)
    metrics = {
        "setup_s": undisturbed(setup_s),
        "compile_s": undisturbed(view.compile_s),
        "execute_s": undisturbed(view.execute_s),
        "gate_ms": undisturbed(view.gate_ms),
        "request_ms": undisturbed(view.latency_s) * 1e3,
        "bootstraps": program.bootstraps,
        "levels": program.levels,
        "binary_bytes": len(program.binary),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "samples": {
            "setup_s": summarize(setup_s),
            "compile_s": summarize(view.compile_s),
            "execute_s": summarize(view.execute_s),
            "gate_ms": summarize(view.gate_ms),
            "request_s": summarize(view.latency_s),
        },
        "request_p50_ms": statistics.median(view.latency_s) * 1e3,
        "request_tail_ms": tail_s * 1e3,
        "request_tail_level": level,
        "requests_per_s": view.verified / view.request_wall_s,
        "connections": workload.connections,
        "instances_per_request": workload.instances,
    }
    return metrics, detail


def layer_metrics(
    workload: Workload, ctx: Context, view: View, compile_ratio: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (runs the last probes)."""
    rec = ctx.rec
    program = workload.program
    layers: Dict[str, float] = {
        "chiseltorch.elaborate_ms": _ms(rec, "chiseltorch.elaborate"),
        "hdl.gates_elaborated": program.gates_elaborated,
        "synth.optimize_ms": _ms(rec, "synth.optimize"),
        "synth.gates_removed": program.gates_removed,
        "scheduler.build_ms": _ms(rec, "scheduler.build"),
        "scheduler.max_level_width": program.max_level_width,
        "isa.assemble_ms": _ms(rec, "isa.assemble"),
        "isa.disassemble_ms": _ms(rec, "isa.disassemble"),
        "isa.binary_sha_stable": int(set(view.shas) == {program.sha}),
        "analyze.cold_ms": _ms(rec, "analyze.cold"),
        "analyze.cached_ms": _ms(rec, "analyze.cached"),
        "core.encode_ms": _ms(rec, "core.encode"),
        "core.decode_ms": _ms(rec, "core.decode"),
    }
    for family in ANALYZER_FAMILIES:
        layers[f"analyze.{family}_ms"] = _ms(rec, f"analyze.{family}")
    if workload.encrypted:
        layers.update(encrypted_layers(workload, ctx, view))
    else:
        layers["obs.trace_overhead_ratio"] = compile_ratio
    layers.update(workload.layer_extras(ctx, view))
    return layers


def self_time_table(ctx: Context) -> dict:
    """Self time per layer on the main thread; must add up to the wall."""
    root = ctx.rec.spans[0]
    table = layer_self_times(ctx.rec.spans, root.tid)
    total = sum(table.values())
    if abs(total - root.s) > 0.05 * root.s:
        ctx.violations.append(
            f"layer self times sum to {total:.3f}s, wall is {root.s:.3f}s"
        )
    return {"wall_s": root.s, "layer_self_s": table}


def encrypted_layers(
    workload: Workload, ctx: Context, view: View
) -> Dict[str, float]:
    """tfhe / executors / cost-residual rows from probes and the inside view."""
    rec = ctx.rec
    inside_ms = [call.execute_s * 1e3 for call in view.inside]
    for call in view.inside:
        if call.blind_rotate_ms + call.keyswitch_ms > call.execute_s * 1e3:
            ctx.violations.append(
                "blind_rotate + keyswitch exceed the execute span around them"
            )
    levels = [ms for call in view.inside for ms in call.level_ms]
    gate_b1 = _ms(rec, "tfhe.gate_b1")
    gate_b16 = _ms(rec, f"tfhe.gate_b{ceilings.BATCH}") / ceilings.BATCH
    layers = {
        "tfhe.keygen_ms": _ms(rec, "tfhe.keygen"),
        "tfhe.bkfft_ms": _ms(rec, "tfhe.bkfft"),
        "tfhe.encrypt_ms": _ms(rec, "tfhe.encrypt"),
        "tfhe.decrypt_ms": _ms(rec, "tfhe.decrypt"),
        "tfhe.gate_b1_ms": gate_b1,
        "tfhe.gate_b16_ms": gate_b16,
        "tfhe.blind_rotate_ms": statistics.median(
            call.blind_rotate_ms for call in view.inside
        ),
        "tfhe.keyswitch_ms": statistics.median(
            call.keyswitch_ms for call in view.inside
        ),
        "executors.level_ms_p50": statistics.median(levels),
        "executors.level_ms_max": max(levels),
        "executors.overhead_ms": statistics.median(
            call.execute_s * 1e3 - call.blind_rotate_ms - call.keyswitch_ms
            for call in view.inside
        ),
        "obs.trace_overhead_ratio": statistics.median(inside_ms)
        / (statistics.median(view.outside_s) * 1e3),
    }
    with rec.span("tfhe.ceilings"):
        layers.update(ceilings.probe(workload.params, ctx.seed))
    layers["tfhe.ceiling_ratio"] = gate_b16 / (
        layers["tfhe.fft_ceiling_ms"] + layers["tfhe.zgemm_ceiling_ms"]
    )
    # The certificate prices levels in units of its own per-gate cost
    # (the paper's, by default); rescaling that unit to this run's
    # measured batch-1 gate gives the calibrated prediction.
    cost = workload.program.analysis.cost
    predicted_ms = cost.predicted_execute_ms("batched") * gate_b1 / cost.gate_ms
    layers["analyze.cost_pred_ratio"] = predicted_ms / (
        statistics.median(view.outside_s) * 1e3
    )
    return layers


@dataclass
class Result:
    metrics: Dict[str, float]
    detail: dict
    attempted: int
    failed: int
    violations: List[str]

    @property
    def correct(self) -> bool:
        return not self.failed and not self.violations


def set_up(workload: Workload, ctx: Context) -> None:
    """One set-up: cold compile, keys, servers, registration, warm-up."""
    first = ctx.op(
        "compile",
        lambda: checked_compile(workload, ctx, ctx.rng(0xF125), None),
    )
    if first is None:
        raise SystemExit(f"{workload.name}: first compile failed")
    workload.program = first[0]
    workload.start(ctx)
    warm_rng = ctx.rng(0x3A53)
    for _ in range(workload.warm_requests):
        for conn in range(workload.connections):
            ctx.op("request", lambda: workload.request(ctx, warm_rng, conn))


def run(workload: Workload, ctx: Context, imported: float) -> Result:
    """Measure one workload: end-to-end metrics, or per-layer when traced."""
    rec = ctx.rec
    view = View()
    with rec.span("harness.workload") as root:
        # The run began when the process did: imports are set-up too.
        root.start = ctx.started
        rec.add("harness.import", ctx.started, imported)
        try:
            # One set-up is one sample, and set-up is where forks, page
            # faults and first touches are, the least repeatable work on
            # a shared host.  So an untraced run sets up several times,
            # each from a fresh workload with the one before torn down
            # and released, and measures with the last.
            bodies: List[float] = []
            count = 1 if ctx.traced else workload.setups
            for left in reversed(range(count)):
                began = time.perf_counter()
                with rec.span("harness.setup"):
                    set_up(workload, ctx)
                bodies.append(time.perf_counter() - began)
                if left:
                    workload.stop()
                    workload = type(workload)()
                    gc.collect()
            compile_phase(workload, ctx, view, 0)
            spent = time.perf_counter() - began - bodies[-1]
            request_phase(workload, ctx, view, ctx.seconds - 2 * spent)
            compile_phase(workload, ctx, view, 1)
            if not (view.compile_s and view.latency_s):
                raise SystemExit(f"{workload.name}: nothing could be measured")
            if ctx.traced:
                with rec.span("harness.probes"):
                    metrics = traced_probes(workload, ctx, view)
        finally:
            workload.stop()
    if ctx.traced:
        detail = self_time_table(ctx)
    else:
        # Imports happen once per process; every set-up sample pays them.
        import_s = imported - ctx.started
        metrics, detail = end_to_end(
            workload, view, [import_s + body for body in bodies]
        )
    return Result(metrics, detail, ctx.attempted, ctx.failed, ctx.violations)


def traced_probes(
    workload: Workload, ctx: Context, view: View
) -> Dict[str, float]:
    """What only the per-layer metrics need, then the metrics themselves."""
    analyzer_probes(workload, ctx)
    compile_ratio = 0.0
    if workload.encrypted:
        inside_phase(workload, ctx, view)
        if not view.inside:
            raise SystemExit(f"{workload.name}: no observed execution")
    else:
        observed = observed_compile(workload, ctx)
        if observed is not None:
            compile_ratio = observed / statistics.median(view.compile_s)
    return layer_metrics(workload, ctx, view, compile_ratio)
