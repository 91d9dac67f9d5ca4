"""Backends that execute TFHE program netlists.

* :class:`PlaintextBackend` — reference bit semantics (no crypto).
* :class:`CpuBackend` — real TFHE execution on this process.

Every real backend runs the same thing: a ``(nodes, R, n)`` ciphertext
*plane* — one LWE sample per netlist node per stacked request — walked
level by level along the BFS :class:`Schedule` (paper Algorithm 1).
This module owns the three pieces of that walk:

* :func:`bootstrap_level` — one level's bootstrapped ops, boolean gates
  and LUT/B2D/D2B alike, fused into one programmable bootstrap (one
  vectorized blind rotation + key switch), gathered from and scattered
  to the plane in place.  The functional analogue of the paper's GPU
  batch execution (and MATCHA's batching lesson).
* :func:`free_gates` — CONST/BUF/NOT/LIN on the same plane.
* the one level loop (``CpuBackend._execute``, behind ``run_many``;
  ``run`` is its ``R = 1`` case).  The distributed backend overrides
  only where the plane lives and who runs the bootstrap step.

Every run returns an :class:`ExecutionReport` with gate/level counts,
wall time, and communication volume, which the benchmark harness uses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..gatetypes import (
    CODE_USES_TABLE,
    NUM_CODES,
    OP_B2D,
    OP_D2B,
    OP_LIN,
    OP_LUT,
    Gate,
    op_name,
)
from ..hdl.netlist import NO_INPUT, Netlist
from ..obs import Observability
from ..obs import get as _get_obs
from ..tfhe.gates import MU_GATE, trivial_bit
from ..tfhe.keys import CloudKey
from ..tfhe.lut import (
    IntegerEncoding,
    lut_test_polynomial,
    programmable_bootstrap,
    rotation_slices,
    validate_table,
)
from ..tfhe.lwe import LweCiphertext
from ..tfhe.torus import wrap_int32
from .scheduler import Level, Schedule, build_schedule


def emit_execution_observability(
    obs: Observability,
    backend_name: str,
    netlist: Netlist,
    schedule: Schedule,
    run_start: float,
    elapsed: float,
    ciphertext_bytes_moved: int,
    instances: int,
) -> None:
    """Publish one finished run into an observability bundle.

    Called once from the level loop, which has already recorded its
    per-level spans: this adds the enclosing ``run:<backend>`` span,
    the per-gate-type counters and the run-wide gauges.
    """
    obs.tracer.add(
        f"run:{backend_name}", cat="execute",
        start_s=run_start, end_s=run_start + elapsed,
        backend=backend_name, gates=netlist.num_gates * instances,
        bootstrapped=schedule.num_bootstrapped * instances,
        levels=schedule.depth,
    )
    metrics = obs.metrics
    codes, counts = np.unique(netlist.ops, return_counts=True)
    for code, count in zip(codes, counts):
        metrics.inc(
            "gates_executed",
            int(count) * instances,
            gate=op_name(int(code)),
        )
    metrics.inc("runs", 1, backend=backend_name)
    metrics.inc(
        "bootstrapped_gates", schedule.num_bootstrapped * instances
    )
    metrics.inc("levels_executed", schedule.depth)
    if ciphertext_bytes_moved:
        metrics.inc("ciphertext_bytes_moved", ciphertext_bytes_moved)
    if elapsed > 0:
        metrics.set_gauge(
            "bootstraps_per_sec",
            schedule.num_bootstrapped * instances / elapsed,
            backend=backend_name,
        )


@dataclass
class ExecutionReport:
    """What happened during one backend run."""

    backend: str
    gates_total: int
    gates_bootstrapped: int
    levels: int
    wall_time_s: float
    ciphertext_bytes_moved: int = 0
    tasks_submitted: int = 0
    #: Serialized cloud-key bytes shipped to workers during this run.
    #: A persistent pool broadcasts the key once at start, so only the
    #: first run() after pool creation reports a non-zero value.
    key_bytes_moved: int = 0
    #: True when the run reused a worker pool warmed by an earlier run.
    pool_reused: bool = False
    #: How ciphertexts reached the workers (``"shm"``); empty for
    #: non-distributed backends.
    transport: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds_per_bootstrapped_gate(self) -> float:
        if not self.gates_bootstrapped:
            return 0.0
        return self.wall_time_s / self.gates_bootstrapped

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecutionReport":
        doc = dict(doc, extra=dict(doc.get("extra", {})))
        # Servers before ISSUE 22 sent a per-level event list as well.
        doc.pop("trace", None)
        return cls(**doc)

    def to_json(self) -> str:
        """Lossless JSON text (``from_json`` round-trips exactly)."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionReport":
        return cls.from_dict(json.loads(text))


class PlaintextBackend:
    """Reference executor over plaintext bits."""

    name = "plaintext"

    def run(
        self, netlist: Netlist, inputs: np.ndarray
    ) -> Tuple[np.ndarray, ExecutionReport]:
        start = time.perf_counter()
        outputs = netlist.evaluate(inputs)
        elapsed = time.perf_counter() - start
        stats = netlist.stats()
        report = ExecutionReport(
            backend=self.name,
            gates_total=netlist.num_gates,
            gates_bootstrapped=stats.num_bootstrapped_gates,
            levels=stats.bootstrap_depth,
            wall_time_s=elapsed,
        )
        return outputs, report


#: Refuse real-FHE execution beyond this size (use the simulators).
MAX_FHE_NODES = 2_000_000

_CONST0, _CONST1, _BUF, _NOT = (
    int(g) for g in (Gate.CONST0, Gate.CONST1, Gate.BUF, Gate.NOT)
)


def level_test_polynomials(
    netlist: Netlist, gate_ids: np.ndarray, big_n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The test polynomial of every bootstrapped op ``gate_ids``.

    Returns ``(rows, row_of, post)``: ``rows`` ``(k, N)`` int32 holds one
    polynomial per distinct ``(op, table, in_prec, out_prec)``,
    ``row_of`` maps each op to its row, and ``post`` ``(k,)`` int32 is
    the torus offset each row adds after the key switch.  Per op:

    * a boolean gate rotates the constant ``+1/8`` (``MU_GATE``);
    * ``OP_LUT`` rotates :func:`~repro.tfhe.lut.lut_test_polynomial`;
    * ``OP_D2B`` rotates the ``±1/8`` level of each input slice's bit;
    * ``OP_B2D`` reads a ``±1/8`` sample, so the rotation resolves only
      its sign: the constant ``C = (enc(v1) - enc(v0)) / 2`` plus
      ``post = enc(v0) + C`` maps False to ``enc(v0)``, True to
      ``enc(v1)``.

    Tables are validated against their encodings
    (:class:`~repro.tfhe.lut.LutTableError`).
    """
    codes = netlist.ops[gate_ids]
    table = CODE_USES_TABLE[codes]
    if not table.any():
        # Bit gates and cells only: the one constant row.
        return (
            np.full((1, big_n), MU_GATE, dtype=np.int32),
            np.zeros(len(gate_ids), dtype=np.intp),
            np.zeros(1, dtype=np.int32),
        )
    ids = gate_ids[table]
    precs = netlist.node_precisions()
    # (op, table, in_prec, out_prec); every boolean gate is all zeros.
    fields = np.zeros((4, len(gate_ids)), dtype=np.int64)
    fields[:, table] = (
        codes[table], netlist.table_id[ids], precs[netlist.in0[ids]],
        netlist.prec[ids],
    )
    top = int(precs.max()) + 1
    key = np.ravel_multi_index(
        fields, (NUM_CODES, len(netlist.tables) + 1, top, top)
    )
    _, first, row_of = np.unique(key, return_index=True, return_inverse=True)
    rows = np.empty((len(first), big_n), dtype=np.int32)
    post = np.zeros(len(first), dtype=np.int32)
    for row, (code, tid, p, q) in enumerate(fields[:, first].T.tolist()):
        if code == OP_LUT:
            rows[row] = lut_test_polynomial(
                netlist.tables[tid], IntegerEncoding(p), IntegerEncoding(q),
                big_n,
            )
        elif code == OP_D2B:
            bits = validate_table(
                netlist.tables[tid], IntegerEncoding(p), IntegerEncoding(2)
            )
            hot = bits[rotation_slices(p, big_n)] != 0
            mu = np.int64(MU_GATE)
            rows[row] = wrap_int32(np.where(hot, mu, -mu))
        elif code == OP_B2D:
            enc = IntegerEncoding(q)
            e0, e1 = enc.encode(
                validate_table(netlist.tables[tid], IntegerEncoding(2), enc)
            ).astype(np.int64)
            half = (e1 - e0) // 2
            rows[row] = wrap_int32(half)
            post[row] = wrap_int32(e0 + half)
        else:
            rows[row] = MU_GATE
    return rows, row_of, post


def bootstrap_level(
    cloud_key: CloudKey,
    netlist: Netlist,
    a: np.ndarray,
    b: np.ndarray,
    gate_ids: np.ndarray,
) -> int:
    """Bootstrap the ops ``gate_ids`` of one level, in place, in one call.

    ``a`` ``(nodes, R, n)`` / ``b`` ``(nodes, R)`` is the ciphertext
    plane; ``netlist`` is the caller's own in process, the broadcast
    binary disassembled in a worker.  Every op is a row of one
    :func:`~repro.tfhe.lut.programmable_bootstrap` call: its input is
    its :meth:`~repro.hdl.netlist.Netlist.linear_forms` form over up to
    three operands (a cell's SIGN reads its leaves, its LINs folded in)
    and its test polynomial comes from :func:`level_test_polynomials`.
    Returns the ciphertext bytes gathered from and scattered to the
    plane: the operands each op reads, plus its output.
    """
    requests, dim = a.shape[1:]
    forms = netlist.linear_forms()
    src, coef = forms.src[:, gate_ids], forms.coef[:, gate_ids]
    lin_a = np.zeros((len(gate_ids), requests, dim), dtype=np.int64)
    lin_b = np.zeros((len(gate_ids), requests), dtype=np.int64)
    lin_b += forms.const[gate_ids, None] * np.int64(MU_GATE)
    for nodes, k in zip(src, coef):
        if k.any():
            lin_a += k[:, None, None] * a[nodes]
            lin_b += k[:, None] * b[nodes]
    # The kernel sees one flat batch: ops x requests samples.
    linear = LweCiphertext(
        wrap_int32(lin_a.reshape(-1, dim)), wrap_int32(lin_b.reshape(-1))
    )
    rows, row_of, post = level_test_polynomials(
        netlist, gate_ids, cloud_key.params.tlwe_degree
    )
    per_sample = np.repeat(row_of, requests)
    # One distinct row (every all-boolean level) broadcasts as is.
    out = programmable_bootstrap(
        cloud_key,
        linear,
        rows[0] if len(rows) == 1 else rows[per_sample],
        post[per_sample],
    )
    nodes = gate_ids + netlist.num_inputs
    a[nodes] = out.a.reshape(-1, requests, dim)
    b[nodes] = out.b.reshape(-1, requests)
    samples = (int(np.count_nonzero(coef)) + len(gate_ids)) * requests
    return samples * (dim + 1) * a.itemsize


def free_gates(
    netlist: Netlist,
    a: np.ndarray,
    b: np.ndarray,
    gate_ids: np.ndarray,
    params,
) -> None:
    """Evaluate one level's free gates (CONST/BUF/NOT/LIN), in place.

    Gate order is topological, so a free gate may read another free
    gate of the same level; hence one gate at a time.  A cell's LINs
    are not evaluated: :func:`bootstrap_level` folds them into its SIGN.
    """
    n_in = netlist.num_inputs
    evaluated = netlist.linear_forms().evaluated
    for gate_idx in gate_ids[evaluated[gate_ids]].tolist():
        code = int(netlist.ops[gate_idx])
        node = n_in + gate_idx
        src = int(netlist.in0[gate_idx])
        if code == _BUF:
            a[node] = a[src]
            b[node] = b[src]
        elif code == _NOT:
            a[node] = wrap_int32(-a[src].astype(np.int64))
            b[node] = wrap_int32(-b[src].astype(np.int64))
        elif code == _CONST0 or code == _CONST1:
            const = trivial_bit(code == _CONST1, params)
            a[node] = const.a
            b[node] = const.b
        elif code == OP_LIN:
            other = int(netlist.in1[gate_idx])
            out = IntegerEncoding(int(netlist.prec[gate_idx])).lin_combine(
                LweCiphertext(a[src], b[src]),
                None
                if other == NO_INPUT
                else LweCiphertext(a[other], b[other]),
                int(netlist.kx[gate_idx]),
                int(netlist.ky[gate_idx]),
                int(netlist.kconst[gate_idx]),
            )
            a[node] = out.a
            b[node] = out.b
        else:  # pragma: no cover - the schedule lists free gates only
            raise AssertionError(f"{op_name(code)} is not a free gate")


#: What a bootstrap step reports for each task it ran on a worker:
#: ``(worker id, gates, seconds)``.
Chunk = Tuple[int, int, float]

#: The worker id of a chunk the driving process ran itself.
COORDINATOR = -1


class Plane(Protocol):
    """A run's ciphertexts: one LWE sample per node per request."""

    a: np.ndarray  # (nodes, R, n) masks
    b: np.ndarray  # (nodes, R) bodies


class CpuBackend:
    """Real TFHE execution, level-batched, in this process.

    Each BFS level bootstraps every gate of every stacked request in
    one vectorized call — the analogue of the paper's GPU batch
    execution, with SIMD across inference requests on top.
    """

    name = "cpu-batched"

    def __init__(
        self,
        cloud_key: CloudKey,
        obs: Optional[Observability] = None,
    ):
        self.cloud_key = cloud_key
        #: Explicit observability bundle; ``None`` means the ambient
        #: one (see :func:`repro.obs.observe`) is consulted per run.
        self.obs = obs

    def run(
        self,
        netlist: Netlist,
        inputs: LweCiphertext,
        schedule: Optional[Schedule] = None,
    ) -> Tuple[LweCiphertext, ExecutionReport]:
        """Evaluate the netlist once: the one-request case of the loop."""
        return self._execute(netlist, inputs, schedule, many=False)

    def run_many(
        self,
        netlist: Netlist,
        inputs: LweCiphertext,
        schedule: Optional[Schedule] = None,
    ) -> Tuple[LweCiphertext, ExecutionReport]:
        """Evaluate the same netlist over many encrypted input sets.

        ``inputs`` has batch shape ``(instances, num_inputs)``; the
        result has batch shape ``(instances, num_outputs)``.  Each BFS
        level bootstraps all instances in one vectorized call, so the
        per-gate cost amortizes across instances — SIMD over inference
        requests, the CPU analogue of GPU batch throughput.
        """
        return self._execute(netlist, inputs, schedule, many=True)

    def _execute(
        self,
        netlist: Netlist,
        inputs: LweCiphertext,
        schedule: Optional[Schedule],
        many: bool,
    ) -> Tuple[LweCiphertext, ExecutionReport]:
        """The one level loop every backend runs (paper Algorithm 1)."""
        n_in = netlist.num_inputs
        if not many:
            if inputs.batch_shape != (n_in,):
                raise ValueError(
                    f"expected {n_in} input ciphertexts, "
                    f"got {inputs.batch_shape}"
                )
            inputs = inputs[None]
        elif inputs.a.ndim != 3:
            raise ValueError(
                f"inputs must have batch shape (instances, num_inputs); "
                f"got batch shape {inputs.batch_shape}"
            )
        elif inputs.batch_shape[1] != n_in:
            raise ValueError(
                f"heterogeneous input width: this netlist takes "
                f"{n_in} input bits per instance, got "
                f"{inputs.batch_shape[1]}"
            )
        instances = inputs.batch_shape[0]
        if instances == 0:
            raise ValueError(
                "run_many needs at least one instance (empty batch)"
            )
        if netlist.num_nodes * instances > MAX_FHE_NODES:
            raise ValueError(
                f"{netlist.num_nodes} nodes x {instances} instances "
                f"exceeds the real-FHE executor limit ({MAX_FHE_NODES}); "
                f"use the performance simulators"
            )
        schedule = schedule or build_schedule(netlist)
        name = f"{self.name}-x{instances}" if many else self.name
        params = self.cloud_key.params
        obs = self.obs or _get_obs()
        observed = obs.active
        start = time.perf_counter()

        def span(
            kind: str, level: Level, gates: int, t0: float, t1: float,
            worker: Optional[int] = None,
        ) -> None:
            # Chunks land on their worker's track and carry its id.
            on_worker = {} if worker is None else {"worker": worker}
            if worker is None:
                track = None
            elif worker == COORDINATOR:
                track = "coordinator"
            else:
                track = f"worker-{worker}"
            obs.tracer.add(
                f"L{level.index} {kind}", cat="execute",
                start_s=t0, end_s=t1, track=track,
                level=level.index, kind=kind, gates=gates, **on_worker,
            )

        moved = 0
        tasks = 0
        with self._plane(netlist, schedule, instances) as plane:
            plane.a[:n_in] = np.swapaxes(inputs.a, 0, 1)
            plane.b[:n_in] = np.swapaxes(inputs.b, 0, 1)
            for level in schedule.levels:
                if level.width:
                    t0 = time.perf_counter()
                    level_moved, chunks = self._bootstrap_step(
                        netlist, plane, level
                    )
                    t1 = time.perf_counter()
                    moved += level_moved
                    # A step that ran in this process is one task.
                    tasks += len(chunks) or 1
                    if observed:
                        span("bootstrap", level, level.width, t0, t1)
                        # A worker's chunk ends with its level.
                        for worker, gates, seconds in chunks:
                            span(
                                "chunk", level, gates,
                                max(t0, t1 - seconds), t1, worker,
                            )
                        obs.metrics.observe(
                            "level_bootstrap_ms", (t1 - t0) * 1e3
                        )
                if len(level.free):
                    t0 = time.perf_counter()
                    free_gates(netlist, plane.a, plane.b, level.free, params)
                    if observed:
                        span(
                            "free", level, len(level.free), t0,
                            time.perf_counter(),
                        )
            # Fancy indexing copies the outputs out of the plane, so
            # they outlive it.
            outputs = LweCiphertext(
                np.swapaxes(plane.a[netlist.outputs], 0, 1),
                np.swapaxes(plane.b[netlist.outputs], 0, 1),
            )
        elapsed = time.perf_counter() - start
        if not many:
            outputs = outputs[0]
        report = ExecutionReport(
            backend=name,
            gates_total=netlist.num_gates * instances,
            gates_bootstrapped=schedule.num_bootstrapped * instances,
            levels=schedule.depth,
            wall_time_s=elapsed,
            ciphertext_bytes_moved=moved,
            tasks_submitted=tasks,
        )
        if observed:
            emit_execution_observability(
                obs, name, netlist, schedule,
                run_start=start, elapsed=elapsed,
                ciphertext_bytes_moved=moved, instances=instances,
            )
        self._finish(report, obs)
        return outputs, report

    # -- what a backend may override -----------------------------------
    @contextlib.contextmanager
    def _plane(
        self, netlist: Netlist, schedule: Schedule, instances: int
    ) -> Iterator[Plane]:
        """The run's ``(nodes, instances)`` ciphertext plane."""
        dim = self.cloud_key.params.lwe_dimension
        yield LweCiphertext(
            np.zeros((netlist.num_nodes, instances, dim), dtype=np.int32),
            np.zeros((netlist.num_nodes, instances), dtype=np.int32),
        )

    def _bootstrap_step(
        self, netlist: Netlist, plane: Plane, level: Level
    ) -> Tuple[int, Sequence[Chunk]]:
        """Bootstrap one level; returns (bytes moved, worker chunks)."""
        moved = bootstrap_level(
            self.cloud_key, netlist, plane.a, plane.b, level.bootstrapped
        )
        return moved, ()

    def _finish(self, report: ExecutionReport, obs: Observability) -> None:
        """Fill in what only this backend knows about a finished run."""
