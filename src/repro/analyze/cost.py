"""Static cost & resource certification (the ``CA`` rule family).

Every compiled program has a cost that is fully determined *before any
ciphertext exists*: the per-level bootstrap histogram fixes how much
fused SIMD work each engine performs, the live-wire intervals fix the
ciphertext-plane memory high-water mark, and a calibrated
:class:`~repro.perfmodel.GateCostModel` turns both into milliseconds
and bytes.  :func:`certify_cost` computes all of it in one vectorized
sweep over :class:`~repro.hdl.facts.FlatCircuitFacts` and returns a
serializable :class:`CostCertificate` — a machine-checkable resource
contract that the serve admission path, the ``repro cost`` CLI, and the
CI cost gate all consume.

Latency is predicted per engine:

* ``batched`` — the level-batched SIMD engine: each bootstrapped level
  is one fused call with a fixed startup plus a small marginal
  per-gate cost (the amortization the batched engine measures);
* ``2d@R`` — request × level 2-D batching ``R`` requests deep (the
  serving layer's regime), reported as per-request latency;
* ``distributed@W`` — ``W`` pool workers with per-task overhead and a
  level barrier, the same shape as
  :class:`~repro.perfmodel.ClusterSimulator`.

Rules: ``CA001`` (predicted latency over a declared budget, ERROR),
``CA002`` (memory high-water over a declared budget, ERROR), ``CA003``
(degenerate parallelism for the requested backend, WARNING).  With no
budgets declared the family only produces the certificate, never a
finding, so it is safe to run on every compile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gatetypes import TABLE_OPS
from ..hdl.facts import FlatCircuitFacts
from ..hdl.netlist import Netlist
from ..perfmodel.analysis import ParallelismProfile, classify_workload
from ..perfmodel.costs import PAPER_GATE_COST, GateCostModel
from .findings import Collector
from .rules import RULES

#: Engines whose latency the certificate predicts for CA003 purposes.
PARALLEL_BACKENDS = ("batched", "distributed", "2d")

#: Serialization format marker for certificate JSON documents.
COST_CERT_FORMAT = "pytfhe-costcert/1"


@dataclass(frozen=True)
class CostAnalysisConfig:
    """Calibration + budgets for the cost-certification family.

    Every field shapes the analysis output, so all of them enter the
    analysis-cache config digest — a changed calibration or budget can
    never be served a stale certificate.
    """

    #: Calibrated per-gate cost; ``None`` means :data:`PAPER_GATE_COST`.
    gate_cost: Optional[GateCostModel] = None
    #: CA001 fires when the budget engine's prediction exceeds this.
    budget_ms: Optional[float] = None
    #: CA002 fires when the memory high-water mark exceeds this (MiB).
    budget_mb: Optional[float] = None
    #: Backend the program is destined for: selects the budget engine
    #: and arms CA003 (degenerate parallelism).  ``None`` = unknown.
    backend: Optional[str] = None
    #: Request depth of the 2-D (request x level) prediction.
    requests: int = 4
    #: Worker counts the distributed prediction sweeps.
    worker_counts: Tuple[int, ...] = (1, 2, 4, 8)
    #: Fused-call startup per bootstrapped level, in ``gate_ms`` units.
    batched_overhead_factor: float = 1.0
    #: Marginal per-gate cost inside a fused level, as a fraction of
    #: ``gate_ms`` (the batched engine's measured amortization).
    batched_marginal_fraction: float = 0.125
    #: Per-task overhead a distributed worker pays per gate (ms).
    task_overhead_ms: float = 0.45
    #: Synchronization barrier closing each distributed level (ms).
    level_barrier_ms: float = 1.0
    #: CA003 fires below this work/span bound for parallel backends.
    degenerate_speedup: float = 2.0

    @property
    def cost(self) -> GateCostModel:
        return self.gate_cost if self.gate_cost is not None else PAPER_GATE_COST


DEFAULT_COST_CONFIG = CostAnalysisConfig()


@dataclass
class CostCertificate:
    """The static resource contract of one compiled program.

    Serializable (``to_json``/``from_json`` round-trip losslessly) and
    content-hash cacheable alongside analyzer verdicts; the serve
    registry stores one per program and the scheduler's admission path
    reads :meth:`predicted_execute_ms` before queueing a request.
    """

    subject: str
    cost_model: str
    gate_ms: float
    linear_ms: float
    ciphertext_bytes: int
    gates: int
    bootstrapped: int
    free_gates: int
    #: Critical-path depth: number of levels with bootstrapped gates.
    depth: int
    #: Multi-bit LUT bootstraps (LUT/B2D/D2B) within ``bootstrapped``,
    #: and the per-bootstrap price they were charged at.
    lut_bootstrapped: int = 0
    lut_ms: float = 0.0
    #: Bootstrapped / free gate count per BFS level (index = level).
    bootstrap_histogram: List[int] = field(default_factory=list)
    free_histogram: List[int] = field(default_factory=list)
    #: Ciphertext-plane memory high-water mark (live-wire intervals).
    peak_live_wires: int = 0
    peak_memory_bytes: int = 0
    #: Work/span parallelism classification (perfmodel buckets).
    classification: str = "trivial"
    max_speedup: float = 1.0
    mean_width: float = 0.0
    #: Predicted execute latency (ms) per engine key.
    predicted_ms: Dict[str, float] = field(default_factory=dict)

    def predicted_execute_ms(
        self, engine: str = "batched"
    ) -> Optional[float]:
        """The prediction for ``engine``, with graceful fallbacks.

        An exact key wins; a bare prefix (``"distributed"``) picks its
        most conservative (slowest) sweep point; an unknown engine
        falls back to the worst prediction on record, which errs on
        the side of refusing infeasible deadlines.
        """
        if not self.predicted_ms:
            return None
        exact = self.predicted_ms.get(engine)
        if exact is not None:
            return exact
        prefixed = [
            ms
            for key, ms in self.predicted_ms.items()
            if key.split("@")[0] == engine.split("@")[0]
        ]
        if prefixed:
            return max(prefixed)
        return max(self.predicted_ms.values())

    def as_dict(self) -> dict:
        return {
            "format": COST_CERT_FORMAT,
            "subject": self.subject,
            "cost_model": self.cost_model,
            "gate_ms": self.gate_ms,
            "linear_ms": self.linear_ms,
            "ciphertext_bytes": self.ciphertext_bytes,
            "gates": self.gates,
            "bootstrapped": self.bootstrapped,
            "free_gates": self.free_gates,
            "depth": self.depth,
            "lut_bootstrapped": self.lut_bootstrapped,
            "lut_ms": self.lut_ms,
            "bootstrap_histogram": list(self.bootstrap_histogram),
            "free_histogram": list(self.free_histogram),
            "peak_live_wires": self.peak_live_wires,
            "peak_memory_bytes": self.peak_memory_bytes,
            "classification": self.classification,
            "max_speedup": self.max_speedup,
            "mean_width": self.mean_width,
            "predicted_ms": dict(self.predicted_ms),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CostCertificate":
        return cls(
            subject=doc["subject"],
            cost_model=doc["cost_model"],
            gate_ms=doc["gate_ms"],
            linear_ms=doc["linear_ms"],
            ciphertext_bytes=doc["ciphertext_bytes"],
            gates=doc["gates"],
            bootstrapped=doc["bootstrapped"],
            free_gates=doc["free_gates"],
            depth=doc["depth"],
            lut_bootstrapped=int(doc.get("lut_bootstrapped", 0)),
            lut_ms=float(doc.get("lut_ms", 0.0)),
            bootstrap_histogram=[int(x) for x in doc["bootstrap_histogram"]],
            free_histogram=[int(x) for x in doc["free_histogram"]],
            peak_live_wires=doc["peak_live_wires"],
            peak_memory_bytes=doc["peak_memory_bytes"],
            classification=doc["classification"],
            max_speedup=doc["max_speedup"],
            mean_width=doc["mean_width"],
            predicted_ms={
                str(k): float(v) for k, v in doc["predicted_ms"].items()
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CostCertificate":
        doc = json.loads(text)
        if doc.get("format") != COST_CERT_FORMAT:
            raise ValueError(
                f"not a cost certificate: format "
                f"{doc.get('format')!r} != {COST_CERT_FORMAT!r}"
            )
        return cls.from_dict(doc)

    def render_text(self) -> str:
        lines = [
            f"== cost certificate: {self.subject} ==",
            f"cost model: {self.cost_model}  "
            f"(gate {self.gate_ms:.2f} ms, linear {self.linear_ms:.3f} ms, "
            f"ciphertext {self.ciphertext_bytes} B)",
            f"gates: {self.gates} total, {self.bootstrapped} bootstrapped "
            f"over {self.depth} level(s), {self.free_gates} free"
            + (
                f" ({self.lut_bootstrapped} multi-bit LUT bootstraps "
                f"at {self.lut_ms:.2f} ms)"
                if self.lut_bootstrapped
                else ""
            ),
            f"parallelism: {self.classification}  "
            f"(work/span bound {self.max_speedup:.1f}x, "
            f"mean level width {self.mean_width:.1f})",
            f"memory high-water: {self.peak_live_wires} live ciphertexts "
            f"= {self.peak_memory_bytes / (1024 * 1024):.2f} MiB",
            "predicted execute latency:",
        ]
        for engine in sorted(self.predicted_ms):
            lines.append(
                f"  {engine:16s} {self.predicted_ms[engine]:12.1f} ms"
            )
        return "\n".join(lines)


def _level_histograms(
    flat: FlatCircuitFacts,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-level (bootstrapped, free, LUT) gate counts, index = level.

    The LUT histogram counts the multi-bit programmable bootstraps
    (LUT/B2D/D2B) — a subset of the bootstrapped histogram, priced like
    any bootstrap because each is a row of the same level call.
    """
    if not flat.num_gates:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    gate_levels = flat.node_levels[flat.num_inputs :]
    needs = flat.needs_bootstrap
    is_lut = np.isin(flat.ops, TABLE_OPS)
    width = int(gate_levels.max()) + 1
    boot = np.bincount(gate_levels[needs], minlength=width)
    free = np.bincount(gate_levels[~needs], minlength=width)
    lut = np.bincount(gate_levels[needs & is_lut], minlength=width)
    return (
        boot.astype(np.int64),
        free.astype(np.int64),
        lut.astype(np.int64),
    )


def _peak_live_wires(flat: FlatCircuitFacts) -> int:
    """High-water mark of simultaneously-live ciphertext wires.

    A node is born at its own BFS level and dies at the highest level
    of any consumer (outputs live to the last level).  The peak of the
    interval-overlap count is the ciphertext-plane working set a
    liveness-aware executor cannot go below.
    """
    num_nodes = flat.num_nodes
    if not num_nodes:
        return 0
    levels = flat.node_levels
    max_level = int(levels.max()) if num_nodes else 0
    death = levels.copy()  # no consumer: dead after its own level
    n_in = flat.num_inputs
    for slot_values, usable in (
        (flat.in0, flat.usable0),
        (flat.in1, flat.usable1),
    ):
        heads = slot_values[usable]
        reader_levels = levels[n_in:][usable]
        if heads.size:
            np.maximum.at(death, heads, reader_levels)
    outs = flat.outputs
    live_outs = outs[(outs >= 0) & (outs < num_nodes)]
    death[live_outs] = max_level
    births = np.bincount(levels, minlength=max_level + 2)
    deaths = np.bincount(death + 1, minlength=max_level + 2)
    alive = np.cumsum(births - deaths)
    return int(alive.max()) if alive.size else 0


def _predict_latency(
    boot_hist: np.ndarray,
    free_total: int,
    config: CostAnalysisConfig,
) -> Dict[str, float]:
    """Per-engine execute-latency predictions (ms), one numpy sweep."""
    cost = config.cost
    gate_ms = cost.gate_ms
    widths = boot_hist[boot_hist > 0].astype(np.float64)
    free_ms = free_total * cost.linear_ms
    overhead_ms = config.batched_overhead_factor * gate_ms
    marginal_ms = config.batched_marginal_fraction * gate_ms

    predictions: Dict[str, float] = {
        "batched": float(
            np.sum(overhead_ms + widths * marginal_ms)
        )
        + free_ms,
    }
    requests = max(1, config.requests)
    predictions[f"2d@{requests}"] = (
        float(np.sum(overhead_ms + widths * requests * marginal_ms))
        / requests
        + free_ms
    )
    task_ms = gate_ms + config.task_overhead_ms
    for workers in config.worker_counts:
        w = max(1, int(workers))
        level_ms = np.where(
            widths <= w, task_ms, widths * task_ms / w
        )
        predictions[f"distributed@{w}"] = float(
            np.sum(level_ms + config.level_barrier_ms)
        ) + free_ms
    return {key: float(ms) for key, ms in predictions.items()}


def _profile_of(boot_hist: np.ndarray) -> ParallelismProfile:
    widths = boot_hist[boot_hist > 0]
    if not widths.size:
        return ParallelismProfile(0, 0, 0, 0.0, 0.0, 0.0)
    return ParallelismProfile(
        gates=int(widths.sum()),
        depth=int(widths.size),
        max_width=int(widths.max()),
        mean_width=float(widths.mean()),
        width_p50=float(np.percentile(widths, 50)),
        width_p90=float(np.percentile(widths, 90)),
    )


def certify_cost(
    flat: FlatCircuitFacts,
    config: CostAnalysisConfig = DEFAULT_COST_CONFIG,
    collector: Optional[Collector] = None,
) -> CostCertificate:
    """Certify ``flat``'s latency/memory cost under ``config``.

    Findings land in ``collector`` only when a budget or backend is
    declared (``CA001``/``CA002``/``CA003``); the certificate always
    carries the full prediction set for reporting and admission.
    """
    col = collector if collector is not None else Collector()
    cost = config.cost
    boot_hist, free_hist, lut_hist = _level_histograms(flat)
    bootstrapped = int(boot_hist.sum())
    free_total = int(free_hist.sum())
    lut_total = int(lut_hist.sum())
    profile = _profile_of(boot_hist)
    predicted = _predict_latency(boot_hist, free_total, config)
    peak_wires = _peak_live_wires(flat)
    certificate = CostCertificate(
        subject=flat.name,
        cost_model=cost.name,
        gate_ms=cost.gate_ms,
        linear_ms=cost.linear_ms,
        ciphertext_bytes=cost.ciphertext_bytes,
        gates=flat.num_gates,
        bootstrapped=bootstrapped,
        free_gates=free_total,
        depth=profile.depth,
        lut_bootstrapped=lut_total,
        lut_ms=cost.gate_ms,
        bootstrap_histogram=[int(x) for x in boot_hist],
        free_histogram=[int(x) for x in free_hist],
        peak_live_wires=peak_wires,
        peak_memory_bytes=peak_wires * cost.ciphertext_bytes,
        classification=classify_workload(profile),
        max_speedup=float(profile.max_speedup),
        mean_width=float(profile.mean_width),
        predicted_ms=predicted,
    )
    _apply_budgets(certificate, config, col)
    return certificate


def _apply_budgets(
    certificate: CostCertificate,
    config: CostAnalysisConfig,
    col: Collector,
) -> None:
    budget_engine = config.backend or "batched"
    if config.budget_ms is not None:
        predicted = certificate.predicted_execute_ms(budget_engine)
        if predicted is not None and predicted > config.budget_ms:
            col.add(
                RULES["CA001"],
                f"predicted {budget_engine} execute latency is "
                f"{predicted:.1f} ms, over the declared budget of "
                f"{config.budget_ms:.1f} ms "
                f"({certificate.bootstrapped} bootstrapped gates over "
                f"{certificate.depth} levels at "
                f"{certificate.gate_ms:.2f} ms/gate)",
                fix_hint="shrink the circuit (prefix adders, multi-bit "
                "LUTs), pick a wider backend, or raise the budget",
            )
    if config.budget_mb is not None:
        budget_bytes = config.budget_mb * 1024 * 1024
        if certificate.peak_memory_bytes > budget_bytes:
            col.add(
                RULES["CA002"],
                f"ciphertext-plane memory high-water mark is "
                f"{certificate.peak_memory_bytes / (1024 * 1024):.2f} "
                f"MiB ({certificate.peak_live_wires} live ciphertexts "
                f"x {certificate.ciphertext_bytes} B), over the "
                f"declared budget of {config.budget_mb:.1f} MiB",
                fix_hint="narrow the circuit or shard execution so "
                "fewer wires are simultaneously live",
            )
    backend = (config.backend or "").split("@")[0]
    if (
        backend in PARALLEL_BACKENDS
        and certificate.bootstrapped > 0
        and certificate.max_speedup < config.degenerate_speedup
    ):
        col.add(
            RULES["CA003"],
            f"work/span bound caps any parallel speedup at "
            f"{certificate.max_speedup:.2f}x (mean level width "
            f"{certificate.mean_width:.1f}), so the requested "
            f"{config.backend!r} backend degenerates to serial "
            f"execution plus overhead",
            fix_hint="recompile with adder_style='prefix' to widen "
            "levels",
        )


def cost_certificate(
    netlist: Netlist,
    config: CostAnalysisConfig = DEFAULT_COST_CONFIG,
) -> CostCertificate:
    """Certify one netlist directly (no analyzer run, no findings)."""
    return certify_cost(netlist.facts, config)
