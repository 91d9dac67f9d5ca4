"""The analyzer driver: configuration + entry points.

``analyze_netlist`` runs the analysis families a netlist's own columns
call for — structural lint and dataflow constant/transparency
propagation on boolean circuits, multi-bit coherence on circuits with
digit wires, and schedule/hazard checking, static noise certification
and cost certification on both — and returns a
:class:`~repro.analyze.findings.Report`.
``analyze_binary`` does the same for a packed 128-bit program: the
instruction stream is linted first, and only a stream with no error
findings is disassembled into a netlist for the deeper families — a
corrupt binary yields findings, never a parse exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..hdl.netlist import Netlist
from ..isa.decoder import decode
from ..obs import get as _get_obs
from ..runtime.scheduler import Schedule, build_schedule
from ..tfhe.params import TFHEParameters
from .cost import (
    DEFAULT_COST_CONFIG,
    CostAnalysisConfig,
    CostCertificate,
    certify_cost,
)
from .dataflow import check_dataflow
from .findings import DEFAULT_MAX_FINDINGS_PER_RULE, Collector, Report
from .hazards import check_program, check_schedule
from .mb import check_mb
from .noisecert import NoiseCertificate, certify_noise
from .structural import check_structure


@dataclass(frozen=True)
class AnalyzerConfig:
    """Which families run and how strict the noise certification is."""

    #: Parameter set for noise certification (None disables the family).
    params: Optional[TFHEParameters] = None
    structural: bool = True
    hazards: bool = True
    noise: bool = True
    #: Constant propagation + transparency taint (``DF``/``SC``).
    dataflow: bool = True
    #: Cost certification (``CA``): latency/memory prediction + budgets.
    cost: bool = True
    #: Calibration and budgets driving the cost family.
    cost_config: CostAnalysisConfig = DEFAULT_COST_CONFIG
    #: A level below this margin is an ERROR (fails compilation).
    error_sigmas: float = 4.0
    #: A level below this margin is a WARNING.
    warn_sigmas: float = 6.0
    #: Budget for expected wrong gate decryptions circuit-wide.
    max_expected_failures: float = 1e-6
    #: Stored findings per rule; overflow is counted, not stored.
    max_findings_per_rule: int = DEFAULT_MAX_FINDINGS_PER_RULE

    def with_params(self, params: Optional[TFHEParameters]) -> "AnalyzerConfig":
        return replace(self, params=params)


DEFAULT_CONFIG = AnalyzerConfig()


@dataclass
class Analysis:
    """A report plus the side artifacts the CLI renders."""

    report: Report
    schedule: Optional[Schedule] = None
    noise: Optional[NoiseCertificate] = None
    cost: Optional[CostCertificate] = None
    netlist: Optional[Netlist] = None
    families: List[str] = field(default_factory=list)


def _publish(report: Report) -> None:
    """Feed finding counters into the ambient observability bundle."""
    ob = _get_obs()
    if not ob.active:
        return
    ob.metrics.inc("analyze_runs", 1)
    for finding in report.findings:
        ob.metrics.inc(
            "analyze_findings",
            1,
            rule=finding.rule,
            severity=finding.severity.name,
        )
    for rule, count in report.suppressed.items():
        ob.metrics.inc(
            "analyze_findings_suppressed", count, rule=rule
        )


def analyze_netlist(
    netlist: Netlist,
    config: AnalyzerConfig = DEFAULT_CONFIG,
    schedule: Optional[Schedule] = None,
) -> Analysis:
    """Run the configured analysis families over one netlist.

    The netlist's own columns pick the families.  A netlist with a
    digit wire or a table gets the MB coherence checks; the bit-level
    structural and dataflow families skip it (the constructor enforces
    the structural invariants, and bit-level constant propagation has no
    digit semantics yet).  A netlist of bits and MAJ3/XOR3 cells is a
    bit-level netlist.  Hazard replay, noise certification and cost
    certification run over the whole op vocabulary either way.
    """
    col = Collector(max_per_rule=config.max_findings_per_rule)
    families: List[str] = []
    certificate: Optional[NoiseCertificate] = None
    cost_cert: Optional[CostCertificate] = None
    boolean = not netlist.has_digits
    with _get_obs().tracer.span(
        "analyze:netlist", cat="compile", circuit=netlist.name,
        gates=netlist.num_gates,
    ) as sp:
        if not boolean:
            families.append("mb")
            check_mb(netlist, col)
        if config.structural and boolean:
            families.append("structural")
            check_structure(netlist.facts, col)
        if config.hazards or (config.noise and config.params is not None):
            if schedule is None:
                schedule = build_schedule(netlist)
        if config.hazards:
            families.append("hazards")
            assert schedule is not None
            check_schedule(netlist, schedule, col)
        if config.noise and config.params is not None:
            families.append("noise")
            assert schedule is not None
            certificate = certify_noise(
                netlist,
                schedule,
                config.params,
                error_sigmas=config.error_sigmas,
                warn_sigmas=config.warn_sigmas,
                max_expected_failures=config.max_expected_failures,
                collector=col,
            )
        if config.dataflow and boolean:
            families.append("dataflow")
            check_dataflow(netlist.facts, col)
        if config.cost:
            families.append("cost")
            cost_cert = certify_cost(netlist.facts, config.cost_config, col)
        report = col.into_report(netlist.name, families)
        sp.args["findings"] = len(report)
        sp.args["errors"] = len(report.errors())
    _publish(report)
    return Analysis(
        report=report,
        schedule=schedule,
        noise=certificate,
        cost=cost_cert,
        netlist=netlist,
        families=list(families),
    )


def analyze_binary(
    data: bytes,
    config: AnalyzerConfig = DEFAULT_CONFIG,
    name: str = "binary",
) -> Analysis:
    """Analyze a packed program: stream lint, then netlist families.

    The stream is decoded once.  Its ``IS`` checks always run; when
    they produce no error findings the netlist is built from the same
    decode and the structural/hazard/noise families run on it;
    otherwise the report carries the stream findings alone (the binary
    is not executable anyway).
    """
    col = Collector(max_per_rule=config.max_findings_per_rule)
    with _get_obs().tracer.span(
        "analyze:binary", cat="compile", bytes=len(data)
    ):
        stream = decode(data)
        check_program(stream, col)
        stream_report = col.into_report(name, ["stream"])
        if stream_report.has_errors:
            _publish(stream_report)
            return Analysis(report=stream_report, families=["stream"])
        netlist = stream.netlist(name)
    analysis = analyze_netlist(netlist, config)
    analysis.report.merge(stream_report)
    analysis.report.subject = name
    families = ["stream"] + [
        f for f in analysis.report.families if f != "stream"
    ]
    analysis.report.families = families
    analysis.families = families
    return analysis
