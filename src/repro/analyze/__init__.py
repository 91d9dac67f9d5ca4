"""Compile-time circuit verification for PyTFHE programs.

A rule-based, multi-pass static analyzer over netlists and packed
binaries, with four analysis families:

* **structural lint** (``SL``) — combinational loops, dangling or
  stray operands, dead/duplicate gates, constant-foldable residues;
* **schedule & hazard checking** (``HZ``/``IS``) — BFS-level legality
  and read-before-write / write-after-write / intra-level races over
  the result plane, plus packed instruction-stream discipline;
* **static noise certification** (``NB``) — per-level decision-margin
  prediction that fails compilation below a sigma threshold;
* **dataflow** (``DF``/``SC``) — abstract interpretation over the gate
  DAG: compile-time constant propagation and transparent-ciphertext
  taint tracking;
* **cost certification** (``CA``) — one vectorized sweep predicting
  execute latency per engine and the ciphertext-plane memory
  high-water mark, emitted as a serializable
  :class:`~repro.analyze.cost.CostCertificate` and gated against
  declared latency/memory budgets;
* **multi-bit coherence** (``MB``) — digit precision overflow over
  leveled LIN chains and LUT table/precision agreement, plus the NB
  and CA families lifted to ``p``-ary encodings
  (:mod:`repro.analyze.mb`).

The checkers run on :class:`~repro.hdl.facts.FlatCircuitFacts`, the
structure-of-arrays view a netlist derives once and caches, as
vectorized numpy transforms (the per-gate reference walks live in
``tests/analyze/legacy_oracle.py``).  Verdicts are cached by content hash (:mod:`repro.analyze.cache`), so
re-checking an unchanged program is a lookup, not a re-analysis.

Typical use::

    from repro.analyze import AnalyzerConfig, analyze_netlist
    from repro.tfhe import TFHE_DEFAULT_128

    analysis = analyze_netlist(
        netlist, AnalyzerConfig(params=TFHE_DEFAULT_128)
    )
    analysis.report.raise_on_errors()

or from the shell: ``python -m repro.cli check program.pytfhe``.
"""

from .analyzer import (
    Analysis,
    AnalyzerConfig,
    DEFAULT_CONFIG,
    analyze_binary,
    analyze_netlist,
)
from .cache import (
    AnalysisCache,
    analyze_binary_cached,
    analyze_netlist_cached,
    binary_digest,
    default_cache,
    netlist_digest,
)
from .cost import (
    DEFAULT_COST_CONFIG,
    CostAnalysisConfig,
    CostCertificate,
    certify_cost,
    cost_certificate,
)
from ..hdl.facts import FlatCircuitFacts
from .dataflow import UNKNOWN, check_dataflow, propagate_constants
from .findings import (
    AnalysisError,
    Collector,
    DEFAULT_MAX_FINDINGS_PER_RULE,
    Finding,
    Report,
    Severity,
)
from .hazards import check_program, check_schedule
from .mb import certify_noise_mb, check_mb, check_program_mb
from .noisecert import LevelCertificate, NoiseCertificate, certify_noise
from .passcheck import (
    DEFAULT_PASSES,
    PassCheckRecord,
    PassCheckResult,
    run_checked_passes,
)
from .rules import RULES, Rule, catalog_by_family, rule
from .structural import check_structure

__all__ = [
    "Analysis",
    "AnalysisCache",
    "AnalysisError",
    "AnalyzerConfig",
    "Collector",
    "CostAnalysisConfig",
    "CostCertificate",
    "DEFAULT_CONFIG",
    "DEFAULT_COST_CONFIG",
    "DEFAULT_MAX_FINDINGS_PER_RULE",
    "DEFAULT_PASSES",
    "Finding",
    "FlatCircuitFacts",
    "LevelCertificate",
    "NoiseCertificate",
    "PassCheckRecord",
    "PassCheckResult",
    "Report",
    "RULES",
    "Rule",
    "Severity",
    "UNKNOWN",
    "analyze_binary",
    "analyze_binary_cached",
    "analyze_netlist",
    "analyze_netlist_cached",
    "certify_noise_mb",
    "check_mb",
    "check_program_mb",
    "binary_digest",
    "catalog_by_family",
    "certify_cost",
    "certify_noise",
    "cost_certificate",
    "check_dataflow",
    "check_program",
    "check_schedule",
    "check_structure",
    "default_cache",
    "netlist_digest",
    "propagate_constants",
    "rule",
    "run_checked_passes",
]
