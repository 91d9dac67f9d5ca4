"""Content-hash analysis cache: certify a program once, reuse the verdict.

Static analysis is deterministic in exactly two things — the subject's
bytes and the analyzer configuration — so its :class:`Report` (and
noise certificate) can be cached under a content digest, the same
hashing discipline the serve :func:`~repro.serve.registry.program_id_of`
uses for program identity.  ``verify_compiled``, ``repro check``,
``Server(check_programs=True)``, and registry uploads all route through
the cached entry points here, so the second sight of an unchanged
program costs a hash instead of a re-analysis (no ``analyze:*`` span is
emitted on a hit).

Two layers:

* an in-process LRU (:class:`AnalysisCache`, default 128 entries),
* an optional disk directory (``repro check --cache-dir``) holding one
  JSON document per ``(subject digest, config digest)``, written
  atomically, so cache hits survive process boundaries.

Hits and misses are published as ``analyze_cache_hit`` /
``analyze_cache_miss`` counters on the ambient observability bundle.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..hdl.netlist import Netlist
from ..obs import get as _get_obs
from ..runtime.scheduler import Schedule
from .analyzer import DEFAULT_CONFIG, Analysis, AnalyzerConfig
from .analyzer import analyze_binary as _analyze_binary
from .analyzer import analyze_netlist as _analyze_netlist
from .cost import CostCertificate
from .findings import Report
from .noisecert import NoiseCertificate

Entry = Dict[str, Any]


def netlist_digest(netlist: Netlist) -> str:
    """Content hash of a netlist (the arrays that reach the analyzer).

    The precision/coefficient columns and every LUT table are folded in
    when the netlist has any — two programs with identical wiring but
    different tables must never share a verdict.
    """
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    h.update(b"\x00")
    h.update(str(netlist.num_inputs).encode())
    for arr in (netlist.ops, netlist.in0, netlist.in1, netlist.outputs):
        h.update(b"\x00")
        h.update(arr.tobytes())
    for names in (netlist.input_names, netlist.output_names):
        h.update(("\x00" + "\x1f".join(names)).encode())
    if netlist.is_multibit:
        h.update(b"\x00mb")
        for arr in (
            netlist.input_prec,
            netlist.input_bound,
            netlist.prec,
            netlist.kx,
            netlist.ky,
            netlist.kconst,
            netlist.table_id,
        ):
            h.update(b"\x00")
            h.update(arr.tobytes())
        for table in netlist.tables:
            h.update(b"\x00")
            h.update(table.tobytes())
    return h.hexdigest()[:32]


def binary_digest(data: bytes) -> str:
    """Content hash of a packed binary (same scheme as serve program ids)."""
    return hashlib.sha256(data).hexdigest()[:32]


def config_digest(config: AnalyzerConfig) -> str:
    """Digest of every config field that shapes the analysis output."""
    doc = (
        repr(config.params),
        config.structural,
        config.hazards,
        config.noise,
        config.dataflow,
        config.error_sigmas,
        config.warn_sigmas,
        config.max_expected_failures,
        config.max_findings_per_rule,
        # Cost certification: a changed calibration or budget must
        # never be served a stale certificate.
        config.cost,
        repr(config.cost_config),
    )
    return hashlib.sha256(repr(doc).encode()).hexdigest()[:16]


class AnalysisCache:
    """LRU of analysis verdicts, optionally spilled to a directory."""

    def __init__(
        self,
        max_entries: int = 128,
        directory: Optional[str] = None,
    ):
        self.max_entries = max_entries
        self.directory = directory
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Entry]" = OrderedDict()

    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.json")

    def lookup(self, key: str) -> Optional[Entry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        if self.directory is not None:
            try:
                with open(self._path(key), "r") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                return None
            if isinstance(entry, dict) and "report" in entry:
                with self._lock:
                    self._entries[key] = entry
                    self._trim()
                return entry
        return None

    def store(self, key: str, entry: Entry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._trim()
        if self.directory is not None:
            try:
                os.makedirs(self.directory, exist_ok=True)
                tmp = self._path(key) + ".tmp"
                with open(tmp, "w") as handle:
                    json.dump(entry, handle)
                os.replace(tmp, self._path(key))
            except OSError:
                pass  # a cold disk cache is a miss, never a failure

    def _trim(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_DEFAULT_CACHE = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide cache used when callers don't pass their own."""
    return _DEFAULT_CACHE


def _count(event: str) -> None:
    ob = _get_obs()
    if ob.active:
        ob.metrics.inc(event, 1)


def _entry_of(analysis: Analysis) -> Entry:
    entry: Entry = {
        "report": analysis.report.as_dict(),
        "families": list(analysis.families),
    }
    if analysis.noise is not None:
        entry["noise"] = analysis.noise.as_dict()
    if analysis.cost is not None:
        entry["cost"] = analysis.cost.as_dict()
    return entry


def _analysis_of(
    entry: Entry,
    netlist: Optional[Netlist],
    schedule: Optional[Schedule],
) -> Analysis:
    # Reports are mutable (``merge``); every hit gets a fresh copy.
    noise = entry.get("noise")
    cost = entry.get("cost")
    return Analysis(
        report=Report.from_dict(entry["report"]),
        schedule=schedule,
        noise=NoiseCertificate.from_dict(noise) if noise else None,
        cost=CostCertificate.from_dict(cost) if cost else None,
        netlist=netlist,
        families=list(entry["families"]),
    )


def _count_cost(config: AnalyzerConfig, hit: bool) -> None:
    """Certificates ride the verdict cache; count their hits separately."""
    if config.cost:
        _count("analyze_cost_cache_hit" if hit else "analyze_cost_cache_miss")


def analyze_netlist_cached(
    netlist: Netlist,
    config: AnalyzerConfig = DEFAULT_CONFIG,
    schedule: Optional[Schedule] = None,
    cache: Optional[AnalysisCache] = None,
    digest: Optional[str] = None,
) -> Analysis:
    """:func:`~repro.analyze.analyze_netlist` behind the content cache.

    ``digest`` lets callers that already hold a content hash (the serve
    registry's program id) skip re-hashing the netlist arrays.
    """
    cache = cache if cache is not None else _DEFAULT_CACHE
    key = (digest or netlist_digest(netlist)) + "-" + config_digest(config)
    entry = cache.lookup(key)
    if entry is not None:
        _count("analyze_cache_hit")
        _count_cost(config, hit=True)
        return _analysis_of(entry, netlist, schedule)
    _count("analyze_cache_miss")
    _count_cost(config, hit=False)
    analysis = _analyze_netlist(netlist, config, schedule)
    cache.store(key, _entry_of(analysis))
    return analysis


def analyze_binary_cached(
    data: bytes,
    config: AnalyzerConfig = DEFAULT_CONFIG,
    name: str = "binary",
    cache: Optional[AnalysisCache] = None,
) -> Analysis:
    """:func:`~repro.analyze.analyze_binary` behind the content cache.

    A hit skips the disassembly too, so the returned analysis carries
    no netlist/schedule — callers needing them should disassemble
    themselves (the registry already does).
    """
    cache = cache if cache is not None else _DEFAULT_CACHE
    key = (
        binary_digest(data)
        + "-"
        + hashlib.sha256(name.encode()).hexdigest()[:8]
        + "-"
        + config_digest(config)
    )
    entry = cache.lookup(key)
    if entry is not None:
        _count("analyze_cache_hit")
        _count_cost(config, hit=True)
        return _analysis_of(entry, None, None)
    _count("analyze_cache_miss")
    _count_cost(config, hit=False)
    analysis = _analyze_binary(data, config, name=name)
    cache.store(key, _entry_of(analysis))
    return analysis
