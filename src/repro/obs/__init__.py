"""Unified observability: tracing, metrics, and noise telemetry.

Every layer of the framework — synthesis passes, the compiler, key
generation, the execution backends, and the distributed worker pools —
emits into the *ambient* :class:`Observability` bundle.  By default
the ambient bundle is disabled and every emit is a cheap no-op; wrap a
workload in :func:`observe` to collect everything::

    from repro import obs

    with obs.observe(noise_params=params) as ob:
        compiled = compile_model(model, shape)
        out, report = backend.run(compiled.netlist, ct)

    print(ob.metrics.render_text())
    obs.write_chrome_trace(ob.tracer, "trace.json", ob.metrics)

The Chrome trace loads in Perfetto (distributed chunk spans appear on
per-worker tracks); ``ob.metrics`` holds gate-type counters, per-pass
synthesis deltas, and transport byte counts; ``ob.noise`` (when
enabled) records the predicted noise margin of every executed level.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

from ..tfhe.params import TFHEParameters
from .exporters import (
    chrome_trace_events,
    jsonl_lines,
    render_levels,
    summarize_levels,
    to_chrome_trace,
    trace_tree,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .expose import (
    TelemetryServer,
    http_get,
    parse_prometheus,
    render_prometheus,
)
from .flight import FlightRecorder
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from .noisetrack import (
    LevelNoiseRecord,
    NoiseBreach,
    NoiseMonitor,
    NoiseTracker,
)
from .tracer import (
    NULL_TRACER,
    Instant,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    current_trace_context,
    new_span_id,
    new_trace_id,
    use_trace_context,
)


class Observability:
    """A tracer + metrics registry (+ optional noise tracker) bundle."""

    active = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        noise: Optional[NoiseTracker] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.noise = noise


class _DisabledObservability(Observability):
    """The default ambient bundle: everything is a no-op."""

    active = False

    def __init__(self):
        super().__init__(tracer=NULL_TRACER, metrics=NULL_METRICS)


#: Shared disabled bundle returned by :func:`get` when nothing is
#: being observed.
DISABLED = _DisabledObservability()

_ambient_lock = threading.Lock()
_ambient: Observability = DISABLED


def get() -> Observability:
    """The ambient observability bundle (disabled unless observing)."""
    return _ambient


def set_ambient(obs: Observability) -> Observability:
    """Install ``obs`` as the ambient bundle; returns the previous one.

    Unlike :func:`observe`, this is not scoped to a ``with`` block —
    it is the hook for long-running processes (the serve loop) that
    want always-on telemetry for their whole lifetime.  The caller is
    responsible for restoring the returned previous bundle (usually
    :data:`DISABLED`) on shutdown.
    """
    global _ambient
    with _ambient_lock:
        previous, _ambient = _ambient, obs
    return previous


@contextlib.contextmanager
def observe(
    noise_params: Optional[TFHEParameters] = None,
    warn_sigmas: float = 4.0,
    obs: Optional[Observability] = None,
) -> Iterator[Observability]:
    """Collect spans/metrics (and optionally noise) for a code block.

    Sets the ambient bundle for the duration of the ``with`` block and
    restores the previous one afterwards (nesting is allowed; the
    innermost bundle wins).  Pass ``noise_params`` to enable per-level
    noise-budget telemetry for runs executed inside the block, or an
    existing ``obs`` bundle to accumulate across several blocks.
    """
    global _ambient
    if obs is None:
        noise = (
            NoiseTracker(noise_params, warn_sigmas=warn_sigmas)
            if noise_params is not None
            else None
        )
        obs = Observability(noise=noise)
    with _ambient_lock:
        previous, _ambient = _ambient, obs
    try:
        yield obs
    finally:
        with _ambient_lock:
            _ambient = previous


__all__ = [
    "DEFAULT_BUCKETS",
    "DISABLED",
    "FlightRecorder",
    "Instant",
    "LevelNoiseRecord",
    "MetricsRegistry",
    "NoiseBreach",
    "NoiseMonitor",
    "NoiseTracker",
    "NullMetrics",
    "NullTracer",
    "NULL_METRICS",
    "NULL_TRACER",
    "Observability",
    "Span",
    "TelemetryServer",
    "TraceContext",
    "Tracer",
    "chrome_trace_events",
    "current_trace_context",
    "get",
    "http_get",
    "jsonl_lines",
    "new_span_id",
    "new_trace_id",
    "observe",
    "parse_prometheus",
    "render_levels",
    "render_prometheus",
    "set_ambient",
    "summarize_levels",
    "to_chrome_trace",
    "trace_tree",
    "use_trace_context",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
