"""Structured span/event tracing for compile and execute pipelines.

One :class:`Tracer` collects :class:`Span` records (named, categorized
time intervals on a shared monotonic clock) from every layer of the
framework: synthesis passes, netlist elaboration, key generation,
encryption, per-level backend execution, and per-worker chunks of the
distributed backend.  Spans carry the emitting process/thread ids
plus an optional logical *track* (e.g. ``worker-3``), which the Chrome
trace exporter maps to its own timeline row.

Spans can also carry a *trace context* — a request-scoped
``trace_id`` plus a parent/child span-id chain — so one encrypted
inference is traceable from the client SDK through the serving
layer's batcher into per-level backend execution and per-worker
chunks.  The context is ambient (a :mod:`contextvars` variable): enter
one with :func:`use_trace_context` and every span recorded inside the
block (including spans recorded by nested ``tracer.span(...)``
handles, which push child contexts) is stamped as a child of it.
Contexts serialize to/from wire headers with
:meth:`TraceContext.to_header` / :meth:`TraceContext.from_header`.

All mutation happens under a lock, so backends running free gates on
the main thread while worker results arrive are safe, and the tracer
can be shared across threads.  The disabled path is a module-level
:data:`NULL_TRACER` whose methods are no-ops — hot loops guard on
``tracer.enabled`` (or :attr:`Observability.active`) so tracing off
costs one attribute check per level.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """One node of a request's causal tree, propagatable across wires.

    ``trace_id`` names the whole request tree; ``span_id`` names this
    node; ``parent_id`` points at the node that caused it (``None``
    for the root).  Immutable — derive children with :meth:`child`.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A fresh context one level below this one."""
        return TraceContext(self.trace_id, new_span_id(), self.span_id)

    def to_header(self) -> Dict[str, str]:
        """Wire representation (the FHES ``trace`` header field)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_header(cls, header: Any) -> Optional["TraceContext"]:
        """Parse a wire header produced by :meth:`to_header`.

        Returns ``None`` (rather than raising) for anything malformed:
        a missing or garbled trace header must never fail a request.
        """
        if not isinstance(header, dict):
            return None
        trace_id = header.get("trace_id")
        span_id = header.get("span_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    @classmethod
    def root(cls) -> "TraceContext":
        """Mint a brand-new root context (a new trace)."""
        return cls(new_trace_id(), new_span_id())


_CURRENT_CTX: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_trace_context() -> Optional[TraceContext]:
    """The ambient trace context, if any."""
    return _CURRENT_CTX.get()


@contextlib.contextmanager
def use_trace_context(
    ctx: Optional[TraceContext],
) -> Iterator[Optional[TraceContext]]:
    """Make ``ctx`` the ambient trace context for the ``with`` block.

    Spans recorded inside the block become children of ``ctx``.
    Passing ``None`` clears the ambient context (detaches the block
    from any enclosing trace).
    """
    token = _CURRENT_CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT_CTX.reset(token)


@dataclass
class Span:
    """One named time interval, relative to its tracer's epoch."""

    name: str
    cat: str
    start_s: float
    end_s: float
    pid: int
    tid: int
    #: Logical timeline row (e.g. ``"worker-3"``); ``None`` means the
    #: emitting thread's own row.
    track: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    #: Request-tree identity; ``None`` when recorded outside any
    #: trace context.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Instant:
    """A zero-duration marker (Chrome ``ph: "i"`` event)."""

    name: str
    cat: str
    ts_s: float
    pid: int
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """Context manager yielded by :meth:`Tracer.span`.

    The handle's :attr:`args` dict becomes the span's args, so callers
    can attach results computed inside the block::

        with tracer.span("synth:optimize", cat="compile") as sp:
            out = optimize(netlist)
            sp.args["gates_out"] = out.num_gates
    """

    __slots__ = (
        "_tracer", "name", "cat", "track", "args", "_t0",
        "_ctx", "_ctx_token",
    )

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 track: Optional[str], args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args
        self._ctx: Optional[TraceContext] = None
        self._ctx_token = None

    def __enter__(self) -> "_SpanHandle":
        # When a trace context is ambient, this span becomes a child
        # of it, and spans recorded inside the block become children
        # of *this* span (the context nests with the handles).
        parent = _CURRENT_CTX.get()
        if parent is not None:
            self._ctx = parent.child()
            self._ctx_token = _CURRENT_CTX.set(self._ctx)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        if self._ctx_token is not None:
            _CURRENT_CTX.reset(self._ctx_token)
            self._ctx_token = None
        self._tracer.add(
            self.name,
            cat=self.cat,
            start_s=self._t0,
            end_s=end,
            track=self.track,
            ctx=self._ctx,
            **self.args,
        )


class Tracer:
    """Thread-safe span collector on a monotonic clock.

    All public timestamps are ``time.perf_counter()`` values; spans are
    stored relative to the tracer's creation epoch so exports start
    near zero.

    ``max_spans`` bounds the retained history: when set, the oldest
    spans/instants are discarded once the limit is exceeded, so a
    long-running service can keep an always-on tracer without growing
    without bound (the flight recorder keeps its own ring of recent
    records for post-mortems).  Listeners registered with
    :meth:`add_listener` see every span/instant as it is recorded,
    retained or not.
    """

    enabled = True

    def __init__(self, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be positive")
        self._lock = threading.Lock()
        self.epoch = time.perf_counter()
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._listeners: List[Callable[[object], None]] = []

    def now(self) -> float:
        """Current time on the span clock (absolute perf_counter)."""
        return time.perf_counter()

    def add_listener(self, listener: Callable[[object], None]) -> None:
        """Call ``listener(record)`` for every new span/instant."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[object], None]
    ) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, record) -> None:
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception:
                # A broken listener must never take down the traced
                # workload; the record stays in the tracer regardless.
                pass

    def span(self, name: str, cat: str = "default",
             track: Optional[str] = None, **args) -> _SpanHandle:
        """Context manager timing the enclosed block as one span."""
        return _SpanHandle(self, name, cat, track, args)

    def add(self, name: str, cat: str = "default", *,
            start_s: float, end_s: float,
            track: Optional[str] = None,
            ctx: Optional[TraceContext] = None, **args) -> None:
        """Record an externally timed span (perf_counter endpoints).

        ``ctx`` pins the span's exact trace identity (used when a
        span id was pre-allocated so children could reference it
        before the span completed).  Without it, an ambient trace
        context stamps the span as a fresh child of that context.
        """
        if ctx is None:
            parent = _CURRENT_CTX.get()
            if parent is not None:
                ctx = parent.child()
        span = Span(
            name=name,
            cat=cat,
            start_s=start_s - self.epoch,
            end_s=end_s - self.epoch,
            pid=os.getpid(),
            tid=threading.get_ident(),
            track=track,
            args=args,
            trace_id=ctx.trace_id if ctx is not None else None,
            span_id=ctx.span_id if ctx is not None else None,
            parent_id=ctx.parent_id if ctx is not None else None,
        )
        with self._lock:
            self.spans.append(span)
            if (
                self.max_spans is not None
                and len(self.spans) > self.max_spans
            ):
                del self.spans[: len(self.spans) - self.max_spans]
            listeners = bool(self._listeners)
        if listeners:
            self._notify(span)

    def instant(self, name: str, cat: str = "default", **args) -> None:
        ctx = _CURRENT_CTX.get()
        marker = Instant(
            name=name,
            cat=cat,
            ts_s=time.perf_counter() - self.epoch,
            pid=os.getpid(),
            tid=threading.get_ident(),
            args=(
                dict(args, trace_id=ctx.trace_id)
                if ctx is not None
                else args
            ),
        )
        with self._lock:
            self.instants.append(marker)
            if (
                self.max_spans is not None
                and len(self.instants) > self.max_spans
            ):
                del self.instants[: len(self.instants) - self.max_spans]
            listeners = bool(self._listeners)
        if listeners:
            self._notify(marker)

    def iter_spans(self, cat: Optional[str] = None) -> Iterator[Span]:
        with self._lock:
            snapshot = list(self.spans)
        for span in snapshot:
            if cat is None or span.cat == cat:
                yield span


class _NullHandle:
    """No-op stand-in for :class:`_SpanHandle` when tracing is off.

    Still exposes a real ``args`` dict so instrumented code can attach
    results unconditionally; the dict is simply discarded.
    """

    __slots__ = ("args",)

    def __enter__(self) -> "_NullHandle":
        self.args: Dict[str, Any] = {}
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name: str, cat: str = "default",
             track: Optional[str] = None, **args) -> _NullHandle:
        return _NullHandle()

    def add(self, *a, **kw) -> None:
        pass

    def instant(self, *a, **kw) -> None:
        pass


#: Shared disabled tracer (safe: it holds no state).
NULL_TRACER = NullTracer()
