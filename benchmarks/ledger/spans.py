"""The harness's own spans: one per call into a layer's public function.

Spans are recorded from outside the program (around the calls the
harness makes), kept in memory, and written once at exit as a Chrome
trace.  A span's name is ``<layer>.<what>``; its layer is the part
before the first dot.  Untraced runs use the same ``span()`` calls but
keep nothing: the handle only measures its own duration.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence


class Span:
    """One timed interval; ``s`` is its duration in seconds once closed."""

    __slots__ = ("id", "parent", "name", "start", "end", "tid")

    def __init__(self, name: str, parent: Optional[int]):
        self.id = -1
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.tid = threading.get_ident()

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans for one workload; ``keep=False`` only times them."""

    def __init__(self, workload: str, keep: bool):
        self.workload = workload
        self.keep = keep
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None) -> Iterator[Span]:
        """Time the block; nest under the thread's open span (or ``parent``)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent.id if parent is not None else None)
        if self.keep:
            with self._lock:
                span.id = len(self.spans)
                self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval timed elsewhere, under the open span."""
        with self.span(name) as span:
            pass
        span.start, span.end = start, end

    def seconds(self, name: str) -> List[float]:
        """Durations of every kept span called ``name``."""
        return [span.s for span in self.spans if span.name == name]


def covered(intervals: Sequence["tuple[float, float]"]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its same-thread children cover.

    Children on other threads (the serve workload's client connections)
    are their own tracks: the parent thread is blocked while they run,
    and that wait is the parent's self time.
    """
    children: Dict[int, List["tuple[float, float]"]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.tid != span.tid:
            continue
        children.setdefault(parent.id, []).append(
            (max(span.start, parent.start), min(span.end, parent.end))
        )
    return {
        span.id: span.s - covered(children.get(span.id, []))
        for span in spans
    }


def layer_self_times(spans: Sequence[Span], tid: int) -> Dict[str, float]:
    """Self time per layer over the spans of one thread, in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span.tid == tid:
            totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def chrome_trace(recorder: Recorder) -> dict:
    """The kept spans as a Chrome ``trace_event`` document."""
    spans = recorder.spans
    epoch = min((span.start for span in spans), default=0.0)
    tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in spans))}
    pid = os.getpid()
    events: List[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": index,
            "args": {"name": "main" if index == 0 else f"client-{index}"},
        }
        for index in tids.values()
    ]
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "pid": pid,
                "tid": tids[span.tid],
                "ts": (span.start - epoch) * 1e6,
                "dur": span.s * 1e6,
                "args": {
                    "id": span.id,
                    "parent": span.parent,
                    "workload": recorder.workload,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
