"""Flight recorder: a bounded ring of recent spans, dumped on trouble.

A long-running server cannot keep every span, but the spans you want
are always the ones *just before* something went wrong.  The
:class:`FlightRecorder` subscribes to a :class:`Tracer` as a listener,
keeps the most recent ``capacity`` span/instant records in a ring
(``collections.deque`` with ``maxlen``), and on :meth:`trigger` writes
them out as a valid Chrome ``trace_event`` document named after the
trigger reason — so a BUSY storm, a blown deadline or a worker crash
each leave a Perfetto-loadable post-mortem under the dump directory.

Dumps are rate-limited (``min_dump_interval_s`` per reason) so a
rejection storm produces one file, not thousands.  A recorder with no
``dump_dir`` (or ``enabled=False``) still counts triggers but never
writes — the no-dump path the unit tests pin down.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Deque, Dict, List, Optional

from .tracer import Instant, Span, Tracer


class FlightRecorder:
    """Bounded ring of recent trace records with trigger-based dumps."""

    def __init__(
        self,
        capacity: int = 2048,
        dump_dir: Optional[str] = None,
        enabled: bool = True,
        min_dump_interval_s: float = 5.0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.enabled = enabled
        self.min_dump_interval_s = min_dump_interval_s
        self._lock = threading.Lock()
        self._ring: Deque[dict] = collections.deque(maxlen=capacity)
        self._last_dump: Dict[str, float] = {}
        self._tracer: Optional[Tracer] = None
        #: Trigger counts by reason (kept even when dumping is off).
        self.trigger_counts: Dict[str, int] = {}
        self.dumps_written: List[str] = []

    # -- wiring --------------------------------------------------------
    def attach(self, tracer: Tracer) -> None:
        """Start recording every span/instant the tracer sees."""
        self._tracer = tracer
        tracer.add_listener(self._on_record)

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.remove_listener(self._on_record)
            self._tracer = None

    # -- recording -----------------------------------------------------
    def _on_record(self, record: object) -> None:
        if not self.enabled:
            return
        event = self._to_event(record)
        if event is not None:
            with self._lock:
                self._ring.append(event)

    def record_event(self, name: str, cat: str = "flight",
                     **args) -> None:
        """Record a synthetic instant directly into the ring.

        For events that are not spans (e.g. "queue full") emitted by
        components that don't own a tracer.
        """
        if not self.enabled:
            return
        epoch = self._tracer.epoch if self._tracer is not None else 0.0
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": max(time.perf_counter() - epoch, 0.0) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 10_000,
            "s": "t",
            "args": args,
        }
        with self._lock:
            self._ring.append(event)

    @staticmethod
    def _to_event(record: object) -> Optional[dict]:
        if isinstance(record, Span):
            args = dict(record.args)
            if record.trace_id is not None:
                args["trace_id"] = record.trace_id
                args["span_id"] = record.span_id
                if record.parent_id is not None:
                    args["parent_id"] = record.parent_id
            if record.track is not None:
                args["track"] = record.track
            return {
                "name": record.name,
                "cat": record.cat,
                "ph": "X",
                "ts": record.start_s * 1e6,
                "dur": record.duration_s * 1e6,
                "pid": record.pid,
                "tid": record.tid % 10_000,
                "args": args,
            }
        if isinstance(record, Instant):
            return {
                "name": record.name,
                "cat": record.cat,
                "ph": "i",
                "ts": record.ts_s * 1e6,
                "pid": record.pid,
                "tid": record.tid % 10_000,
                "s": "t",
                "args": record.args,
            }
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def snapshot(self) -> List[dict]:
        """The current ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    # -- triggering ----------------------------------------------------
    def trigger(self, reason: str, **context) -> Optional[str]:
        """Dump the ring because of ``reason``; returns the file path.

        Counts the trigger unconditionally.  Writes nothing when
        disabled, when no dump directory is configured, or when the
        same reason fired within ``min_dump_interval_s`` (returns
        ``None`` in all three cases).
        """
        with self._lock:
            self.trigger_counts[reason] = (
                self.trigger_counts.get(reason, 0) + 1
            )
            if not self.enabled or not self.dump_dir:
                return None
            now = time.monotonic()
            last = self._last_dump.get(reason)
            if (
                last is not None
                and now - last < self.min_dump_interval_s
            ):
                return None
            self._last_dump[reason] = now
            events = list(self._ring)
            seq = sum(self.trigger_counts.values())
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "flight_reason": reason,
                "flight_context": {
                    k: repr(v) if not isinstance(
                        v, (str, int, float, bool, type(None))
                    ) else v
                    for k, v in context.items()
                },
            },
        }
        safe_reason = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in reason
        )
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(
            self.dump_dir, f"flight_{seq:04d}_{safe_reason}.json"
        )
        with open(path, "w") as handle:
            json.dump(doc, handle)
        with self._lock:
            self.dumps_written.append(path)
        return path


__all__ = ["FlightRecorder"]
