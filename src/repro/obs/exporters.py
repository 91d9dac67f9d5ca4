"""Trace exporters: Chrome ``trace_event`` JSON, JSONL streams, and the
text timeline of a run's per-level spans.

The Chrome export loads directly in Perfetto / ``chrome://tracing``:
spans become complete (``ph: "X"``) events in microseconds, and spans
carrying a logical ``track`` (per-worker chunks of the distributed
backend) are mapped onto their own synthetic thread rows with
``thread_name`` metadata, so the worker timeline reads like the
paper's Fig. 10 execution diagram.

:func:`validate_chrome_trace` is the schema check CI runs against the
emitted artifact — it accepts exactly what the exporter produces (and
any structurally equivalent ``trace_event`` document).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry
from .tracer import Span, Tracer

#: Synthetic tid space for logical tracks; real thread ids are
#: renumbered from 1 so the two can never collide.
_TRACK_TID_BASE = 10_000


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Flatten a tracer into a Chrome ``trace_event`` array."""
    events: List[dict] = []
    tid_map: Dict[Tuple[int, int], int] = {}
    track_map: Dict[Tuple[int, str], int] = {}

    def real_tid(pid: int, tid: int) -> int:
        key = (pid, tid)
        if key not in tid_map:
            tid_map[key] = len(tid_map) + 1
        return tid_map[key]

    def track_tid(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in track_map:
            track_map[key] = _TRACK_TID_BASE + len(track_map)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": track_map[key],
                    "args": {"name": track},
                }
            )
        return track_map[key]

    for span in tracer.iter_spans():
        tid = (
            track_tid(span.pid, span.track)
            if span.track is not None
            else real_tid(span.pid, span.tid)
        )
        args = span.args
        if span.trace_id is not None:
            # Surface the request identity in Perfetto's args panel so
            # one trace id can be followed across process/track rows.
            args = dict(args, trace_id=span.trace_id,
                        span_id=span.span_id)
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": tid,
                "args": args,
            }
        )
    for marker in list(tracer.instants):
        events.append(
            {
                "name": marker.name,
                "cat": marker.cat,
                "ph": "i",
                "ts": marker.ts_s * 1e6,
                "pid": marker.pid,
                "tid": real_tid(marker.pid, marker.tid),
                "s": "t",
                "args": marker.args,
            }
        )
    return events


def to_chrome_trace(
    tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> dict:
    """The full Chrome trace document (``traceEvents`` object form)."""
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        doc["otherData"] = {"metrics": metrics.as_dict()}
    return doc


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer, metrics), handle)


def jsonl_lines(tracer: Tracer) -> List[str]:
    """One JSON object per span/instant, in record order."""
    lines = []
    for span in tracer.iter_spans():
        record = {
            "type": "span",
            "name": span.name,
            "cat": span.cat,
            "start_s": span.start_s,
            "end_s": span.end_s,
            "pid": span.pid,
            "tid": span.tid,
            "track": span.track,
            "args": span.args,
        }
        if span.trace_id is not None:
            record["trace_id"] = span.trace_id
            record["span_id"] = span.span_id
            record["parent_id"] = span.parent_id
        lines.append(json.dumps(record))
    for marker in list(tracer.instants):
        lines.append(
            json.dumps(
                {
                    "type": "instant",
                    "name": marker.name,
                    "cat": marker.cat,
                    "ts_s": marker.ts_s,
                    "pid": marker.pid,
                    "tid": marker.tid,
                    "args": marker.args,
                }
            )
        )
    return lines


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        for line in jsonl_lines(tracer):
            handle.write(line + "\n")


_VALID_PHASES = {"X", "i", "M"}


def validate_chrome_trace(doc) -> int:
    """Validate a Chrome ``trace_event`` document; returns event count.

    Accepts both the bare-array and the ``{"traceEvents": [...]}``
    object form.  Raises :class:`ValueError` describing the first
    violation — this is the schema gate the CI benchmark-smoke job
    runs on the uploaded artifact.
    """
    if isinstance(doc, dict):
        if "traceEvents" not in doc:
            raise ValueError("object form must contain 'traceEvents'")
        events = doc["traceEvents"]
    else:
        events = doc
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"{where} missing {field!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where} name must be a string")
        phase = event["ph"]
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        for field in ("pid", "tid"):
            if not isinstance(event[field], int):
                raise ValueError(f"{where} {field} must be an int")
        if phase in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where} needs a non-negative ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} needs a non-negative dur")
        if phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where} metadata needs args.name")
    return len(events)


def trace_tree(tracer: Tracer, trace_id: str) -> dict:
    """Reassemble one request's causal span tree from a tracer.

    Returns ``{"trace_id": ..., "roots": [...], "orphans": [...],
    "spans": n}`` where each node is ``{"name", "span_id",
    "duration_ms", "track", "children": [...]}``.  A span whose
    parent_id doesn't resolve within the trace lands in ``orphans``
    (a disconnected tree — exactly what the serve e2e test asserts
    against).  Children are ordered by start time.
    """
    spans = [
        s for s in tracer.iter_spans() if s.trace_id == trace_id
    ]
    spans.sort(key=lambda s: s.start_s)
    by_id = {s.span_id: s for s in spans if s.span_id}
    nodes = {
        s.span_id: {
            "name": s.name,
            "span_id": s.span_id,
            "duration_ms": s.duration_s * 1e3,
            "track": s.track,
            "children": [],
        }
        for s in spans
    }
    roots, orphans = [], []
    for s in spans:
        node = nodes[s.span_id]
        if s.parent_id is None:
            roots.append(node)
        elif s.parent_id in by_id:
            nodes[s.parent_id]["children"].append(node)
        else:
            orphans.append(node)
    return {
        "trace_id": trace_id,
        "roots": roots,
        "orphans": orphans,
        "spans": len(spans),
    }


def _level_spans(spans: Iterable[Span]) -> List[Span]:
    """The per-level spans of a run (its ``run:*`` span has no kind)."""
    return [s for s in spans if "kind" in s.args]


def summarize_levels(spans: Iterable[Span]) -> dict:
    """Aggregate a run's ``L<n> bootstrap|free|chunk`` spans."""
    by_kind: Dict[str, List[Span]] = {
        "bootstrap": [], "free": [], "chunk": []
    }
    for span in _level_spans(spans):
        by_kind[span.args["kind"]].append(span)
    bootstrap_s, free_s, chunk_s = (
        sum(s.duration_s for s in by_kind[kind])
        for kind in ("bootstrap", "free", "chunk")
    )
    # Chunks run concurrently inside their level, so the bootstrap
    # fraction is taken over level time only; ``total_s`` still sums
    # every span (chunks double-count their level), while ``level_s``
    # is the non-overlapping driver-side wall estimate.
    level_s = bootstrap_s + free_s
    return {
        "levels": len(by_kind["bootstrap"]),
        "total_s": level_s + chunk_s,
        "level_s": level_s,
        "bootstrap_s": bootstrap_s,
        "free_s": free_s,
        "chunk_events": len(by_kind["chunk"]),
        "chunk_s": chunk_s,
        "bootstrap_fraction": bootstrap_s / level_s if level_s else 0.0,
        "widest_level": max(
            (s.args["gates"] for s in by_kind["bootstrap"]), default=0
        ),
    }


def render_levels(spans: Iterable[Span], width: int = 60) -> str:
    """ASCII Gantt chart of a run's level spans, one row per span.

    Rows are in start-time order whatever order the spans were
    recorded in, so a level's chunk rows follow its bootstrap row.
    A chunk row is tagged ``chunk/w<id>`` for a helper process and
    ``chunk/co`` for the coordinator's own shard.
    """
    rows = sorted(_level_spans(spans), key=lambda s: (s.start_s, s.end_s))
    if not rows:
        return "(empty trace)"
    t0 = rows[0].start_s
    extent = max(max(s.end_s for s in rows) - t0, 1e-9)
    glyphs = {"bootstrap": "#", "chunk": "=", "free": "-"}
    lines = []
    for span in rows:
        kind = span.args["kind"]
        begin = int((span.start_s - t0) / extent * width)
        length = max(1, int(span.duration_s / extent * width))
        bar = " " * begin + glyphs[kind] * length
        tag = kind
        if kind == "chunk":
            worker = span.args["worker"]
            tag = "chunk/co" if worker < 0 else f"chunk/w{worker}"
        lines.append(
            f"L{span.args['level']:<4d} {tag:9s} {span.args['gates']:6d}g "
            f"|{bar:<{width}}| {span.duration_s * 1e3:8.1f} ms"
        )
    return "\n".join(lines)
