"""Execution trace tests."""

import numpy as np
import pytest

from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.runtime import (
    CpuBackend,
    TraceEvent,
    render_trace,
    summarize_trace,
)
from repro.tfhe import encrypt_bits


@pytest.fixture(scope="module")
def traced_run(test_keys):
    secret, cloud = test_keys
    bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
    a = [bd.input() for _ in range(4)]
    b = [bd.input() for _ in range(4)]
    total = arith.ripple_add(bd, a, b, width=4, signed=False)
    bd.output(bd.not_(total[-1]))
    for bit in total[:-1]:
        bd.output(bit)
    nl = bd.build()
    rng = np.random.default_rng(0)
    ct = encrypt_bits(secret, rng.integers(0, 2, 8).astype(bool), rng)
    backend = CpuBackend(cloud, trace=True)
    _, report = backend.run(nl, ct)
    return nl, report


def test_trace_collected(traced_run):
    _, report = traced_run
    assert report.trace
    bootstrap_events = [e for e in report.trace if e.kind == "bootstrap"]
    assert sum(e.gates for e in bootstrap_events) == report.gates_bootstrapped


def test_trace_is_time_ordered(traced_run):
    _, report = traced_run
    times = [e.start_s for e in report.trace]
    assert times == sorted(times)
    assert all(e.end_s >= e.start_s for e in report.trace)


def test_trace_disabled_by_default(test_keys, rng):
    secret, cloud = test_keys
    bd = CircuitBuilder()
    a, b = bd.inputs(2)
    bd.output(bd.and_(a, b))
    ct = encrypt_bits(secret, [True, False], rng)
    _, report = CpuBackend(cloud).run(bd.build(), ct)
    assert report.trace == []


def test_summarize(traced_run):
    _, report = traced_run
    summary = summarize_trace(report.trace)
    assert summary["levels"] > 0
    assert 0.5 < summary["bootstrap_fraction"] <= 1.0
    assert summary["total_s"] == pytest.approx(
        sum(e.duration_s for e in report.trace)
    )


def test_render(traced_run):
    _, report = traced_run
    text = render_trace(report.trace)
    assert "#" in text and "ms" in text
    assert len(text.splitlines()) == len(report.trace)


def test_render_empty():
    assert "empty" in render_trace([])


class TestSummarizeEdgeCases:
    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary["levels"] == 0
        assert summary["total_s"] == 0.0
        assert summary["level_s"] == 0.0
        assert summary["bootstrap_fraction"] == 0.0
        assert summary["widest_level"] == 0
        assert summary["chunk_events"] == 0

    def test_chunk_only_trace(self):
        # A worker-side fragment: chunk events with no enclosing
        # bootstrap rows.  No levels, but chunk time is accounted.
        events = [
            TraceEvent(1, "chunk", 8, 0.0, 0.4, worker=0),
            TraceEvent(1, "chunk", 8, 0.0, 0.5, worker=1),
        ]
        summary = summarize_trace(events)
        assert summary["levels"] == 0
        assert summary["chunk_events"] == 2
        assert summary["chunk_s"] == pytest.approx(0.9)
        assert summary["level_s"] == 0.0
        assert summary["bootstrap_fraction"] == 0.0

    def test_chunks_overlap_their_bootstrap_level(self):
        # Chunks run concurrently inside their level: total_s
        # double-counts them, level_s does not.
        events = [
            TraceEvent(1, "bootstrap", 16, 0.0, 0.5),
            TraceEvent(1, "chunk", 8, 0.0, 0.4, worker=0),
            TraceEvent(1, "chunk", 8, 0.0, 0.5, worker=1),
            TraceEvent(1, "free", 2, 0.5, 0.6),
        ]
        summary = summarize_trace(events)
        assert summary["level_s"] == pytest.approx(0.6)
        assert summary["total_s"] == pytest.approx(0.6 + 0.9)
        assert summary["chunk_s"] == pytest.approx(0.9)
        assert summary["bootstrap_fraction"] == pytest.approx(0.5 / 0.6)

    def test_free_only_trace_has_zero_bootstrap_fraction(self):
        events = [TraceEvent(0, "free", 3, 0.0, 0.1)]
        summary = summarize_trace(events)
        assert summary["levels"] == 0
        assert summary["bootstrap_fraction"] == 0.0
        assert summary["level_s"] == pytest.approx(0.1)


class TestRenderOrderingAndGlyphs:
    def test_rows_sorted_by_start_time(self):
        # Appended out of order (the shm backend appends chunk events
        # as worker results arrive); render must sort by start.
        events = [
            TraceEvent(2, "bootstrap", 4, 1.0, 1.5),
            TraceEvent(1, "bootstrap", 4, 0.0, 0.5),
            TraceEvent(1, "chunk", 2, 0.1, 0.4, worker=0),
        ]
        lines = render_trace(events).splitlines()
        assert lines[0].startswith("L1    bootstrap")
        assert lines[1].startswith("L1    chunk/w0")
        assert lines[2].startswith("L2    bootstrap")

    def test_each_kind_has_its_own_glyph(self):
        events = [
            TraceEvent(1, "bootstrap", 4, 0.0, 0.5),
            TraceEvent(1, "chunk", 2, 0.1, 0.4, worker=0),
            TraceEvent(1, "free", 1, 0.5, 0.6),
        ]
        boot_row, chunk_row, free_row = render_trace(events).splitlines()
        assert "#" in boot_row and "=" not in boot_row
        assert "=" in chunk_row and "#" not in chunk_row
        assert "-" in free_row and "#" not in free_row
