"""Execution trace tests: the level loop's spans and their text views."""

import numpy as np
import pytest

from repro import obs
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.obs import Span, render_levels, summarize_levels
from repro.runtime import CpuBackend
from repro.tfhe import encrypt_bits


def level_span(level, kind, gates, start_s, end_s, worker=None):
    """A span shaped like the ones ``CpuBackend._execute`` records."""
    args = {"level": level, "kind": kind, "gates": gates}
    if worker is not None:
        args["worker"] = worker
    return Span(
        f"L{level} {kind}", "execute", start_s, end_s, pid=0, tid=0,
        track=None if worker is None else f"worker-{worker}", args=args,
    )


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
    with obs.observe() as ob:
        _, report = CpuBackend(cloud).run(nl, ct)
    levels = [
        s for s in ob.tracer.iter_spans(cat="execute") if "kind" in s.args
    ]
    return report, levels


def test_trace_collected(traced_run):
    report, levels = traced_run
    assert levels
    bootstraps = [s for s in levels if s.args["kind"] == "bootstrap"]
    assert len(bootstraps) == report.levels
    assert sum(s.args["gates"] for s in bootstraps) == report.gates_bootstrapped


def test_trace_is_time_ordered(traced_run):
    _, levels = traced_run
    times = [s.start_s for s in levels]
    assert times == sorted(times)
    assert all(s.end_s >= s.start_s for s in levels)


def test_trace_disabled_by_default(test_keys, rng):
    secret, cloud = test_keys
    bd = CircuitBuilder()
    a, b = bd.inputs(2)
    bd.output(bd.and_(a, b))
    ct = encrypt_bits(secret, [True, False], rng)
    # Nothing observes, so nothing is recorded: the report carries no
    # per-level record and the ambient (disabled) tracer stays empty.
    _, report = CpuBackend(cloud).run(bd.build(), ct)
    assert "trace" not in report.as_dict()
    assert obs.get().tracer.spans == []


def test_summarize(traced_run):
    report, levels = traced_run
    summary = summarize_levels(levels)
    assert summary["levels"] == report.levels
    assert 0.5 < summary["bootstrap_fraction"] <= 1.0
    assert summary["total_s"] == pytest.approx(
        sum(s.duration_s for s in levels)
    )


def test_render(traced_run):
    _, levels = traced_run
    text = render_levels(levels)
    assert "#" in text and "ms" in text
    assert len(text.splitlines()) == len(levels)


def test_render_empty():
    assert "empty" in render_levels([])


class TestSummarizeEdgeCases:
    def test_empty_trace(self):
        summary = summarize_levels([])
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
            level_span(1, "chunk", 8, 0.0, 0.4, worker=0),
            level_span(1, "chunk", 8, 0.0, 0.5, worker=1),
        ]
        summary = summarize_levels(events)
        assert summary["levels"] == 0
        assert summary["chunk_events"] == 2
        assert summary["chunk_s"] == pytest.approx(0.9)
        assert summary["level_s"] == 0.0
        assert summary["bootstrap_fraction"] == 0.0

    def test_chunks_overlap_their_bootstrap_level(self):
        # Chunks run concurrently inside their level: total_s
        # double-counts them, level_s does not.
        events = [
            level_span(1, "bootstrap", 16, 0.0, 0.5),
            level_span(1, "chunk", 8, 0.0, 0.4, worker=0),
            level_span(1, "chunk", 8, 0.0, 0.5, worker=1),
            level_span(1, "free", 2, 0.5, 0.6),
        ]
        summary = summarize_levels(events)
        assert summary["level_s"] == pytest.approx(0.6)
        assert summary["total_s"] == pytest.approx(0.6 + 0.9)
        assert summary["chunk_s"] == pytest.approx(0.9)
        assert summary["bootstrap_fraction"] == pytest.approx(0.5 / 0.6)

    def test_free_only_trace_has_zero_bootstrap_fraction(self):
        events = [level_span(0, "free", 3, 0.0, 0.1)]
        summary = summarize_levels(events)
        assert summary["levels"] == 0
        assert summary["bootstrap_fraction"] == 0.0
        assert summary["level_s"] == pytest.approx(0.1)


class TestRenderOrderingAndGlyphs:
    def test_rows_sorted_by_start_time(self):
        # Recorded out of order (and with the run span, which is not
        # a level, among them); render must sort by start.
        events = [
            level_span(2, "bootstrap", 4, 1.0, 1.5),
            level_span(1, "bootstrap", 4, 0.0, 0.5),
            level_span(1, "chunk", 2, 0.1, 0.4, worker=0),
            Span("run:cpu-batched", "execute", 0.0, 1.5, pid=0, tid=0),
        ]
        lines = render_levels(events).splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("L1    bootstrap")
        assert lines[1].startswith("L1    chunk/w0")
        assert lines[2].startswith("L2    bootstrap")

    def test_each_kind_has_its_own_glyph(self):
        events = [
            level_span(1, "bootstrap", 4, 0.0, 0.5),
            level_span(1, "chunk", 2, 0.1, 0.4, worker=0),
            level_span(1, "free", 1, 0.5, 0.6),
        ]
        boot_row, chunk_row, free_row = render_levels(events).splitlines()
        assert "#" in boot_row and "=" not in boot_row
        assert "=" in chunk_row and "#" not in chunk_row
        assert "-" in free_row and "#" not in free_row
