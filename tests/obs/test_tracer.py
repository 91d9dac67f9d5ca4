"""Tracer unit tests: spans, instants, thread-safety, null path."""

import threading
import time

from repro.obs import NULL_TRACER, Tracer, observe
from repro.obs import get as get_obs


class TestSpans:
    def test_span_context_manager_records(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", phase=1):
            time.sleep(0.001)
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "work"
        assert span.cat == "test"
        assert span.args == {"phase": 1}
        assert span.duration_s >= 0.001
        assert span.start_s >= 0

    def test_span_args_attached_inside_block(self):
        tracer = Tracer()
        with tracer.span("work", cat="test") as sp:
            sp.args["result"] = 42
        assert tracer.spans[0].args == {"result": 42}

    def test_add_stores_relative_to_epoch(self):
        tracer = Tracer()
        t0 = tracer.now()
        t1 = t0 + 0.5
        tracer.add("ext", cat="test", start_s=t0, end_s=t1)
        span = tracer.spans[0]
        assert span.end_s - span.start_s == 0.5
        # Absolute perf_counter inputs become small epoch-relative times.
        assert span.start_s < 60.0

    def test_track_recorded(self):
        tracer = Tracer()
        now = tracer.now()
        tracer.add(
            "chunk", cat="execute", start_s=now, end_s=now + 0.1,
            track="worker-3", worker=3,
        )
        assert tracer.spans[0].track == "worker-3"

    def test_instant(self):
        tracer = Tracer()
        tracer.instant("marker", cat="test", note="hi")
        assert len(tracer.instants) == 1
        assert tracer.instants[0].args == {"note": "hi"}

    def test_iter_spans_filters_by_cat(self):
        tracer = Tracer()
        now = tracer.now()
        tracer.add("a", cat="compile", start_s=now, end_s=now)
        tracer.add("b", cat="execute", start_s=now, end_s=now)
        assert [s.name for s in tracer.iter_spans(cat="compile")] == ["a"]
        assert len(list(tracer.iter_spans())) == 2

    def test_concurrent_adds_are_all_recorded(self):
        tracer = Tracer()

        def emit(tid):
            for i in range(50):
                with tracer.span(f"t{tid}-{i}", cat="test"):
                    pass

        threads = [
            threading.Thread(target=emit, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.spans) == 200


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("work", cat="test") as sp:
            sp.args["ignored"] = 1
        NULL_TRACER.add(
            "x", cat="test", start_s=0.0, end_s=1.0
        )
        NULL_TRACER.instant("marker")
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.instants == []

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True


class TestAmbient:
    def test_disabled_by_default(self):
        assert get_obs().active is False

    def test_observe_sets_and_restores(self):
        with observe() as ob:
            assert get_obs() is ob
            assert ob.active is True
        assert get_obs().active is False

    def test_nested_observe_innermost_wins(self):
        with observe() as outer:
            with observe() as inner:
                assert get_obs() is inner
            assert get_obs() is outer
