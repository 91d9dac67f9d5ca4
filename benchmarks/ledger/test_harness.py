"""Self-tests of the ledger harness (not collected by tier-1).

Run explicitly, either way::

    python benchmarks/ledger/test_harness.py
    PYTHONPATH=src python -m pytest benchmarks/ledger/test_harness.py

(pytest also loads ``benchmarks/conftest.py``, which imports ``repro``.)

They cover the arithmetic a reader has to trust: the percentile rule,
span self time, and the bound comparator's three verdicts.  Nothing
here imports ``repro`` or starts a workload.
"""

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402


# -- percentile rule ---------------------------------------------------
def test_no_tail_below_forty_samples():
    assert stats.tail_level(1) == 50
    assert stats.tail_level(39) == 50


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_level(40) == 75
    assert stats.samples_beyond(40, 75) == 10
    assert stats.tail_level(99) == 75
    assert stats.tail_level(100) == 90
    assert stats.samples_beyond(100, 90) == 10
    # p99 would need 1000 samples; it is never reported here.
    assert stats.samples_beyond(100, 99) == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 75) == 75
    assert stats.percentile([5.0], 90) == 5.0


def test_tail_of_few_samples_is_the_median():
    level, value = stats.tail([1.0, 2.0, 3.0, 10.0])
    assert (level, value) == (50, 2.5)
    level, value = stats.tail([float(v) for v in range(1, 41)])
    assert (level, value) == (75, 30.0)


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = stats.quartiles(values)
    assert stats.spread(values) == (q3 - q1) / 14.5
    assert stats.spread([3.0]) is None


def test_gated_duration_is_the_fastest_tenth():
    assert stats.undisturbed([7.0]) == 7.0
    # Few samples: next to the minimum, whatever the slow ones did.
    assert stats.undisturbed([2.0, 3.0, 50.0]) == 2.2
    # Many samples: one odd fast sample does not set it.
    steady = [10.0] * 39
    assert stats.undisturbed([1.0] + steady) == 10.0


# -- span self time ----------------------------------------------------
def _span(recorder, name, start, end, parent=None, tid=None):
    with recorder.span(name, parent=parent) as span:
        pass
    span.start, span.end = start, end
    if tid is not None:
        span.tid = tid
    return span


def test_self_time_subtracts_the_union_of_children():
    rec = spans.Recorder("t", keep=True)
    root = _span(rec, "harness.root", 0.0, 10.0)
    _span(rec, "tfhe.a", 1.0, 4.0, parent=root)
    _span(rec, "tfhe.b", 3.0, 6.0, parent=root)  # overlaps a by 1
    child = _span(rec, "synth.c", 7.0, 9.0, parent=root)
    _span(rec, "isa.d", 7.5, 8.0, parent=child)
    own = spans.self_times(rec.spans)
    assert own[root.id] == 10.0 - (5.0 + 2.0)
    assert own[child.id] == 1.5
    table = spans.layer_self_times(rec.spans, root.tid)
    assert table == {"harness": 3.0, "tfhe": 6.0, "synth": 1.5, "isa": 0.5}


def test_non_overlapping_self_times_add_up_to_the_root():
    rec = spans.Recorder("t", keep=True)
    with rec.span("harness.root") as root:
        with rec.span("tfhe.keygen"):
            with rec.span("tfhe.inner"):
                pass
        with rec.span("isa.assemble"):
            pass
    total = sum(spans.layer_self_times(rec.spans, root.tid).values())
    assert abs(total - root.s) < 1e-9


def test_children_on_other_threads_are_their_own_track():
    rec = spans.Recorder("t", keep=True)
    root = _span(rec, "serve.closed_loop", 0.0, 10.0)
    _span(rec, "harness.request", 0.0, 9.0, parent=root, tid=root.tid + 1)
    own = spans.self_times(rec.spans)
    # The main thread waited all 10 s; the client's span does not hide it.
    assert own[root.id] == 10.0
    assert spans.layer_self_times(rec.spans, root.tid) == {"serve": 10.0}


def test_spans_nest_per_thread():
    rec = spans.Recorder("t", keep=True)
    seen = {}

    def client(parent):
        with rec.span("harness.request", parent=parent) as request:
            with rec.span("serve.call") as call:
                seen["call_parent"] = call.parent
                seen["request"] = request

    with rec.span("serve.closed_loop") as phase:
        thread = threading.Thread(target=client, args=(phase,))
        thread.start()
        thread.join()
    assert seen["request"].parent == phase.id
    assert seen["call_parent"] == seen["request"].id


def test_untraced_recorder_keeps_nothing_but_still_times():
    rec = spans.Recorder("t", keep=False)
    with rec.span("tfhe.keygen") as span:
        pass
    assert rec.spans == [] and span.s >= 0.0


def test_chrome_trace_shape():
    rec = spans.Recorder("w", keep=True)
    with rec.span("harness.root"):
        with rec.span("tfhe.keygen"):
            pass
    document = spans.chrome_trace(rec)
    json.dumps(document)
    timed = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in timed] == ["harness.root", "tfhe.keygen"]
    assert timed[1]["args"]["parent"] == timed[0]["args"]["id"]
    assert timed[1]["args"]["workload"] == "w"
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in timed)


# -- bound comparator --------------------------------------------------
STEADY = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]


def test_verdict_ok():
    second = [v * 1.03 for v in STEADY]
    result = stats.verdict(STEADY, second, 0.10, "lower")
    assert result["status"] == "ok"
    assert abs(result["worse_by"] - 0.03) < 1e-9


def test_verdict_regressed():
    slower = [v * 1.2 for v in STEADY]
    assert stats.verdict(STEADY, slower, 0.10, "lower")["status"] == "regressed"
    # For a higher-is-better metric the same change is an improvement ...
    assert stats.verdict(STEADY, slower, 0.10, "higher")["status"] == "ok"
    # ... and a drop is the regression.
    lower = [v * 0.8 for v in STEADY]
    assert stats.verdict(STEADY, lower, 0.10, "higher")["status"] == "regressed"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [80.0, 120.0, 90.0, 110.0, 70.0, 130.0, 100.0, 95.0, 105.0, 85.0]
    result = stats.verdict(STEADY, noisy, 0.10, "lower")
    assert result["status"] == "unresolved"
    assert result["spread"] > 0.10


def test_any_increase_of_an_exact_count_regresses():
    assert stats.verdict([224], [225], 0.001, "lower")["status"] == "regressed"
    assert stats.verdict([224], [224], 0.001, "lower")["status"] == "ok"
    assert stats.verdict([224], [200], 0.001, "lower")["status"] == "ok"


# -- the declared benchmark --------------------------------------------
def test_benchmark_json_matches_the_contract():
    spec_path = HERE.parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(spec["workloads"]) <= 8
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert len(spec["per_layer"]) <= 128


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} harness self-tests passed")
