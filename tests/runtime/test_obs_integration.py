"""End-to-end observability: backends and compiler emit into the
ambient bundle set by ``obs.observe`` (spans, metrics)."""

import numpy as np
import pytest

from repro import obs
from repro.core.compiler import TensorSpec, compile_function
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.runtime import CpuBackend, DistributedCpuBackend
from repro.tfhe import decrypt_bits, encrypt_bits


@pytest.fixture(scope="module")
def adder_circuit():
    bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
    a = [bd.input() for _ in range(4)]
    b = [bd.input() for _ in range(4)]
    total = arith.ripple_add(bd, a, b, width=4, signed=False)
    bd.output(bd.not_(total[0]))
    for bit in total[1:]:
        bd.output(bit)
    return bd.build()


def _run(backend, netlist, secret, rng):
    bits = rng.integers(0, 2, netlist.num_inputs).astype(bool)
    ct = encrypt_bits(secret, bits, rng)
    out, report = backend.run(netlist, ct)
    assert np.array_equal(decrypt_bits(secret, out), netlist.evaluate(bits))
    return report


class TestCpuBackendObservability:
    def test_run_emits_spans_and_metrics(
        self, adder_circuit, test_keys, rng
    ):
        _, cloud = test_keys
        backend = CpuBackend(cloud)
        with obs.observe() as ob:
            report = _run(backend, adder_circuit, test_keys[0], rng)
        names = [s.name for s in ob.tracer.spans]
        assert "run:cpu-batched" in names
        bootstrap_spans = [
            s for s in ob.tracer.iter_spans(cat="execute")
            if "bootstrap" in s.name
        ]
        assert len(bootstrap_spans) == report.levels
        assert ob.metrics.counter_value(
            "bootstrapped_gates"
        ) == report.gates_bootstrapped
        assert ob.metrics.counter_value("runs", backend="cpu-batched") == 1
        assert ob.metrics.counter_value("levels_executed") == report.levels
        by_gate = ob.metrics.counters_named("gates_executed")
        assert sum(by_gate.values()) == adder_circuit.num_gates
        assert ob.metrics.gauge_value(
            "bootstraps_per_sec", backend="cpu-batched"
        ) > 0

    def test_trace_shim_populated_when_observing(
        self, adder_circuit, test_keys, rng
    ):
        # Ambient observation alone (no backend option) records the
        # per-level view: bootstrap and free spans with their args.
        _, cloud = test_keys
        backend = CpuBackend(cloud)
        with obs.observe() as ob:
            report = _run(backend, adder_circuit, test_keys[0], rng)
        levels = [
            s for s in ob.tracer.iter_spans(cat="execute")
            if "kind" in s.args
        ]
        assert levels
        assert any(s.args["kind"] == "free" for s in levels)
        for span in levels:
            assert span.name == f"L{span.args['level']} {span.args['kind']}"
            assert set(span.args) == {"level", "kind", "gates"}
            assert span.track is None
        assert sum(
            s.args["gates"] for s in levels if s.args["kind"] == "bootstrap"
        ) == report.gates_bootstrapped
        hist = ob.metrics.as_dict()["histograms"]["level_bootstrap_ms"]
        assert hist["count"] == report.levels

    def test_disabled_ambient_emits_nothing(
        self, adder_circuit, test_keys, rng
    ):
        _, cloud = test_keys
        backend = CpuBackend(cloud)
        report = _run(backend, adder_circuit, test_keys[0], rng)
        assert "trace" not in report.as_dict()
        assert obs.get().tracer.spans == []

    def test_explicit_bundle_overrides_ambient(
        self, adder_circuit, test_keys, rng
    ):
        _, cloud = test_keys
        bundle = obs.Observability()
        backend = CpuBackend(cloud, obs=bundle)
        _run(backend, adder_circuit, test_keys[0], rng)
        assert any(
            s.name == "run:cpu-batched" for s in bundle.tracer.spans
        )


class TestDistributedObservability:
    def test_shm_run_emits_worker_chunk_spans(
        self, adder_circuit, test_keys, rng
    ):
        _, cloud = test_keys
        backend = DistributedCpuBackend(cloud, num_workers=2)
        backend.pool.min_shard = 1
        try:
            with obs.observe() as ob:
                report = _run(backend, adder_circuit, test_keys[0], rng)
        finally:
            backend.shutdown()
        chunk_spans = [
            s for s in ob.tracer.iter_spans(cat="execute")
            if s.track is not None
        ]
        assert chunk_spans
        assert {s.track for s in chunk_spans} == {
            "coordinator", "worker-0", "worker-1"
        }
        assert ob.metrics.counter_value(
            "tasks_submitted", transport="shm"
        ) == report.tasks_submitted


class TestCompilerObservability:
    def test_compile_emits_span_and_counters(self):
        from repro.chiseltorch.dtypes import SInt

        with obs.observe() as ob:
            compile_function(
                lambda a, b: a + b,
                [TensorSpec("a", (2,), SInt(4)), TensorSpec("b", (2,), SInt(4))],
            )
        assert any(
            s.name == "compile:elaborate"
            for s in ob.tracer.iter_spans(cat="compile")
        )
        assert ob.metrics.counter_value("circuits_compiled") == 1
        hist = ob.metrics.as_dict()["histograms"]
        assert hist["compiled_gates"]["count"] == 1
