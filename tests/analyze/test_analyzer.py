"""Analyzer driver, binary analysis, and compiler/session gating."""

import dataclasses

import pytest

from repro.analyze import (
    AnalysisError,
    AnalyzerConfig,
    DEFAULT_CONFIG,
    analyze_binary,
    analyze_netlist,
)
from repro.core.compiler import verify_compiled
from repro.hdl.builder import CircuitBuilder
from repro.isa.assembler import assemble
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.obs import observe
from repro.tfhe.params import TFHE_TEST


def full_adder():
    b = CircuitBuilder(name="fa")
    a, c, cin = b.inputs(3)
    s1 = b.xor_(a, c)
    b.output(b.xor_(s1, cin), "sum")
    b.output(b.or_(b.and_(a, c), b.and_(s1, cin)), "cout")
    return b.build()


def noisy_config():
    noisy = dataclasses.replace(
        TFHE_TEST, name="noisy", tlwe_noise_std=2**-10
    )
    return AnalyzerConfig(params=noisy)


class TestAnalyzeNetlist:
    def test_clean_netlist_all_families(self):
        analysis = analyze_netlist(
            full_adder(), DEFAULT_CONFIG.with_params(TFHE_TEST)
        )
        assert analysis.report.ok
        assert analysis.families == [
            "structural",
            "hazards",
            "noise",
            "dataflow",
            "cost",
        ]
        assert analysis.schedule is not None
        assert analysis.noise is not None and analysis.noise.worst
        assert analysis.cost is not None
        assert analysis.cost.gates == analysis.netlist.num_gates

    def test_family_toggles(self):
        config = AnalyzerConfig(
            structural=False, noise=False, dataflow=False, cost=False
        )
        analysis = analyze_netlist(full_adder(), config)
        assert analysis.families == ["hazards"]
        assert analysis.noise is None
        assert analysis.cost is None

    def test_without_params_noise_family_is_skipped(self):
        analysis = analyze_netlist(full_adder(), DEFAULT_CONFIG)
        assert "noise" not in analysis.families

    def test_noisy_params_produce_errors(self):
        analysis = analyze_netlist(full_adder(), noisy_config())
        assert analysis.report.has_errors
        assert {f.rule for f in analysis.report.errors()} == {"NB001"}

    def test_metrics_are_published(self):
        with observe() as ob:
            analyze_netlist(full_adder(), noisy_config())
        assert ob.metrics.counter_value("analyze_runs") == 1
        assert (
            ob.metrics.counter_value(
                "analyze_findings", rule="NB001", severity="ERROR"
            )
            > 0
        )


class TestAnalyzeBinary:
    def test_clean_binary_runs_all_families(self):
        data = assemble(full_adder())
        analysis = analyze_binary(
            data, DEFAULT_CONFIG.with_params(TFHE_TEST), name="fa.bin"
        )
        assert analysis.report.ok
        assert analysis.families == [
            "stream",
            "structural",
            "hazards",
            "noise",
            "dataflow",
            "cost",
        ]
        assert analysis.report.subject == "fa.bin"
        assert analysis.netlist is not None

    def test_corrupt_binary_reports_instead_of_raising(self):
        data = assemble(full_adder())[: 3 * INSTRUCTION_BYTES - 7]
        analysis = analyze_binary(data)
        assert analysis.families == ["stream"]
        assert analysis.netlist is None
        assert {f.rule for f in analysis.report.errors()} == {"IS001"}


class TestCompilerGate:
    def test_verify_compiled_passes_clean_netlist(self):
        verify_compiled(full_adder(), True)
        verify_compiled(full_adder(), AnalyzerConfig(params=TFHE_TEST))

    def test_verify_compiled_raises_on_errors(self):
        with pytest.raises(AnalysisError, match="NB001") as exc_info:
            verify_compiled(full_adder(), noisy_config())
        assert exc_info.value.report.has_errors

    def test_check_false_is_a_no_op(self):
        verify_compiled(full_adder(), False)

    def test_compile_function_check_flag(self):
        from repro.chiseltorch.tensor import HTensor
        from repro.core.compiler import TensorSpec, compile_function
        from repro.chiseltorch.dtypes import UInt

        def fn(x: HTensor):
            return x + x

        compiled = compile_function(
            fn,
            [TensorSpec("x", (2,), UInt(3))],
            name="dbl",
            check=True,
        )
        assert compiled.netlist.num_gates > 0


class TestSessionGate:
    def test_server_check_programs_gates_execution(self):
        import numpy as np

        from repro.chiseltorch.dtypes import UInt
        from repro.core import Client, Server
        from repro.core.compiler import TensorSpec, compile_function

        compiled = compile_function(
            lambda x, y: x + y,
            [TensorSpec("x", (2,), UInt(2)), TensorSpec("y", (2,), UInt(2))],
        )
        x = np.array([1.0, 2.0])
        y = np.array([2.0, 1.0])

        # Clean parameters: the gate lets execution through.
        client = Client(TFHE_TEST, seed=7)
        with Server(
            client.cloud_key, backend="batched", check_programs=True
        ) as server:
            out_ct, _ = server.execute(compiled, client.encrypt(compiled, x, y))
            assert np.array_equal(
                client.decrypt(compiled, out_ct)[0], x + y
            )

        # Sub-threshold parameters: the same program is refused before
        # a single bootstrap runs.
        noisy = dataclasses.replace(
            TFHE_TEST, name="noisy", tlwe_noise_std=2**-10
        )
        noisy_client = Client(noisy, seed=7)
        with Server(
            noisy_client.cloud_key, backend="batched", check_programs=True
        ) as server:
            ct = noisy_client.encrypt(compiled, x, y)
            with pytest.raises(AnalysisError, match="NB001"):
                server.execute(compiled, ct)
