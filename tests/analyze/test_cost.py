"""Cost certification (CA family): histograms, predictions, budgets.

The property suite pins the certificate's invariants: per-level
bootstrap counts sum to the netlist's bootstrap-gate total, predicted
latency is monotone in gate count and non-increasing in worker count,
and certificate JSON round-trips losslessly.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import (
    CostAnalysisConfig,
    CostCertificate,
    DEFAULT_COST_CONFIG,
    certify_cost,
    cost_certificate,
)
from repro.analyze.findings import Collector
from repro.gatetypes import Gate
from repro.hdl.netlist import Netlist
from repro.perfmodel import GateCostModel

from .test_facts import full_adder, random_netlist


def certify(netlist, config=DEFAULT_COST_CONFIG):
    collector = Collector()
    cert = certify_cost(
        netlist.facts, config, collector
    )
    return cert, collector.into_report(netlist.name, ["cost"])


def serial_chain(length=6):
    """A pure AND chain: every level one gate wide (no parallelism)."""
    b_ops = [int(Gate.AND)] * length
    in0 = [0] + [1 + i for i in range(length - 1)]
    in1 = [0] * length
    return Netlist(1, b_ops, in0, in1, [length], name="chain")


def with_extra_chain(nl, extra):
    """``nl`` plus ``extra`` serial AND gates hung off its last node."""
    last = nl.num_nodes - 1
    ops = list(nl.ops) + [int(Gate.AND)] * extra
    in0 = list(nl.in0) + [
        last if i == 0 else nl.num_nodes + i - 1 for i in range(extra)
    ]
    in1 = list(nl.in1) + [0] * extra
    return Netlist(
        nl.num_inputs, ops, in0, in1, list(nl.outputs), name=nl.name
    )


# ----------------------------------------------------------------------
# Property suite
# ----------------------------------------------------------------------
class TestCertificateProperties:
    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_histograms_sum_to_gate_totals(self, seed):
        nl = random_netlist(seed)
        cert, _ = certify(nl)
        flat = nl.facts
        assert sum(cert.bootstrap_histogram) == cert.bootstrapped
        assert cert.bootstrapped == int(flat.needs_bootstrap.sum())
        assert sum(cert.free_histogram) == cert.free_gates
        assert cert.bootstrapped + cert.free_gates == cert.gates
        assert cert.gates == nl.num_gates

    @given(st.integers(0, 200), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_latency_monotone_in_gate_count(self, seed, extra):
        base, _ = certify(random_netlist(seed))
        grown, _ = certify(with_extra_chain(random_netlist(seed), extra))
        assert set(grown.predicted_ms) == set(base.predicted_ms)
        for engine, base_ms in base.predicted_ms.items():
            assert grown.predicted_ms[engine] >= base_ms
        # Every extra gate is bootstrapped, so the engine's marginal
        # per-gate cost strictly pays for it.
        assert grown.predicted_ms["batched"] > base.predicted_ms["batched"]

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_distributed_latency_non_increasing_in_workers(self, seed):
        config = dataclasses.replace(
            DEFAULT_COST_CONFIG, worker_counts=(1, 2, 4, 8, 16)
        )
        cert, _ = certify(random_netlist(seed), config)
        sweep = [
            cert.predicted_ms[f"distributed@{w}"] for w in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(sweep, sweep[1:]))

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_json_round_trip_is_lossless(self, seed):
        cert, _ = certify(random_netlist(seed))
        back = CostCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.as_dict() == cert.as_dict()

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_peak_live_wires_matches_interval_oracle(self, seed):
        """Vectorized sweep == per-level interval counting, by loop."""
        nl = random_netlist(seed)
        flat = nl.facts
        cert, _ = certify(nl)
        levels = flat.node_levels
        max_level = int(levels.max())
        death = {n: int(levels[n]) for n in range(flat.num_nodes)}
        for g in range(flat.num_gates):
            reader = int(levels[flat.num_inputs + g])
            if flat.usable0[g]:
                head = int(flat.in0[g])
                death[head] = max(death[head], reader)
            if flat.usable1[g]:
                head = int(flat.in1[g])
                death[head] = max(death[head], reader)
        for out in flat.outputs:
            if 0 <= out < flat.num_nodes:
                death[int(out)] = max_level
        peak = max(
            sum(
                1
                for n in range(flat.num_nodes)
                if levels[n] <= level <= death[n]
            )
            for level in range(max_level + 1)
        )
        assert cert.peak_live_wires == peak


# ----------------------------------------------------------------------
# Certificate content and prediction semantics
# ----------------------------------------------------------------------
class TestCertificateContent:
    def test_batched_engine_is_closed_form(self):
        cert, _ = certify(full_adder())
        config = DEFAULT_COST_CONFIG
        cost = config.cost
        expected = (
            cert.depth * config.batched_overhead_factor * cost.gate_ms
            + cert.bootstrapped
            * config.batched_marginal_fraction
            * cost.gate_ms
            + cert.free_gates * cost.linear_ms
        )
        assert cert.predicted_ms["batched"] == pytest.approx(expected)
        assert cert.cost_model == cost.name
        assert cert.peak_memory_bytes == (
            cert.peak_live_wires * cost.ciphertext_bytes
        )

    def test_calibration_scales_predictions(self):
        fast = GateCostModel("fast", 0.01, 1.0, 0.1, 128)
        cert_paper, _ = certify(full_adder())
        cert_fast, _ = certify(
            full_adder(), CostAnalysisConfig(gate_cost=fast)
        )
        assert cert_fast.cost_model == "fast"
        assert (
            cert_fast.predicted_ms["batched"]
            < cert_paper.predicted_ms["batched"]
        )
        ratio = (
            cert_paper.predicted_ms["batched"]
            / cert_fast.predicted_ms["batched"]
        )
        # ~13 ms/gate vs 1.11 ms/gate, modulo the linear-gate term.
        assert ratio > 5

    def test_predicted_execute_ms_fallbacks(self):
        cert, _ = certify(full_adder())
        assert cert.predicted_execute_ms("batched") == (
            cert.predicted_ms["batched"]
        )
        # A bare prefix picks the most conservative sweep point.
        assert cert.predicted_execute_ms("distributed") == max(
            ms
            for key, ms in cert.predicted_ms.items()
            if key.startswith("distributed@")
        )
        # Unknown engines fall back to the worst prediction on record.
        assert cert.predicted_execute_ms("warp-drive") == max(
            cert.predicted_ms.values()
        )
        assert CostCertificate(
            subject="x",
            cost_model="m",
            gate_ms=1.0,
            linear_ms=0.1,
            ciphertext_bytes=8,
            gates=0,
            bootstrapped=0,
            free_gates=0,
            depth=0,
        ).predicted_execute_ms("batched") is None

    def test_empty_netlist_certifies_to_zero(self):
        nl = Netlist(2, [], [], [], [0], name="wires")
        cert = cost_certificate(nl)
        assert cert.gates == 0
        assert cert.bootstrapped == 0
        assert cert.depth == 0
        assert cert.bootstrap_histogram == []
        assert cert.predicted_ms["batched"] == 0.0
        assert cert.classification == "trivial"
        # The routed input is still a live ciphertext.
        assert cert.peak_live_wires >= 1

    def test_not_a_certificate_json_rejected(self):
        with pytest.raises(ValueError, match="not a cost certificate"):
            CostCertificate.from_json('{"format": "something-else"}')

    def test_render_text_mentions_every_engine(self):
        cert, _ = certify(full_adder())
        text = cert.render_text()
        assert "cost certificate" in text
        for engine in cert.predicted_ms:
            assert engine in text


# ----------------------------------------------------------------------
# CA budget rules
# ----------------------------------------------------------------------
class TestBudgetRules:
    def test_no_budgets_no_findings(self):
        _, report = certify(full_adder())
        assert report.ok
        assert not report.findings

    def test_ca001_latency_over_budget(self):
        _, report = certify(
            full_adder(),
            CostAnalysisConfig(budget_ms=0.5, backend="batched"),
        )
        assert {f.rule for f in report.errors()} == {"CA001"}
        (finding,) = report.errors()
        assert "budget" in finding.message

    def test_ca001_respects_generous_budget(self):
        _, report = certify(
            full_adder(),
            CostAnalysisConfig(budget_ms=1e9, backend="batched"),
        )
        assert report.ok

    def test_ca002_memory_over_budget(self):
        _, report = certify(
            full_adder(), CostAnalysisConfig(budget_mb=1e-9)
        )
        assert {f.rule for f in report.errors()} == {"CA002"}

    def test_ca003_degenerate_parallelism_warns(self):
        _, report = certify(
            serial_chain(), CostAnalysisConfig(backend="batched")
        )
        assert {f.rule for f in report.findings} == {"CA003"}
        assert not report.has_errors  # a WARNING, not a refusal

    def test_ca003_silent_without_a_backend_and_for_wide_circuits(self):
        _, report = certify(serial_chain(), CostAnalysisConfig())
        assert not report.findings
        cert, report = certify(
            random_netlist(3), CostAnalysisConfig(backend="batched")
        )
        if cert.max_speedup >= 2.0:
            assert "CA003" not in {f.rule for f in report.findings}
