"""Dataflow family: constant propagation (DF) and transparency taint (SC)."""

import numpy as np
import pytest

from repro.analyze import (
    DEFAULT_CONFIG,
    UNKNOWN,
    analyze_netlist,
    check_dataflow,
    propagate_constants,
)
from repro.analyze.dataflow import _TRANSFER, reference_propagate
from repro.gatetypes import Gate, evaluate_plain
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT, Netlist

from .test_facts import full_adder, random_netlist


def rules_of(col):
    return sorted(f.rule for f in col.findings)


class TestTransferTable:
    def test_concrete_operands_match_evaluate_plain(self):
        for gate in Gate:
            for a in (0, 1):
                for b in (0, 1):
                    assert _TRANSFER[int(gate), a, b] == evaluate_plain(
                        gate, a, b
                    )

    def test_absorbing_operands_beat_unknown(self):
        assert _TRANSFER[int(Gate.AND), 0, UNKNOWN] == 0
        assert _TRANSFER[int(Gate.OR), UNKNOWN, 1] == 1
        assert _TRANSFER[int(Gate.AND), 1, UNKNOWN] == UNKNOWN
        assert _TRANSFER[int(Gate.XOR), 0, UNKNOWN] == UNKNOWN
        assert _TRANSFER[int(Gate.NOT), UNKNOWN, 0] == UNKNOWN

    def test_reserved_codes_are_all_unknown(self):
        for code in (0x3, 0xF):
            assert (_TRANSFER[code] == UNKNOWN).all()


class TestPropagation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_pure_python_oracle(self, seed):
        flat = random_netlist(seed).facts
        assert np.array_equal(
            propagate_constants(flat), reference_propagate(flat)
        )

    def test_inputs_stay_unknown(self):
        flat = full_adder().facts
        values = propagate_constants(flat)
        assert (values[: flat.num_inputs] == UNKNOWN).all()
        # Every full-adder gate depends on an input: nothing is known.
        assert (values == UNKNOWN).all()

    def test_constants_fold_through_the_dag(self):
        b = CircuitBuilder(name="fold")
        (x,) = b.inputs(1)
        one = b.const(True)
        zero = b.not_(one)
        # AND(x, 0) == 0 regardless of x; OR of that with 1 is 1.
        dead = b.and_(x, zero)
        b.output(b.or_(dead, one), "y")
        nl = b.build()
        flat = nl.facts
        values = propagate_constants(flat)
        assert values[nl.outputs[0]] == 1


class TestRules:
    def test_clean_circuit_has_no_df_sc_findings(self):
        col = check_dataflow(full_adder().facts)
        assert col.findings == []

    def test_df001_flags_constant_gate(self):
        # AND(x, CONST0) always evaluates to 0.
        nl = Netlist(
            1,
            [int(Gate.CONST0), int(Gate.AND)],
            [NO_INPUT, 0],
            [NO_INPUT, 1],
            [2],
            name="df1",
        )
        col = check_dataflow(nl.facts)
        assert "DF001" in rules_of(col)
        (finding,) = [f for f in col.findings if f.rule == "DF001"]
        assert finding.node == 2
        assert "always evaluates to 0" in finding.message

    def test_df002_flags_reducible_bootstrap(self):
        # AND(x, CONST1) == BUF(x): a bootstrap spent on a free op.
        nl = Netlist(
            1,
            [int(Gate.CONST1), int(Gate.AND)],
            [NO_INPUT, 0],
            [NO_INPUT, 1],
            [2],
            name="df2",
        )
        col = check_dataflow(nl.facts)
        (finding,) = [f for f in col.findings if f.rule == "DF002"]
        assert finding.node == 2
        assert "reduces to BUF(in0)" in finding.message

    def test_df002_not_residual(self):
        # XOR(CONST1, x) == NOT(x).
        nl = Netlist(
            1,
            [int(Gate.CONST1), int(Gate.XOR)],
            [NO_INPUT, 1],
            [NO_INPUT, 0],
            [2],
            name="df2n",
        )
        col = check_dataflow(nl.facts)
        (finding,) = [f for f in col.findings if f.rule == "DF002"]
        assert "reduces to NOT(in1)" in finding.message

    def test_sc001_flags_transparent_output(self):
        nl = Netlist(
            1,
            [int(Gate.CONST1)],
            [NO_INPUT],
            [NO_INPUT],
            [1, 0],
            output_names=["leak", "ok"],
            name="sc1",
        )
        col = check_dataflow(nl.facts)
        (finding,) = [f for f in col.findings if f.rule == "SC001"]
        assert finding.node == 1
        assert "'leak'" in finding.message
        assert "without the secret key" in finding.message

    def test_sc002_flags_bootstrap_over_transparent_operands(self):
        # XOR of two propagated constants burns a bootstrap on a result
        # the server can compute in the clear.
        nl = Netlist(
            1,
            [int(Gate.CONST0), int(Gate.CONST1), int(Gate.XOR)],
            [NO_INPUT, NO_INPUT, 1],
            [NO_INPUT, NO_INPUT, 2],
            [3],
            name="sc2",
        )
        col = check_dataflow(nl.facts)
        assert "SC002" in rules_of(col)
        (finding,) = [f for f in col.findings if f.rule == "SC002"]
        assert finding.node == 3
        assert "already knows the result" in finding.message


class TestAnalyzerIntegration:
    def test_dataflow_family_runs_by_default(self):
        nl = Netlist(
            1,
            [int(Gate.CONST0), int(Gate.AND)],
            [NO_INPUT, 0],
            [NO_INPUT, 1],
            [2],
            name="df",
        )
        analysis = analyze_netlist(nl, DEFAULT_CONFIG)
        assert "dataflow" in analysis.families
        assert "DF001" in {f.rule for f in analysis.report.findings}

    def test_severities(self):
        from repro.analyze import RULES, Severity

        assert RULES["DF001"].severity is Severity.WARNING
        assert RULES["DF002"].severity is Severity.INFO
        assert RULES["SC001"].severity is Severity.WARNING
        assert RULES["SC002"].severity is Severity.INFO
