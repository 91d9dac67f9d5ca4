"""Structural lint (SL family) over raw circuit facts."""

from repro.analyze import FlatCircuitFacts, check_structure
from repro.gatetypes import Gate
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT


def facts(num_inputs, gates, outputs, name="t"):
    """gates is a list of (op, in0, in1) triples."""
    return FlatCircuitFacts(
        name=name,
        num_inputs=num_inputs,
        ops=[int(g[0]) for g in gates],
        in0=[g[1] for g in gates],
        in1=[g[2] for g in gates],
        outputs=list(outputs),
    )


def rule_ids(col):
    return sorted({f.rule for f in col.findings})


def test_clean_circuit_has_no_findings():
    b = CircuitBuilder(name="clean")
    a, c = b.inputs(2)
    b.output(b.xor_(a, c), "s")
    b.output(b.and_(a, c), "c")
    netlist = b.build()
    col = check_structure(netlist.facts)
    assert col.findings == []


def test_sl001_combinational_loop():
    # Gate 2 (node 2 with 2 inputs... node = 2+0 = 2) reads itself.
    col = check_structure(facts(2, [(Gate.AND, 2, 1)], [2]))
    assert "SL001" in rule_ids(col)
    [finding] = [f for f in col.findings if f.rule == "SL001"]
    assert finding.node == 2 and "itself" in finding.message


def test_sl001_forward_edge():
    col = check_structure(
        facts(1, [(Gate.NOT, 2, NO_INPUT), (Gate.NOT, 0, NO_INPUT)], [2])
    )
    assert "SL001" in rule_ids(col)


def test_sl002_undriven_operand():
    col = check_structure(facts(2, [(Gate.AND, 0, 99)], [2]))
    [finding] = [f for f in col.findings if f.rule == "SL002"]
    assert finding.severity.name == "ERROR"
    assert "99" in finding.message


def test_sl003_arity_mismatch_both_directions():
    col = check_structure(
        facts(
            2,
            [
                (Gate.AND, 0, NO_INPUT),  # missing required operand
                (Gate.NOT, 0, 1),  # stray operand on a unary gate
            ],
            [2, 3],
        )
    )
    sl003 = [f for f in col.findings if f.rule == "SL003"]
    assert len(sl003) == 2
    assert any("missing required operand" in f.message for f in sl003)
    assert any("stray" in f.message for f in sl003)


def test_sl004_output_out_of_range():
    col = check_structure(facts(2, [(Gate.AND, 0, 1)], [7]))
    [finding] = [f for f in col.findings if f.rule == "SL004"]
    assert "node 7" in finding.message


def test_sl005_unknown_gate_code():
    col = check_structure(facts(1, [(0x1F, 0, NO_INPUT)], [1]))
    assert "SL005" in rule_ids(col)


def test_sl101_dead_gate_and_sl104_unused_input():
    col = check_structure(
        facts(
            2,
            [
                (Gate.NOT, 0, NO_INPUT),  # node 2, the only output
                (Gate.NOT, 1, NO_INPUT),  # node 3, dead
            ],
            [2],
        )
    )
    ids = rule_ids(col)
    assert "SL101" in ids and "SL104" in ids
    [dead] = [f for f in col.findings if f.rule == "SL101"]
    assert dead.node == 3
    [unused] = [f for f in col.findings if f.rule == "SL104"]
    assert unused.node == 1


def test_sl102_duplicate_gate():
    col = check_structure(
        facts(2, [(Gate.XOR, 0, 1), (Gate.XOR, 0, 1)], [2, 3])
    )
    [dup] = [f for f in col.findings if f.rule == "SL102"]
    assert dup.node == 3 and "duplicates gate 2" in dup.message


def test_sl103_foldable_shapes():
    col = check_structure(
        facts(
            1,
            [
                (Gate.BUF, 0, NO_INPUT),  # node 1: bare BUF
                (Gate.NOT, 0, NO_INPUT),  # node 2
                (Gate.NOT, 2, NO_INPUT),  # node 3: NOT(NOT(x))
                (Gate.AND, 0, 0),  # node 4: both operands equal
                (Gate.CONST1, NO_INPUT, NO_INPUT),  # node 5
                (Gate.OR, 0, 5),  # node 6: constant operand
            ],
            [1, 3, 4, 6],
        )
    )
    foldable = [f for f in col.findings if f.rule == "SL103"]
    assert sorted(f.node for f in foldable) == [1, 3, 4, 6]


def test_loops_do_not_break_reachability_sweep():
    # A loop edge must not make the reachability sweep loop forever or
    # mark the gate's own node.
    col = check_structure(facts(1, [(Gate.AND, 0, 1)], [1]))
    assert "SL001" in rule_ids(col)
