"""FlatCircuitFacts: derived views agree with first-principles oracles."""

import numpy as np
import pytest

from repro.gatetypes import UNKNOWN_ARITY, Gate
from repro.hdl.builder import CircuitBuilder
from repro.hdl.facts import FlatCircuitFacts
from repro.hdl.netlist import NO_INPUT, Netlist

from ..hdl.netlist_oracle import bootstrap_levels_reference
from .legacy_oracle import CircuitFacts


def full_adder():
    b = CircuitBuilder(name="fa")
    a, c, cin = b.inputs(3)
    s1 = b.xor_(a, c)
    b.output(b.xor_(s1, cin), "sum")
    b.output(b.or_(b.and_(a, c), b.and_(s1, cin)), "cout")
    return b.build()


def random_netlist(seed, num_inputs=5, num_gates=60):
    """A random valid (topological, arity-correct) netlist."""
    rng = np.random.default_rng(seed)
    ops, in0, in1 = [], [], []
    binary = [int(g) for g in Gate if g.arity == 2]
    for idx in range(num_gates):
        node = num_inputs + idx
        kind = rng.integers(0, 10)
        if kind < 7:
            ops.append(int(rng.choice(binary)))
            in0.append(int(rng.integers(0, node)))
            in1.append(int(rng.integers(0, node)))
        elif kind < 9:
            ops.append(int(rng.choice([int(Gate.NOT), int(Gate.BUF)])))
            in0.append(int(rng.integers(0, node)))
            in1.append(NO_INPUT)
        else:
            ops.append(int(rng.choice([int(Gate.CONST0), int(Gate.CONST1)])))
            in0.append(NO_INPUT)
            in1.append(NO_INPUT)
    outputs = rng.integers(
        0, num_inputs + num_gates, size=4
    ).tolist()
    return Netlist(num_inputs, ops, in0, in1, outputs, name=f"rand{seed}")


class TestDecodedColumns:
    def test_known_arity_bootstrap_match_gate_enum(self):
        nl = full_adder()
        flat = nl.facts
        for g in range(flat.num_gates):
            gate = Gate(int(nl.ops[g]))
            assert flat.known[g]
            assert flat.arity[g] == gate.arity
            assert flat.needs_bootstrap[g] == gate.needs_bootstrap

    def test_unknown_and_out_of_nibble_ops(self):
        facts = FlatCircuitFacts(
            name="bad",
            num_inputs=1,
            ops=[0x3, 0xF, 99, -2, int(Gate.AND)],
            in0=[0, 0, 0, 0, 0],
            in1=[0, 0, 0, 0, 0],
            outputs=[1],
        )
        assert list(facts.known) == [False, False, False, False, True]
        assert facts.arity[0] == UNKNOWN_ARITY
        assert facts.arity[4] == 2

    def test_usable_masks_reject_bad_edges(self):
        # Gate 0: forward self-reference; gate 1: out-of-range; gate 2:
        # missing required operand; gate 3: fine.
        facts = FlatCircuitFacts(
            name="edges",
            num_inputs=2,
            ops=[int(Gate.AND)] * 4,
            in0=[2, 99, NO_INPUT, 0],
            in1=[0, -5, 1, 1],
            outputs=[5],
        )
        assert list(facts.usable0) == [False, False, False, True]
        assert list(facts.usable1) == [True, False, True, True]


class TestDerivedViews:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_levels_match_netlist_bootstrap_levels(self, seed):
        nl = random_netlist(seed)
        flat = nl.facts
        assert flat.node_levels.tolist() == bootstrap_levels_reference(nl)
        assert nl.bootstrap_levels() is flat.node_levels

    def test_fanout_csr_matches_naive(self):
        nl = random_netlist(3)
        flat = nl.facts
        indptr, readers = flat.fanout()
        for node in range(flat.num_nodes):
            # One entry per usable *slot*: a gate reading the node on
            # both operands appears twice (hazard replay counts reads).
            expected = [
                g
                for g in range(flat.num_gates)
                if flat.usable0[g] and flat.in0[g] == node
            ] + [
                g
                for g in range(flat.num_gates)
                if flat.usable1[g] and flat.in1[g] == node
            ]
            got = readers[indptr[node] : indptr[node + 1]].tolist()
            assert sorted(got) == sorted(expected)

    def test_rounds_partition_and_respect_dependencies(self):
        nl = random_netlist(4)
        flat = nl.facts
        seen = np.concatenate(flat.rounds)
        assert sorted(seen.tolist()) == list(range(flat.num_gates))
        round_of = np.empty(flat.num_nodes, dtype=int)
        round_of[: flat.num_inputs] = -1
        for r, bucket in enumerate(flat.rounds):
            round_of[flat.num_inputs + bucket] = r
        for g in range(flat.num_gates):
            mine = round_of[flat.num_inputs + g]
            if flat.usable0[g]:
                assert round_of[flat.in0[g]] < mine
            if flat.usable1[g]:
                assert round_of[flat.in1[g]] < mine

    def test_self_loop_degrades_to_unusable_edge(self):
        # Usable edges are strictly backward, so a self-referential
        # operand never forms a cycle: the edge is simply unusable and
        # every gate still lands in a round (SL001 owns the finding).
        facts = FlatCircuitFacts(
            name="loop",
            num_inputs=1,
            ops=[int(Gate.NOT), int(Gate.NOT)],
            in0=[1, 0],  # gate 0 reads itself (node 1)
            in1=[NO_INPUT, NO_INPUT],
            outputs=[2],
        )
        assert not facts.usable0[0]
        assert facts.usable0[1]
        scheduled = np.concatenate(facts.rounds)
        assert sorted(scheduled.tolist()) == [0, 1]

    def test_output_reachable_matches_naive(self):
        nl = random_netlist(5)
        flat = nl.facts
        mask = flat.output_reachable()
        expected = np.zeros(flat.num_nodes, dtype=bool)
        stack = [int(o) for o in flat.outputs]
        while stack:
            node = stack.pop()
            if expected[node]:
                continue
            expected[node] = True
            g = node - flat.num_inputs
            if g >= 0:
                if flat.usable0[g]:
                    stack.append(int(flat.in0[g]))
                if flat.usable1[g]:
                    stack.append(int(flat.in1[g]))
        assert np.array_equal(mask, expected)


class TestConstruction:
    def test_from_facts_round_trip(self):
        # Plain lists (the oracle's view) and a netlist's borrowed
        # arrays give the same facts.
        nl = full_adder()
        legacy = CircuitFacts.from_netlist(nl)
        flat = FlatCircuitFacts(
            legacy.name, legacy.num_inputs, legacy.ops, legacy.in0,
            legacy.in1, legacy.outputs, legacy.input_names,
            legacy.output_names,
        )
        direct = nl.facts
        assert direct.in0 is nl.in0 and direct.ops is nl.ops
        assert np.array_equal(flat.ops, direct.ops)
        assert np.array_equal(flat.in0, direct.in0)
        assert np.array_equal(flat.in1, direct.in1)
        assert np.array_equal(flat.outputs, direct.outputs)
        assert flat.output_names == direct.output_names

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            FlatCircuitFacts(
                name="bad",
                num_inputs=1,
                ops=[0],
                in0=[0, 0],
                in1=[0],
                outputs=[],
            )
