"""The column passes and the int-coded builder against the replay oracle.

``optimize``/``structural_hash``/``dead_gate_elimination`` must return,
column for column, what re-emitting every output-reachable gate through
the enum-per-gate builder returns (``replay_oracle``), with the same
structural-sharing hit count; and ``CircuitBuilder`` must answer every
request with the node id that builder answers.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hdl.builder as builder_mod
import repro.synth.passes as passes_mod
from repro.bench import mnist_workload
from repro.gatetypes import SWAP, TWO_INPUT_GATES, Gate
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.obs import observe
from repro.synth import (
    dead_gate_elimination,
    optimize,
    reachable_mask,
    structural_hash,
)

from .replay_oracle import (
    ReplayBuilder,
    dead_gate_elimination_reference,
    optimize_reference,
    without_unused_slots,
)

SWITCHES = list(itertools.product((False, True), repeat=3))
_SWAPPABLE = [g for g in SWAP if SWAP[g] is not g]
_CONSTS = (int(Gate.CONST0), int(Gate.CONST1))

#: One gate request: (kind, selector, selector, op selector).
_STEP = st.tuples(
    st.integers(0, 9),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


@st.composite
def raw_netlists(draw):
    """Unoptimized netlists: what a builder with every switch off emits,
    plus duplicate constants and, optionally, junk in unused slots."""
    n_in = draw(st.integers(1, 4))
    steps = draw(st.lists(_STEP, max_size=40))
    scribble = draw(st.booleans())
    ops, in0, in1 = [], [], []

    def nodes_where(pred):
        return [n_in + j for j, code in enumerate(ops) if pred(code)]

    for kind, x, y, z in steps:
        count = n_in + len(ops)
        a, b = x % count, y % count
        op = int(TWO_INPUT_GATES[z % len(TWO_INPUT_GATES)])
        if kind == 0:  # a constant (duplicates allowed)
            op, a, b = _CONSTS[x % 2], NO_INPUT, NO_INPUT
        elif kind == 1:  # NOT, chained onto an earlier NOT when one exists
            nots = nodes_where(lambda c: c == int(Gate.NOT))
            op, b = int(Gate.NOT), NO_INPUT
            if nots and y % 2:
                a = nots[x % len(nots)]
        elif kind == 2:
            op, b = int(Gate.BUF), NO_INPUT
        elif kind == 3:  # a == b
            b = a
        elif kind == 4 and ops:  # a duplicate of an earlier gate
            j = x % len(ops)
            op, a, b = ops[j], in0[j], in1[j]
        elif kind == 5:  # swappable, operands the wrong way round
            op = int(_SWAPPABLE[z % len(_SWAPPABLE)])
            a, b = max(a, b), min(a, b)
        elif kind == 6:  # reads a constant
            consts = nodes_where(lambda c: c in _CONSTS)
            if consts:
                a = consts[x % len(consts)]
        elif kind == 7:  # reads a NOT (inverter absorption)
            nots = nodes_where(lambda c: c == int(Gate.NOT))
            if nots:
                b = nots[y % len(nots)]
        ops.append(op)
        in0.append(a)
        in1.append(b)
    count = n_in + len(ops)
    if scribble:  # earlier nodes, in the slots the op does not read
        for j, code in enumerate(ops):
            node = n_in + j
            if code in _CONSTS:
                in0[j] = (node * 7 + 3) % node
            if code in _CONSTS + (int(Gate.NOT), int(Gate.BUF)):
                in1[j] = (node * 5 + 1) % node
    outputs = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=4))
    return Netlist(n_in, ops, in0, in1, outputs, name="raw")


def assert_columns_equal(got: Netlist, want: Netlist) -> None:
    assert got.num_inputs == want.num_inputs
    for column in ("ops", "in0", "in1", "outputs"):
        np.testing.assert_array_equal(
            getattr(got, column), getattr(want, column), err_msg=column
        )
    assert got.input_names == want.input_names
    assert got.output_names == want.output_names
    assert got.name == want.name


def optimize_with_hits(netlist, *switches):
    with observe() as ob:
        result = optimize(netlist, *switches)
    hits = ob.metrics.counter_value("synth_cse_hits", **{"pass": "optimize"})
    return result, int(hits)


class TestPassesMatchReplay:
    @given(raw_netlists())
    @settings(max_examples=150, deadline=None)
    def test_optimize_all_switch_settings(self, netlist):
        reference_input = without_unused_slots(netlist)
        for switches in SWITCHES:
            want, want_hits = optimize_reference(reference_input, *switches)
            got, got_hits = optimize_with_hits(netlist, *switches)
            assert_columns_equal(got, want)
            assert got_hits == want_hits, switches

    @given(raw_netlists())
    @settings(max_examples=60, deadline=None)
    def test_structural_hash(self, netlist):
        want, _ = optimize_reference(
            without_unused_slots(netlist), False, True, False
        )
        assert_columns_equal(structural_hash(netlist), want)

    @given(raw_netlists())
    @settings(max_examples=60, deadline=None)
    def test_dead_gate_elimination(self, netlist):
        want = dead_gate_elimination_reference(without_unused_slots(netlist))
        assert_columns_equal(dead_gate_elimination(netlist), want)


class TestUnusedSlotRegression:
    """A NOT whose unused ``in1`` names a dead AND: the AND stays dead."""

    @staticmethod
    def _netlist():
        return Netlist(
            2, [int(Gate.AND), int(Gate.NOT)], [0, 0], [1, 2], [3]
        )

    def test_reachable_mask(self):
        mask = reachable_mask(self._netlist())
        assert mask.tolist() == [True, False, False, True]

    def test_dead_gate_elimination(self):
        result = dead_gate_elimination(self._netlist())
        assert result.ops.tolist() == [int(Gate.NOT)]
        assert result.in0.tolist() == [0]
        assert result.in1.tolist() == [NO_INPUT]
        assert result.outputs.tolist() == [2]

    def test_optimize(self):
        result = optimize(self._netlist())
        assert result.ops.tolist() == [int(Gate.NOT)]
        assert result.in1.tolist() == [NO_INPUT]


_REQUEST = st.tuples(
    st.integers(0, 15),  # kind
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


class TestBuilderMatchesReplayBuilder:
    @pytest.mark.parametrize("switches", SWITCHES)
    @given(st.lists(_REQUEST, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_same_node_ids(self, switches, requests):
        share, fold, absorb = switches
        new = CircuitBuilder(share, fold, absorb)
        old = ReplayBuilder(share, fold, absorb)
        nodes = new.inputs(3)
        assert nodes == [old.input(f"in{i}") for i in range(3)]
        gates = list(Gate)
        for kind, x, y in requests:
            a, b = nodes[x % len(nodes)], nodes[y % len(nodes)]
            if kind < len(gates):
                gate = gates[kind]
                got, want = new.gate(gate, a, b), old.gate(gate, a, b)
            elif kind % 2:
                got, want = new.xor_(a, b), old.gate(Gate.XOR, a, b)
            else:
                got, want = new.not_(a), old.gate(Gate.NOT, a)
            assert got == want
            assert new.const_value(got) == old.const_value(want)
            nodes.append(got)
        assert new.cse_hits == old.cse_hits
        assert new._ops == old._ops
        assert new._in0 == old._in0
        assert new._in1 == old._in1


def test_optimize_builds_no_circuit_builder(monkeypatch):
    netlist = mnist_workload("S", "reduced").build().netlist

    def refuse(*args, **kwargs):
        raise AssertionError("optimize constructed a CircuitBuilder")

    monkeypatch.setattr(builder_mod, "CircuitBuilder", refuse)
    monkeypatch.setattr(passes_mod, "CircuitBuilder", refuse)
    result = optimize(netlist)
    assert result.num_gates < netlist.num_gates
