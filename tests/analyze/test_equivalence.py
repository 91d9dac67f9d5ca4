"""Property test: the array checkers match the reference walks.

The vectorized checkers claim *bit-identical* reports to the per-gate
object walks they replaced — same findings, same messages, same
suppressed counts — on valid circuits and on adversarially malformed
subjects alike.  The walks live on in :mod:`legacy_oracle` precisely to
serve as the oracle here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import FlatCircuitFacts, check_schedule, check_structure
from repro.analyze.hazards import check_program_flat
from repro.gatetypes import TWO_INPUT_GATES, Gate
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa.assembler import assemble
from repro.runtime.scheduler import Level, Schedule, build_schedule

from .legacy_oracle import (
    CircuitFacts,
    check_program_legacy,
    check_schedule_legacy,
    check_structure_legacy,
)


@st.composite
def netlists(draw):
    """A random valid netlist: topological, arity-correct, output-bearing."""
    num_inputs = draw(st.integers(min_value=1, max_value=6))
    num_gates = draw(st.integers(min_value=1, max_value=24))
    ops, in0, in1 = [], [], []
    for idx in range(num_gates):
        node = num_inputs + idx
        kind = draw(st.sampled_from(["binary", "unary", "const"]))
        if kind == "binary":
            gate = draw(st.sampled_from(TWO_INPUT_GATES))
            ops.append(int(gate))
            in0.append(draw(st.integers(min_value=0, max_value=node - 1)))
            in1.append(draw(st.integers(min_value=0, max_value=node - 1)))
        elif kind == "unary":
            gate = draw(st.sampled_from([Gate.NOT, Gate.BUF]))
            ops.append(int(gate))
            in0.append(draw(st.integers(min_value=0, max_value=node - 1)))
            in1.append(NO_INPUT)
        else:
            gate = draw(st.sampled_from([Gate.CONST0, Gate.CONST1]))
            ops.append(int(gate))
            in0.append(NO_INPUT)
            in1.append(NO_INPUT)
    num_nodes = num_inputs + num_gates
    outputs = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1,
            max_size=4,
        )
    )
    return Netlist(num_inputs, ops, in0, in1, outputs, name="prop")


@st.composite
def raw_facts(draw):
    """Arbitrary — usually malformed — raw circuit facts.

    Op codes span the gate nibble plus codes outside the whole op
    vocabulary; the multi-bit codes are left out because the reference
    walk only speaks the boolean ``Gate`` vocabulary.
    """
    num_inputs = draw(st.integers(min_value=0, max_value=3))
    num_gates = draw(st.integers(min_value=0, max_value=12))
    num_nodes = num_inputs + num_gates
    operand = st.integers(min_value=-3, max_value=num_nodes + 2)
    ops = draw(
        st.lists(
            st.sampled_from(list(range(-1, 16)) + [0x1F, 99]),
            min_size=num_gates,
            max_size=num_gates,
        )
    )
    in0 = draw(st.lists(operand, min_size=num_gates, max_size=num_gates))
    in1 = draw(st.lists(operand, min_size=num_gates, max_size=num_gates))
    outputs = draw(st.lists(operand, min_size=0, max_size=4))
    return CircuitFacts(
        name="raw",
        num_inputs=num_inputs,
        ops=ops,
        in0=in0,
        in1=in1,
        outputs=outputs,
    )


@st.composite
def corrupted_schedules(draw):
    """A valid netlist with a deliberately scrambled execution plan.

    Each gate lands in 0..2 slots at arbitrary (level, role, position),
    manufacturing read-before-write, double-write, missing-write, and
    misclassified-bootstrap hazards for both engines to agree on.
    """
    netlist = draw(netlists())
    num_levels = draw(st.integers(min_value=1, max_value=4))
    slots = []
    for g in range(netlist.num_gates):
        copies = draw(st.integers(min_value=0, max_value=2))
        for _ in range(copies):
            level = draw(st.integers(min_value=0, max_value=num_levels - 1))
            role = draw(st.sampled_from(["bootstrapped", "free"]))
            slots.append((level, role, g))
    levels = []
    for i in range(num_levels):
        boot = [g for lv, role, g in slots if lv == i and role == "bootstrapped"]
        free = [g for lv, role, g in slots if lv == i and role == "free"]
        levels.append(
            Level(
                index=i,
                bootstrapped=np.asarray(boot, dtype=np.int64),
                free=np.asarray(free, dtype=np.int64),
            )
        )
    return netlist, Schedule(netlist=netlist, levels=levels)


@st.composite
def corrupted_binaries(draw):
    """An assembled program with a handful of bytes rewritten."""
    data = bytearray(assemble(draw(netlists())))
    num_flips = draw(st.integers(min_value=0, max_value=6))
    for _ in range(num_flips):
        pos = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[pos] = draw(st.integers(min_value=0, max_value=255))
    return bytes(data)


def report_of(col):
    return col.into_report("equiv", ["test"]).as_dict()


def flat_of(facts):
    return FlatCircuitFacts(
        facts.name, facts.num_inputs, facts.ops, facts.in0, facts.in1,
        facts.outputs, facts.input_names, facts.output_names,
    )


@given(netlists())
@settings(max_examples=40, deadline=None)
def test_structural_engines_agree_on_valid_netlists(netlist):
    assert report_of(check_structure(netlist.facts)) == report_of(
        check_structure_legacy(CircuitFacts.from_netlist(netlist))
    )


@given(raw_facts())
@settings(max_examples=60, deadline=None)
def test_structural_engines_agree_on_malformed_facts(facts):
    assert report_of(check_structure(flat_of(facts))) == report_of(
        check_structure_legacy(facts)
    )


@given(netlists())
@settings(max_examples=30, deadline=None)
def test_schedule_engines_agree_on_clean_schedules(netlist):
    schedule = build_schedule(netlist)
    flat = check_schedule(netlist, schedule)
    legacy = check_schedule_legacy(netlist, schedule)
    assert report_of(flat) == report_of(legacy)


@given(corrupted_schedules())
@settings(max_examples=50, deadline=None)
def test_schedule_engines_agree_on_scrambled_schedules(case):
    netlist, schedule = case
    flat = check_schedule(netlist, schedule)
    legacy = check_schedule_legacy(netlist, schedule)
    assert report_of(flat) == report_of(legacy)


@given(corrupted_binaries())
@settings(max_examples=50, deadline=None)
def test_stream_engines_agree_on_corrupted_binaries(data):
    flat = check_program_flat(data)
    legacy = check_program_legacy(data)
    assert report_of(flat) == report_of(legacy)
