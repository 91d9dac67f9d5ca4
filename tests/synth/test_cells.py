"""The MAJ3/XOR3 cell mapping: ``optimize``'s last stage.

Cells read the way every consumer reads them: the plaintext semantics
of ``Netlist.evaluate`` match MAJ3/XOR3 under every input negation, a
mapped program computes its source on every VIP and MNIST program, the
mapping never grows a program's words, it is idempotent, and the
checked pass pipeline runs through it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import DEFAULT_PASSES, run_checked_passes
from repro.bench import mnist_workload, vip_workload, vip_workloads
from repro.gatetypes import OP_LIN, OP_SIGN, TWO_INPUT_GATES
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa import assemble, binary_size_bytes, disassemble
from repro.synth import check_equivalence, optimize
from repro.synth.cells import map_cells

from . import two_input

#: Every input triple, as rows (a, b, c).
TRIPLES = ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1).astype(bool)
#: Every negation pattern, as rows (a, b, c).
NEGATIONS = TRIPLES


def cell_library():
    """One netlist over three inputs with a MAJ3 and an XOR3 cell for
    every negation pattern: output ``2n`` is MAJ3 and ``2n + 1`` XOR3 of
    the inputs negated by pattern ``n``."""
    ops, in0, in1, kx, ky, outputs = [], [], [], [], [], []
    for negate in NEGATIONS:
        sigma = np.where(negate, -1, 1)
        for k in (1, -2):  # MAJ3: sign(S); XOR3: sign(-2 S)
            base = 3 + len(ops)
            ops += [OP_LIN, OP_LIN, OP_SIGN]
            in0 += [0, base, base + 1]
            in1 += [1, 2, NO_INPUT]
            kx += [k * sigma[0], 1, 0]
            ky += [k * sigma[1], k * sigma[2], 0]
            outputs.append(base + 2)
    return Netlist(3, ops, in0, in1, outputs, kx=kx, ky=ky, name="cells")


def cell_reference(triples):
    """``(triples, 16)`` bool: what :func:`cell_library` must compute."""
    columns = []
    for negate in NEGATIONS:
        bits = triples ^ negate
        columns.append(bits.sum(axis=1) >= 2)
        columns.append(np.bitwise_xor.reduce(bits, axis=1))
    return np.stack(columns, axis=1)


def test_cell_semantics_under_every_negation():
    library = cell_library()
    assert not library.has_digits and library.is_multibit
    np.testing.assert_array_equal(
        library.evaluate(TRIPLES), cell_reference(TRIPLES)
    )


def _adders():
    """A full-adder-rich circuit: an add, a subtract and a popcount."""
    bd = CircuitBuilder(name="adders")
    a, b, c = bd.inputs(4), bd.inputs(4), bd.inputs(5)
    for bit in arith.ripple_add(bd, a, b, width=5, signed=False):
        bd.output(bit)
    for bit in arith.ripple_sub(bd, a, b, width=4, signed=True):
        bd.output(bit)
    for bit in arith.popcount(bd, c):
        bd.output(bit)
    return bd.build()


def test_adders_map_and_stay_exact():
    source = _adders()
    mapped = optimize(source)
    ops = mapped.ops.tolist()
    assert ops.count(OP_SIGN) > 0 and ops.count(OP_LIN) > 0
    result = check_equivalence(source, mapped)
    assert result.exhaustive and result.equivalent
    library = two_input(source)
    assert (
        mapped.stats().num_bootstrapped_gates
        < library.stats().num_bootstrapped_gates
    )


@st.composite
def adder_circuits(draw):
    """Random circuits rich in full adders: adds, subtracts, popcounts
    and single gates over the inputs and each other's bits, with outputs
    on any node, cone internals included (so the mapper meets shared
    and fanned-out cone gates)."""
    bd = CircuitBuilder(name="random_adders")
    pool = bd.inputs(draw(st.integers(min_value=3, max_value=8)))

    def pick(count):
        return [
            pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
            for _ in range(count)
        ]

    n_in = len(pool)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["add", "sub", "popcount"] * 2 + ["gate"]))
        width = draw(st.integers(min_value=2, max_value=4))
        if kind == "add":
            bits = arith.ripple_add(
                bd, pick(width), pick(width), width=width + 1, signed=False
            )
        elif kind == "sub":
            bits = arith.ripple_sub(
                bd, pick(width), pick(width), width=width, signed=True
            )
        elif kind == "popcount":
            bits = arith.popcount(bd, pick(width + 2))
        else:
            bits = [bd.gate(draw(st.sampled_from(TWO_INPUT_GATES)), *pick(2))]
        pool = pool + list(bits)
    last = bd.num_inputs + bd.num_gates - 1
    extra = st.lists(st.integers(min_value=0, max_value=last), max_size=4)
    for node in pool[n_in:] + draw(extra):
        bd.output(node)
    return bd.build()


@given(adder_circuits())
@settings(max_examples=150, deadline=None)
def test_optimize_computes_its_source(source):
    """The mapped netlist passes the validating constructor (``optimize``
    builds it through it) and computes its source on every input."""
    mapped = optimize(source)
    result = check_equivalence(source, mapped)
    assert result.exhaustive and result.equivalent, result


def _programs():
    for name, workload in sorted(vip_workloads().items()):
        yield name, workload.netlist


@pytest.mark.parametrize("name, source", list(_programs()))
def test_vip_programs_map_exactly_without_growing(name, source):
    library = two_input(source)
    mapped = optimize(source)
    assert check_equivalence(source, mapped, random_trials=256)
    # The binary never grows: a full adder's five gates become five
    # words, and a lone XOR3's extra word is paid for by MAJ3 savings.
    assert binary_size_bytes(mapped) <= binary_size_bytes(library)
    stats, base = mapped.stats(), library.stats()
    assert stats.num_bootstrapped_gates <= base.num_bootstrapped_gates
    assert stats.bootstrap_depth <= base.bootstrap_depth
    # Idempotent, and exact through the binary.
    again = optimize(mapped)
    for column in ("ops", "in0", "in1", "outputs", "kx", "ky", "kconst"):
        np.testing.assert_array_equal(
            getattr(again, column), getattr(mapped, column)
        )
    data = assemble(mapped)
    assert assemble(disassemble(data)) == data


@pytest.mark.parametrize("variant", ["S", "M", "L"])
def test_mnist_programs_map_exactly(variant):
    source = mnist_workload(variant, "reduced").build().netlist
    mapped = optimize(source)
    assert check_equivalence(source, mapped, random_trials=32)
    assert binary_size_bytes(mapped) <= binary_size_bytes(
        two_input(source)
    )


def test_hamming_distance_counts():
    """26 full adders: 172 bootstraps in 16 levels -> 94 in 11, in the
    same 172 gate words (3 888 bytes)."""
    mapped = optimize(vip_workload("hamming_distance").netlist)
    stats = mapped.stats()
    assert (stats.num_bootstrapped_gates, stats.bootstrap_depth) == (94, 11)
    assert mapped.num_gates == 172
    assert binary_size_bytes(mapped) == 3888


def test_default_passes_run_through_the_mapping():
    """structural_hash, optimize (mapping) then dead_gate_elimination
    over the cells: every pass certified, nothing lost."""
    result = run_checked_passes(vip_workload("hamming_distance").netlist)
    assert [r.pass_name for r in result.records] == [
        name for name, _ in DEFAULT_PASSES
    ]
    assert result.ok, result.report.render_text()
    assert OP_SIGN in result.final.ops.tolist()


def test_a_mapped_netlist_is_mapped_once():
    mapped = optimize(_adders())
    assert map_cells(mapped) is mapped


def test_the_rewrite_stage_renumbers_a_cells_operands():
    """A cell reading a gate the builder's rules fold: the cell keeps
    its coefficients and reads the folded answer."""
    from repro.gatetypes import Gate

    # in: a, b, d;  4: CONST1;  5: AND(d, 1) -> d;  6: LIN(a, 5);
    # 7: LIN(6, b);  8: SIGN(7) = MAJ3(a, d, NOT b)
    netlist = Netlist(
        3,
        [Gate.CONST1, Gate.AND, OP_LIN, OP_LIN, OP_SIGN],
        [NO_INPUT, 2, 0, 5, 6],
        [NO_INPUT, 3, 4, 1, NO_INPUT],
        [7],
        kx=[0, 0, 1, 1, 0],
        ky=[0, 0, 1, -1, 0],
    )
    result = optimize(netlist)
    assert result.ops.tolist() == [OP_LIN, OP_LIN, OP_SIGN]
    assert result.kx.tolist() == [1, 1, 0]
    assert result.ky.tolist() == [1, -1, 0]
    np.testing.assert_array_equal(
        result.evaluate(TRIPLES), netlist.evaluate(TRIPLES)
    )
