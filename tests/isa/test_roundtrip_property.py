"""Property test: random netlists survive assemble→disassemble hazard-free.

For any valid netlist — boolean (format 0) or with digit wires,
LIN/LUT/B2D/D2B ops and tables (format 1), drawn by one strategy — the
packed 128-bit program must (a) lint clean at the stream level, (b)
disassemble back to a netlist whose schedule replays without a single
hazard finding, (c) preserve reference semantics, and (d) round-trip
column for column and byte for byte.  And for any corruption of such a
binary — boolean, multi-bit or mapped onto MAJ3/XOR3 cells — (e)
``disassemble`` accepts it exactly when the stream lint has no error,
and then re-assembles it to the same bytes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_binary, check_program
from repro.bench import vip_workload
from repro.gatetypes import (
    OP_B2D,
    OP_D2B,
    OP_LIN,
    OP_LUT,
    OP_SIGN,
    TWO_INPUT_GATES,
    Gate,
)
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa import (
    decode,
    encode_gate,
    encode_header,
    encode_input,
    encode_output,
    format_program,
)
from repro.synth import optimize
from repro.isa.assembler import assemble, disassemble
from repro.isa.encoding import FIELD_ALL_ONES, encode_words
from repro.tfhe.params import TFHE_TEST

from ..hdl.netlist_oracle import (
    bootstrap_levels_reference,
    evaluate_reference_batch,
)


COLUMNS = (
    "ops", "in0", "in1", "outputs", "input_prec", "input_bound",
    "prec", "kx", "ky", "kconst", "table_id",
)


@st.composite
def netlists(draw, moduli=(4, 8, 16), max_gates=24, typed=False):
    """A random valid netlist: topological, arity-correct, output-bearing.

    Half the draws are plain boolean circuits; the other half may also
    place digit input wires, LIN gates and table ops (sharing or adding
    tables), in the canonical column form the binary stores: gates keep
    only the columns their op reads.

    ``typed=True`` draws only multi-bit netlists an encrypted run can
    execute: boolean gates read boolean wires, LIN/LUT/D2B read digit
    wires, B2D reads a boolean wire, and every table fits its operand's
    and its output's modulus.
    """
    multibit = typed or draw(st.booleans())
    kinds = ["binary", "unary", "const"]
    if multibit:
        kinds += ["lin", "lut", "b2d", "d2b"]
    modulus = st.sampled_from(moduli)
    num_inputs = draw(st.integers(min_value=2 if typed else 1, max_value=6))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    input_prec = [
        draw(modulus) if multibit and draw(st.booleans()) else 0
        for _ in range(num_inputs)
    ]
    if typed:  # at least one wire of each kind
        input_prec[:2] = [0, draw(modulus)]
    input_bound = [
        draw(st.integers(min_value=0, max_value=p - 1)) if p else 1
        for p in input_prec
    ]
    node_prec = list(input_prec)
    ops, in0, in1 = [], [], []
    prec, kx, ky, kconst, table_id, tables = [], [], [], [], [], []

    def operand(node, digit):
        if not typed:
            return draw(st.integers(min_value=0, max_value=node - 1))
        return draw(st.sampled_from(
            [n for n in range(node) if bool(node_prec[n]) == digit]
        ))

    def table(size, bound):
        if typed:
            fits = [
                i for i, t in enumerate(tables)
                if len(t) == size and max(t) < bound
            ]
            entries = st.lists(
                st.integers(min_value=0, max_value=bound - 1),
                min_size=size, max_size=size,
            )
        else:
            fits = list(range(len(tables)))
            entries = st.lists(
                st.integers(min_value=0, max_value=1023),
                min_size=2, max_size=30,  # B2D reads entries 0 and 1
            )
        if not fits or draw(st.booleans()):
            tables.append(draw(entries))
            return len(tables) - 1
        return draw(st.sampled_from(fits))

    for idx in range(num_gates):
        node = num_inputs + idx
        kind = draw(st.sampled_from(kinds))
        row = dict(in0=NO_INPUT, in1=NO_INPUT, prec=0, kx=0, ky=0,
                   kconst=0, table_id=-1)
        if kind == "binary":
            row.update(op=draw(st.sampled_from(TWO_INPUT_GATES)),
                       in0=operand(node, False), in1=operand(node, False))
        elif kind == "unary":
            row.update(op=draw(st.sampled_from([Gate.NOT, Gate.BUF])),
                       in0=operand(node, False))
        elif kind == "const":
            row.update(op=draw(st.sampled_from([Gate.CONST0, Gate.CONST1])))
        elif kind == "lin":
            coeff = st.integers(min_value=-128, max_value=127)
            src = operand(node, True)
            row.update(
                op=OP_LIN, in0=src,
                prec=node_prec[src] if typed else draw(modulus),
                in1=operand(node, True) if draw(st.booleans()) else NO_INPUT,
                kx=draw(coeff), ky=draw(coeff),
                kconst=draw(st.integers(-(1 << 15), (1 << 15) - 1)),
            )
        else:
            src = operand(node, kind != "b2d")
            out_prec = 0 if kind == "d2b" else draw(modulus)
            row.update(
                op={"lut": OP_LUT, "b2d": OP_B2D, "d2b": OP_D2B}[kind],
                in0=src,
                prec=out_prec,
                table_id=table(
                    2 if kind == "b2d" else node_prec[src],
                    out_prec or 2,
                ),
            )
        ops.append(int(row["op"]))
        node_prec.append(row["prec"])
        for column, name in (
            (in0, "in0"), (in1, "in1"), (prec, "prec"), (kx, "kx"),
            (ky, "ky"), (kconst, "kconst"), (table_id, "table_id"),
        ):
            column.append(row[name])
    num_nodes = num_inputs + num_gates
    outputs = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1,
            max_size=4,
        )
    )
    return Netlist(
        num_inputs, ops, in0, in1, outputs, name="prop",
        input_prec=input_prec, input_bound=input_bound, prec=prec,
        kx=kx, ky=ky, kconst=kconst, table_id=table_id, tables=tables,
    )


@st.composite
def corrupted_programs(draw, source):
    """``(original, corrupted)``: a binary of a ``source`` netlist with
    up to six bytes rewritten."""
    original = assemble(draw(source))
    data = bytearray(original)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pos = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[pos] = draw(st.integers(min_value=0, max_value=255))
    return original, bytes(data)


@given(netlists())
@settings(max_examples=60, deadline=None)
def test_roundtrip_produces_zero_hazards(netlist):
    data = assemble(netlist)

    # Stream lint: a freshly assembled binary must be spotless.
    assert check_program(data).findings == []

    # Full analysis (structural warnings aside — random circuits are
    # full of dead/duplicate gates): no hazard or stream finding at all.
    analysis = analyze_binary(data, name="prop")
    hz_or_is = [
        f
        for f in analysis.report.findings
        if f.rule.startswith(("HZ", "IS"))
    ]
    assert hz_or_is == []
    assert analysis.netlist is not None

    # And the recovered netlist still computes the same function.
    recovered = analysis.netlist
    rng = np.random.default_rng(0)
    vectors = rng.integers(
        0, netlist.input_bound + 1, size=(16, netlist.num_inputs)
    )
    want = evaluate_reference_batch(netlist, vectors)
    assert np.array_equal(netlist.evaluate(vectors), want)
    assert np.array_equal(recovered.evaluate(vectors), want)
    assert recovered.bootstrap_levels().tolist() == bootstrap_levels_reference(
        netlist
    )


@given(netlists())
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_exact(netlist):
    """Same kind, same columns, same tables, same bytes."""
    data = assemble(netlist)
    recovered = disassemble(data)
    assert recovered.is_multibit == netlist.is_multibit
    for column in COLUMNS:
        assert np.array_equal(
            getattr(recovered, column), getattr(netlist, column)
        ), column
    assert len(recovered.tables) == len(netlist.tables)
    for got, want in zip(recovered.tables, netlist.tables):
        assert np.array_equal(got, want)
    assert assemble(recovered) == data


@given(netlists())
@settings(max_examples=25, deadline=None)
def test_roundtrip_noise_certification_is_total(netlist):
    """Noise certification never crashes on any schedulable netlist."""
    from repro.analyze import AnalyzerConfig, analyze_netlist

    roundtripped = disassemble(assemble(netlist), name="prop")
    analysis = analyze_netlist(
        roundtripped, AnalyzerConfig(params=TFHE_TEST)
    )
    assert not [
        f for f in analysis.report.errors() if f.rule.startswith("HZ")
    ]
    if analysis.noise is not None and analysis.noise.levels:
        assert analysis.noise.worst.margin_sigmas > 0


def _accepts(data):
    """``disassemble``'s verdict, checked against the stream lint and
    the decoder: a stream with a defect is refused, and a netlist built
    from a clean one without re-validation passes the validating
    constructor too."""
    assert isinstance(format_program(data), str)
    errors = check_program(data).into_report("fuzz", ["stream"]).errors()
    defects = decode(data).defect_pos.size
    try:
        netlist = disassemble(data)
    except ValueError:
        assert errors and defects
        return False
    assert not errors and not defects
    assert assemble(netlist) == data
    validated = Netlist(
        netlist.num_inputs, netlist.ops, netlist.in0, netlist.in1,
        netlist.outputs, input_prec=netlist.input_prec,
        input_bound=netlist.input_bound, prec=netlist.prec, kx=netlist.kx,
        ky=netlist.ky, kconst=netlist.kconst, table_id=netlist.table_id,
        tables=netlist.tables,
    )
    assert assemble(validated) == data
    return True


@st.composite
def mapped_programs(draw):
    """Boolean programs ``optimize`` maps onto MAJ3/XOR3 cells: an add,
    a subtract (negated inputs) or a popcount of a few bits."""
    bd = CircuitBuilder(name="mapped")
    width = draw(st.integers(min_value=3, max_value=5))
    a, b = bd.inputs(width), bd.inputs(width)
    kind = draw(st.sampled_from(["add", "sub", "popcount"]))
    if kind == "add":
        bits = arith.ripple_add(bd, a, b, width=width + 1, signed=False)
    elif kind == "sub":
        bits = arith.ripple_sub(bd, a, b, width=width, signed=True)
    else:
        bits = arith.popcount(bd, a + b)
    for bit in bits:
        bd.output(bit)
    netlist = optimize(bd.build())
    assume(OP_SIGN in netlist.ops.tolist())
    return netlist


@given(
    st.one_of(
        corrupted_programs(netlists()),
        corrupted_programs(netlists(typed=True, moduli=(4, 16))),
        corrupted_programs(mapped_programs()),
    )
)
@settings(max_examples=150, deadline=None)
def test_disassemble_accepts_exactly_the_canonical_binaries(case):
    _accepts(case[1])


def _adder8_p16():
    from repro import TensorSpec, compile_function
    from repro.chiseltorch.dtypes import UInt
    from repro.mblut import synthesize

    adder = compile_function(
        lambda x, y: x + y,
        [TensorSpec("x", (), UInt(8)), TensorSpec("y", (), UInt(8))],
        name="adder8",
    )
    return synthesize(adder.netlist, modulus=16)


#: Bit offsets, in the 128-bit word, of field 1's kx / ky / precision
#: slices (field 1 starts at bit 4).
_KX_BIT, _KY_BIT, _PREC_BIT = 4 + 11, 4 + 19, 4 + 2


def _flip(data, word, bit):
    out = bytearray(data)
    out[16 * word + bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("bit", [_KX_BIT, _KY_BIT], ids=["kx", "ky"])
def test_unread_coefficients_of_a_table_op_are_refused(bit):
    """Flipping a bit of kx or ky in a LUT word used to load and
    re-assemble to the flipped bytes: one program, two ids."""
    netlist = _adder8_p16()
    data = assemble(netlist)
    stream = decode(data)
    word = int(np.flatnonzero(stream.op == OP_LUT)[0])
    assert _accepts(data)
    corrupt = _flip(data, word, bit)
    assert not _accepts(corrupt)
    message = str(pytest.raises(ValueError, disassemble, corrupt).value)
    assert "in fields its op does not read" in message


@pytest.mark.parametrize(
    "bit", [_KX_BIT, _KY_BIT, _PREC_BIT], ids=["kx", "ky", "precision"]
)
def test_a_sign_word_reads_no_coefficient_and_no_precision(bit):
    netlist = optimize(vip_workload("hamming_distance").netlist)
    data = assemble(netlist)
    word = int(np.flatnonzero(decode(data).op == OP_SIGN)[0])
    assert _accepts(data)
    assert not _accepts(_flip(data, word, bit))


STRAY_CONST1 = encode_words([1], [FIELD_ALL_ONES], [int(Gate.CONST1)])


@pytest.mark.parametrize(
    "data",
    [
        encode_header(2) + encode_input() + STRAY_CONST1
        + encode_gate(Gate.NOT, 1, 1) + encode_output(3),
        encode_header(0) + encode_words([FIELD_ALL_ONES], [5], [0xF])
        + encode_output(1),
    ],
    ids=["stray-operands", "format0-input-field1"],
)
def test_non_canonical_binaries_are_refused(data):
    assert not _accepts(data)


def test_table_padding_is_refused():
    netlist = Netlist(
        1, [OP_LUT], [0], [NO_INPUT], [1], input_prec=[4], input_bound=[3],
        prec=[4], table_id=[0], tables=[[1, 2, 3, 0]],
    )
    data = bytearray(assemble(netlist))
    assert _accepts(bytes(data))
    data[-2] |= 0x40  # entry 4 of the table's only data word: padding
    assert not _accepts(bytes(data))
