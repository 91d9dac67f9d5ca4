"""Property test: random netlists survive assemble→disassemble hazard-free.

For any valid netlist — boolean (format 0) or with digit wires,
LIN/LUT/B2D/D2B ops and tables (format 1), drawn by one strategy — the
packed 128-bit program must (a) lint clean at the stream level, (b)
disassemble back to a netlist whose schedule replays without a single
hazard finding, (c) preserve reference semantics, and (d) round-trip
column for column and byte for byte.  And for any corruption of such a
binary, (e) ``disassemble`` accepts it exactly when the stream lint has
no error, and then re-assembles it to the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_binary, check_program
from repro.gatetypes import (
    OP_B2D,
    OP_D2B,
    OP_LIN,
    OP_LUT,
    TWO_INPUT_GATES,
    Gate,
)
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa import (
    encode_gate,
    encode_header,
    encode_input,
    encode_output,
    format_program,
)
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
    """``disassemble``'s verdict, checked against the stream lint."""
    assert isinstance(format_program(data), str)
    errors = check_program(data).into_report("fuzz", ["stream"]).errors()
    try:
        netlist = disassemble(data)
    except ValueError:
        assert errors
        return False
    assert not errors
    assert assemble(netlist) == data
    return True


@given(
    st.one_of(
        corrupted_programs(netlists()),
        corrupted_programs(netlists(typed=True, moduli=(4, 16))),
    )
)
@settings(max_examples=150, deadline=None)
def test_disassemble_accepts_exactly_the_canonical_binaries(case):
    _accepts(case[1])


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
