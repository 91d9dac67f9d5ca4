"""Format-1 (multi-bit) binary round-trip tests."""

import numpy as np
import pytest

from repro.gatetypes import OP_LIN, OP_LUT
from repro.hdl.arith import ripple_add
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import Netlist
from repro.isa import (
    assemble,
    binary_size_bytes,
    decode,
    disassemble,
    iter_instructions,
)
from repro.mblut import assemble_mb, disassemble_mb, synthesize


@pytest.fixture(scope="module")
def mb_netlist():
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(8)]
    b = [bd.input() for _ in range(8)]
    for bit in ripple_add(bd, a, b, width=9, signed=False):
        bd.output(bit)
    return synthesize(bd.build(), modulus=16)


@pytest.fixture(scope="module")
def mb_binary(mb_netlist):
    return assemble(mb_netlist)


class TestRoundTrip:
    def test_format_detection(self, mb_binary):
        assert decode(mb_binary).fmt == 1
        bd = CircuitBuilder()
        x, y = bd.inputs(2)
        bd.output(bd.and_(x, y))
        assert decode(assemble(bd.build())).fmt == 0

    def test_assemble_dispatches(self, mb_netlist, mb_binary):
        # The mblut names are aliases of the one codec.
        assert assemble_mb is assemble and disassemble_mb is disassemble
        assert mb_binary == assemble_mb(mb_netlist)

    def test_size_prediction(self, mb_netlist, mb_binary):
        assert binary_size_bytes(mb_netlist) == len(mb_binary)

    def test_arrays_survive(self, mb_netlist, mb_binary):
        back = disassemble(mb_binary)
        assert back.is_multibit
        assert back.num_inputs == mb_netlist.num_inputs
        for field in (
            "ops", "in0", "in1", "outputs", "input_prec", "input_bound",
            "prec", "kx", "ky", "kconst", "table_id",
        ):
            assert np.array_equal(
                getattr(back, field), getattr(mb_netlist, field)
            ), field

    def test_tables_survive(self, mb_netlist, mb_binary):
        back = disassemble(mb_binary)
        assert len(back.tables) == len(mb_netlist.tables)
        for got, want in zip(back.tables, mb_netlist.tables):
            assert np.array_equal(got, want)

    def test_io_map_does_not_ship(self, mb_binary):
        # The bit-packing contract is client metadata, not wire format.
        assert disassemble(mb_binary).io is None

    def test_semantics_survive(self, mb_netlist, mb_binary):
        back = disassemble_mb(mb_binary)
        rng = np.random.default_rng(3)
        hi = np.concatenate(
            ([1], mb_netlist.input_bound)
        )[1:]  # per-wire message bound
        messages = rng.integers(0, hi + 1, (32, mb_netlist.num_inputs))
        assert np.array_equal(
            mb_netlist.evaluate(messages), back.evaluate(messages)
        )

    def test_iter_instructions_reads_format1(self, mb_netlist, mb_binary):
        rows = list(iter_instructions(mb_binary))
        assert [r.offset for r in rows] == list(range(0, len(mb_binary), 16))
        kinds = [r.kind for r in rows]
        assert kinds.count("input") == mb_netlist.num_inputs
        assert kinds.count("output") == mb_netlist.num_outputs
        assert kinds.count("table") == len(mb_netlist.tables)
        assert "table-data" in kinds
        gates = [r for r in rows if r.kind == "gate"]
        assert [r.op for r in gates] == mb_netlist.ops.tolist()
        # Operands use the Fig. 6 numbering: netlist index + 1.
        assert [r.in0 for r in gates] == [
            None if i < 0 else i + 1 for i in mb_netlist.in0.tolist()
        ]
        lin = next(r for r in gates if r.op == OP_LIN)
        assert lin.gate is None and lin.in1 is not None and lin.prec == 16
        lut = next(r for r in gates if r.op == OP_LUT)
        assert 0 <= lut.table_id < len(mb_netlist.tables)

    def test_double_roundtrip_is_stable(self, mb_binary):
        assert assemble(disassemble(mb_binary)) == mb_binary

    def test_input_bound_rejects_overflow(self, mb_netlist):
        oversized = Netlist(
            num_inputs=mb_netlist.num_inputs,
            ops=mb_netlist.ops,
            in0=mb_netlist.in0,
            in1=mb_netlist.in1,
            outputs=mb_netlist.outputs,
            input_prec=np.where(mb_netlist.input_prec > 0, 2048, 0),
            prec=mb_netlist.prec,
            kx=mb_netlist.kx,
            ky=mb_netlist.ky,
            kconst=mb_netlist.kconst,
            table_id=mb_netlist.table_id,
            tables=mb_netlist.tables,
        )
        with pytest.raises(ValueError):
            assemble_mb(oversized)
