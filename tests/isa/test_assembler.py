"""Assembler/disassembler tests, including the paper's half adder."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gatetypes import Gate, TWO_INPUT_GATES
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import Netlist
from repro.isa import (
    assemble,
    binary_size_bytes,
    disassemble,
    format_program,
    iter_instructions,
)


def _half_adder():
    bd = CircuitBuilder(name="half_adder")
    a, b = bd.inputs(2)
    bd.output(bd.xor_(a, b), "sum")
    bd.output(bd.and_(a, b), "carry")
    return bd.build()


class TestHalfAdderGolden:
    """The exact binary of paper Fig. 6."""

    def test_instruction_sequence(self):
        insts = list(iter_instructions(assemble(_half_adder())))
        kinds = [i.kind for i in insts]
        assert kinds == ["header", "input", "input", "gate", "gate", "output", "output"]

    def test_header_counts_two_gates(self):
        insts = list(iter_instructions(assemble(_half_adder())))
        assert insts[0].total_gates == 2

    def test_gate_indices_match_fig6(self):
        """Inputs A=1, B=2; XOR=3 reads (1, 2); AND=4 reads (1, 2);
        outputs reference 3 and 4."""
        insts = list(iter_instructions(assemble(_half_adder())))
        xor_inst, and_inst = insts[3], insts[4]
        assert xor_inst.gate == Gate.XOR
        assert xor_inst.operands == (1, 2)
        assert and_inst.gate == Gate.AND
        assert and_inst.operands == (1, 2)
        assert insts[5].output_node == 3
        assert insts[6].output_node == 4

    def test_binary_size(self):
        nl = _half_adder()
        binary = assemble(nl)
        assert len(binary) == 7 * 16
        assert binary_size_bytes(nl) == len(binary)


class TestRoundtrip:
    def test_half_adder_roundtrip(self):
        nl = _half_adder()
        back = disassemble(assemble(nl))
        inputs = np.array(
            [[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool
        )
        assert np.array_equal(nl.evaluate(inputs), back.evaluate(inputs))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_netlist_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        bd = CircuitBuilder(
            hash_cons=False, fold_constants=False, absorb_inverters=False
        )
        nodes = list(bd.inputs(4))
        pool = list(TWO_INPUT_GATES) + [Gate.NOT, Gate.BUF, Gate.CONST0, Gate.CONST1]
        for _ in range(40):
            gate = pool[rng.integers(len(pool))]
            a = nodes[rng.integers(len(nodes))]
            b = nodes[rng.integers(len(nodes))]
            nodes.append(bd.gate(gate, a, b))
        bd.output(nodes[-1])
        bd.output(nodes[rng.integers(len(nodes))])
        nl = bd.build()
        back = disassemble(assemble(nl))
        batch = rng.integers(0, 2, (32, 4)).astype(bool)
        assert np.array_equal(nl.evaluate(batch), back.evaluate(batch))

    def test_output_can_reference_input(self):
        """Wiring-only outputs (the Flatten optimization) serialize."""
        bd = CircuitBuilder()
        a = bd.input()
        bd.output(a)
        back = disassemble(assemble(bd.build()))
        assert back.evaluate(np.array([True]))[0]

    def test_roundtrip_preserves_counts(self):
        nl = _half_adder()
        back = disassemble(assemble(nl))
        assert back.num_inputs == nl.num_inputs
        assert back.num_gates == nl.num_gates
        assert back.num_outputs == nl.num_outputs


class TestMalformedBinaries:
    def test_missing_header(self):
        from repro.isa import encode_input

        with pytest.raises(ValueError):
            disassemble(encode_input())

    def test_gate_count_mismatch(self):
        from repro.isa import encode_gate, encode_header, encode_input

        binary = (
            encode_header(5) + encode_input() + encode_gate(Gate.NOT, 1, None)
        )
        with pytest.raises(ValueError):
            disassemble(binary)

    def test_input_after_gate_rejected(self):
        from repro.isa import encode_gate, encode_header, encode_input

        binary = (
            encode_header(1)
            + encode_input()
            + encode_gate(Gate.NOT, 1, None)
            + encode_input()
        )
        with pytest.raises(ValueError):
            disassemble(binary)

    def test_gate_after_output_rejected(self):
        from repro.isa import (
            encode_gate,
            encode_header,
            encode_input,
            encode_output,
        )

        binary = (
            encode_header(2)
            + encode_input()
            + encode_gate(Gate.NOT, 1, None)
            + encode_output(2)
            + encode_gate(Gate.NOT, 1, None)
        )
        with pytest.raises(ValueError):
            disassemble(binary)


def _adder8_mb():
    from repro import TensorSpec, compile_function
    from repro.chiseltorch.dtypes import UInt
    from repro.mblut import synthesize

    adder = compile_function(
        lambda x, y: x + y,
        [TensorSpec("x", (), UInt(8)), TensorSpec("y", (), UInt(8))],
        name="adder8",
    )
    return synthesize(adder.netlist, modulus=16)


def _hamming_optimized():
    from repro.bench import vip_workload
    from repro.synth import optimize

    return optimize(vip_workload("hamming_distance").netlist)


def _mnist_s_reduced_optimized():
    from repro.bench import mnist_workload
    from repro.synth import optimize

    return optimize(mnist_workload("S", "reduced").build().netlist)


class TestGoldenBinaries:
    """Byte-identity with the binaries of the commit before the codec
    merge: boolean programs stay the paper's format 0, format 1 keeps
    its layout."""

    @pytest.mark.parametrize(
        "build, size, digest",
        [
            (
                _hamming_optimized, 4720,
                "b4c3206b34dd130f305c90d9969d6d60"
                "da5cb484544d8f41bb2f818104151e03",
            ),
            (
                _adder8_mb, 480,
                "5bef12ba9ef55f66eb087e075f7eee8f"
                "f1668ed1f8709e43acd2b4c1af1a4cb4",
            ),
            (
                _mnist_s_reduced_optimized, 1130528,
                "1490e4d101c7feed531c0bb04f3432e5"
                "007b59eb93e2fd0921e29bfa48eef643",
            ),
        ],
        ids=["hamming_distance", "adder8-mblut16", "mnist_s_reduced"],
    )
    def test_sha256_pinned(self, build, size, digest):
        netlist = build()
        binary = assemble(netlist)
        assert len(binary) == size == binary_size_bytes(netlist)
        assert hashlib.sha256(binary).hexdigest() == digest
        assert assemble(disassemble(binary)) == binary


class TestTruncatedBinaries:
    @pytest.mark.parametrize(
        "build", [_hamming_optimized, _adder8_mb], ids=["format0", "format1"]
    )
    def test_every_aligned_prefix_parses_or_raises_value_error(self, build):
        binary = assemble(build())
        for cut in range(0, len(binary) + 1, 16):
            prefix = binary[:cut]
            try:
                assert isinstance(disassemble(prefix), Netlist)
            except ValueError:
                pass
            try:
                assert isinstance(format_program(prefix), str)
            except ValueError:
                pass

    def test_table_cut_by_one_word_names_table_and_offset(self):
        # Was: IndexError (off-by-one in the format-1 table bounds check).
        binary = assemble(_adder8_mb())
        last_table = len(_adder8_mb().tables) - 1
        with pytest.raises(ValueError) as exc_info:
            disassemble(binary[:-16])
        message = str(exc_info.value)
        assert f"table {last_table}" in message
        assert "truncated" in message and "offset 0x" in message
