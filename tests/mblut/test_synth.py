"""Multi-bit synthesis tests: encoding, pattern matching, equivalence."""

import numpy as np
import pytest

from repro.hdl.arith import less_than_unsigned, ripple_add
from repro.hdl.builder import CircuitBuilder
from repro.mblut import MultiBitValue, synthesize
from repro.synth import check_equivalence


def adder_netlist(width=8):
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(width)]
    b = [bd.input() for _ in range(width)]
    for bit in ripple_add(bd, a, b, width=width + 1, signed=False):
        bd.output(bit)
    return bd.build()


def comparator_netlist(width=6):
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(width)]
    b = [bd.input() for _ in range(width)]
    bd.output(less_than_unsigned(bd, a, b))
    return bd.build()


class TestMultiBitValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiBitValue(0, modulus=1)
        with pytest.raises(ValueError):
            MultiBitValue(16, modulus=16)
        with pytest.raises(ValueError):
            MultiBitValue(-1, modulus=16)

    def test_digit_width(self):
        assert MultiBitValue(0, modulus=16).digit_width == 3
        assert MultiBitValue(0, modulus=8).digit_width == 2
        assert MultiBitValue(0, modulus=4).digit_width == 1

    def test_bits_roundtrip(self):
        for value in range(8):
            v = MultiBitValue(value, modulus=16)
            assert MultiBitValue.from_bits(v.bits(), modulus=16).value == value

    def test_bits_width_override(self):
        assert MultiBitValue(5, modulus=16).bits(4) == [1, 0, 1, 0]


class TestSynthesis:
    def test_rejects_bad_modulus(self):
        net = adder_netlist(4)
        with pytest.raises(ValueError):
            synthesize(net, modulus=3)
        with pytest.raises(ValueError):
            synthesize(net, modulus=2)

    def test_adder_reduction(self):
        """The tentpole claim: >= 5x fewer bootstraps on an 8-bit adder."""
        net = adder_netlist(8)
        mb = synthesize(net, modulus=16)
        rep = mb.synthesis
        assert rep.modulus == 16
        assert rep.adder_chains >= 1
        assert rep.mb_bootstraps_after > 0
        assert rep.reduction >= 5.0
        assert mb.num_lut_bootstraps > 0

    def test_adder_equivalence(self):
        net = adder_netlist(8)
        mb = synthesize(net, modulus=16)
        result = check_equivalence(net, mb)
        assert result.equivalent

    def test_adder_equivalence_small_exhaustive(self):
        net = adder_netlist(4)
        mb = synthesize(net, modulus=16)
        result = check_equivalence(net, mb)
        assert result.equivalent
        assert result.exhaustive
        assert result.vectors_checked == 1 << 8

    def test_comparator_equivalence(self):
        net = comparator_netlist(6)
        mb = synthesize(net, modulus=16)
        result = check_equivalence(net, mb)
        assert result.equivalent
        assert result.exhaustive

    def test_model_layer_equivalence(self):
        """A whole network, not only an adder: the chains matched inside
        mnist_s_reduced rewrite without changing what it computes, and
        honestly buy less (mostly non-arithmetic gates)."""
        from repro.bench import mnist_workload

        net = mnist_workload("S", "reduced").netlist
        mb = synthesize(net, modulus=16)
        assert check_equivalence(net, mb, random_trials=32).equivalent
        assert mb.num_lut_bootstraps > 0
        assert 1.0 < mb.synthesis.reduction < 5.0

    def test_low_modulus_equivalence(self):
        for p in (4, 8):
            net = adder_netlist(5)
            mb = synthesize(net, modulus=p)
            assert check_equivalence(net, mb).equivalent

    def test_input_bounds_track_group_width(self):
        """Digit inputs carry their packed width, not the full modulus."""
        mb = synthesize(adder_netlist(8), modulus=16)
        digit = mb.input_prec > 0
        assert digit.any()
        bounds = mb.input_bound[digit]
        # 8 bits split into 3-bit digits: widths 3,3,2 per operand.
        assert set(int(b) for b in bounds) == {3, 7}
        assert (bounds < mb.input_prec[digit]).all()
        # Boolean wires (if any) are bounded by 1.
        assert (mb.input_bound[~digit] == 1).all()

    def test_io_map_present(self):
        net = adder_netlist(6)
        mb = synthesize(net, modulus=16)
        assert mb.io is not None
        assert mb.io.num_source_inputs == net.num_inputs
        assert mb.io.num_source_outputs == net.num_outputs

    def test_evaluate_bits_matches_boolean(self):
        net = adder_netlist(6)
        mb = synthesize(net, modulus=16)
        rng = np.random.default_rng(7)
        vectors = rng.integers(0, 2, (64, net.num_inputs)).astype(bool)
        assert np.array_equal(net.evaluate(vectors), mb.evaluate_bits(vectors))

    def test_report_as_dict(self):
        mb = synthesize(adder_netlist(8), modulus=16)
        doc = mb.synthesis.as_dict()
        assert doc["modulus"] == 16
        assert doc["reduction"] >= 5.0
        assert doc["mb_bootstraps_after"] == mb.num_lut_bootstraps

    def test_constant_gates_evaluate_batched(self):
        """CONST gates must broadcast across a batch (regression)."""
        bd = CircuitBuilder(fold_constants=False)
        a = bd.input()
        c = bd.const(False)
        bd.output(bd.or_(a, c))
        bd.output(c)
        net = bd.build()
        mb = synthesize(net, modulus=16)
        assert check_equivalence(net, mb).equivalent

    def test_no_pattern_falls_back_to_boolean(self):
        """A pure XOR tree has no chains; synthesis must not invent any."""
        bd = CircuitBuilder()
        a, b, c = bd.inputs(3)
        bd.output(bd.xor_(bd.xor_(a, b), c))
        net = bd.build()
        mb = synthesize(net, modulus=16)
        assert mb.synthesis.chains == 0
        assert check_equivalence(net, mb).equivalent
