"""Netlist IR tests: validation, evaluation, levels, statistics."""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gatetypes import Gate, evaluate_plain
from repro.hdl.builder import CircuitBuilder
from repro.hdl.netlist import Netlist


def _half_adder_netlist():
    bd = CircuitBuilder(name="half_adder")
    a, b = bd.inputs(2)
    bd.output(bd.xor_(a, b), "sum")
    bd.output(bd.and_(a, b), "carry")
    return bd.build()


class TestValidation:
    def test_rejects_forward_reference(self):
        with pytest.raises(ValueError):
            Netlist(1, [int(Gate.AND)], [0], [5], [1])

    def test_rejects_self_reference(self):
        with pytest.raises(ValueError):
            Netlist(1, [int(Gate.AND)], [1], [0], [1])

    def test_rejects_bad_output(self):
        with pytest.raises(ValueError):
            Netlist(1, [], [], [], [3])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Netlist(1, [int(Gate.AND)], [0], [], [0])

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            Netlist(2, [], [], [], [0], input_names=["only_one"])

    @pytest.mark.parametrize(
        "ops",
        [np.array([262]), [262], np.array([-250]), [-1], np.array([0x10F])],
        ids=["array", "list", "negative-array", "negative-list", "wide"],
    )
    def test_op_codes_validated_at_full_width(self, ops):
        # 262 = 0x106 and -250 both narrow to XOR (0x06) in uint8; the
        # constructor must reject them before narrowing.
        with pytest.raises(ValueError, match="unknown op code"):
            Netlist(2, ops, [0], [1], [2])


class TestValidationMessages:
    """The errors name the offending node, gate type, and valid range."""

    def test_forward_reference_names_gate_and_operand(self):
        with pytest.raises(ValueError) as exc_info:
            Netlist(1, [int(Gate.AND)], [0], [5], [1])
        message = str(exc_info.value)
        assert "gate index 0" in message
        assert "node 1" in message
        assert "AND" in message
        assert "reads later node 5" in message
        assert "[0, 1)" in message

    def test_self_reference_says_so(self):
        with pytest.raises(ValueError, match="reads itself"):
            Netlist(1, [int(Gate.AND)], [1], [0], [1])

    def test_negative_operand_reported_with_value(self):
        with pytest.raises(ValueError) as exc_info:
            Netlist(1, [int(Gate.NOT)], [-7], [-1], [1])
        message = str(exc_info.value)
        assert "input0 is -7" in message
        assert "NOT" in message and "arity 1" in message

    def test_unknown_op_code_lists_valid_codes(self):
        with pytest.raises(ValueError) as exc_info:
            Netlist(1, [0xEE], [0], [-1], [1])
        message = str(exc_info.value)
        assert "unknown op code 0xee" in message
        assert "gate index 0 (node 1)" in message
        assert "valid codes" in message

    def test_bad_output_names_position_and_range(self):
        with pytest.raises(ValueError) as exc_info:
            Netlist(
                1,
                [int(Gate.NOT)],
                [0],
                [-1],
                [7],
                output_names=["carry"],
            )
        message = str(exc_info.value)
        assert "output 0 ('carry')" in message
        assert "node 7" in message
        assert "[0, 2)" in message
        assert "1 inputs + 1 gates" in message


class TestEvaluation:
    def test_half_adder_truth_table(self):
        nl = _half_adder_netlist()
        for a in (0, 1):
            for b in (0, 1):
                s, c = nl.evaluate(np.array([a, b], dtype=bool))
                assert s == (a ^ b)
                assert c == (a & b)

    def test_batch_evaluation(self):
        nl = _half_adder_netlist()
        inputs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=bool)
        out = nl.evaluate(inputs)
        assert out.shape == (4, 2)
        assert np.array_equal(out[:, 0], [0, 1, 1, 0])
        assert np.array_equal(out[:, 1], [0, 0, 0, 1])

    def test_wrong_input_count_rejected(self):
        nl = _half_adder_netlist()
        with pytest.raises(ValueError):
            nl.evaluate(np.array([True]))

    def test_mask_evaluation_matches_boolean(self, rng):
        bd = CircuitBuilder()
        ins = bd.inputs(6)
        x = bd.xor_(bd.and_(ins[0], ins[1]), bd.or_(ins[2], ins[3]))
        y = bd.nand_(x, bd.xnor_(ins[4], ins[5]))
        bd.output(y)
        nl = bd.build()
        batch = rng.integers(0, 2, (100, 6)).astype(bool)
        got = nl.evaluate(batch)
        singles = np.array([nl.evaluate(row) for row in batch])
        assert np.array_equal(got, singles)

    @given(st.lists(st.sampled_from(list(Gate)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_every_gate_type_evaluates(self, gates):
        """Random single-chain netlists agree with evaluate_plain."""
        bd = CircuitBuilder(
            hash_cons=False, fold_constants=False, absorb_inverters=False
        )
        a, b = bd.inputs(2)
        nodes = [a, b]
        for gate in gates:
            if gate.arity == 0:
                nodes.append(bd.gate(gate))
            elif gate.arity == 1:
                nodes.append(bd.gate(gate, nodes[-1]))
            else:
                nodes.append(bd.gate(gate, nodes[-1], nodes[-2]))
        bd.output(nodes[-1])
        nl = bd.build()
        for va in (0, 1):
            for vb in (0, 1):
                values = [va, vb]
                for gate in gates:
                    if gate.arity == 0:
                        values.append(evaluate_plain(gate))
                    elif gate.arity == 1:
                        values.append(evaluate_plain(gate, values[-1]))
                    else:
                        values.append(
                            evaluate_plain(gate, values[-1], values[-2])
                        )
                got = nl.evaluate(np.array([va, vb], dtype=bool))[0]
                assert got == bool(values[-1])


class TestLevelsAndStats:
    def test_half_adder_stats(self):
        stats = _half_adder_netlist().stats()
        assert stats.num_gates == 2
        assert stats.num_bootstrapped_gates == 2
        assert stats.bootstrap_depth == 1
        assert stats.max_level_width == 2
        assert stats.gate_histogram == {"XOR": 1, "AND": 1}

    def test_free_gates_add_no_depth(self):
        bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
        a, b = bd.inputs(2)
        x = bd.and_(a, b)
        y = bd.not_(x)  # free
        z = bd.not_(y)  # free (folding disabled)
        w = bd.or_(z, a)
        bd.output(w)
        nl = bd.build()
        assert nl.stats().bootstrap_depth == 2

    def test_chain_depth(self):
        bd = CircuitBuilder()
        a, b = bd.inputs(2)
        x = a
        for _ in range(7):
            x = bd.xor_(bd.and_(x, b), b)
        bd.output(x)
        assert bd.build().stats().bootstrap_depth == 14

    def test_levels_are_monotonic(self):
        nl = _half_adder_netlist()
        levels = nl.bootstrap_levels()
        assert levels[0] == 0 and levels[1] == 0
        assert levels[2] == 1 and levels[3] == 1

    def test_repr(self):
        assert "half_adder" in repr(_half_adder_netlist())


GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_netlist_stats.json").read_text()
)


class TestGoldenLevelsAndStats:
    """``bootstrap_levels()``/``stats()`` values recorded at the commit
    before the array rewrite (per-gate Python loops, two classes)."""

    @staticmethod
    def _netlist(name):
        if name == "adder8-mblut16":
            from repro import TensorSpec, compile_function
            from repro.chiseltorch.dtypes import UInt
            from repro.mblut import synthesize

            adder = compile_function(
                lambda x, y: x + y,
                [TensorSpec("x", (), UInt(8)), TensorSpec("y", (), UInt(8))],
                name="adder8",
            )
            return synthesize(adder.netlist, modulus=16)
        from repro.bench import vip_workload

        return vip_workload(name).netlist

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_parent(self, name):
        want = GOLDEN[name]
        netlist = self._netlist(name)
        levels = np.asarray(netlist.bootstrap_levels(), dtype=np.int64)
        stats = netlist.stats()
        got = {
            "levels_sha": hashlib.sha256(levels.tobytes()).hexdigest()[:16],
            "levels_sum": int(levels.sum()),
            "levels_max": int(levels.max()),
            "num_inputs": stats.num_inputs,
            "num_outputs": stats.num_outputs,
            "num_gates": stats.num_gates,
            "num_bootstrapped_gates": stats.num_bootstrapped_gates,
            "gate_histogram": stats.gate_histogram,
            "bootstrap_depth": stats.bootstrap_depth,
            "max_level_width": stats.max_level_width,
            "mean_level_width": stats.mean_level_width,
        }
        assert got == want
