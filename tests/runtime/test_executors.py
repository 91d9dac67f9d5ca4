"""Backend execution tests: every backend agrees with the plaintext
reference on real FHE ciphertexts."""

import numpy as np
import pytest

from repro import obs
from repro.chiseltorch import functional as F
from repro.chiseltorch.dtypes import SInt
from repro.core.compiler import TensorSpec, compile_function
from repro.hdl.builder import CircuitBuilder
from repro.runtime import CpuBackend, MAX_FHE_NODES, PlaintextBackend
from repro.tfhe import decrypt_bits, encrypt_bits


@pytest.fixture(scope="module")
def small_circuit():
    """4-bit adder with a NOT/const sprinkle (exercises free gates)."""
    bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
    a = [bd.input() for _ in range(4)]
    b = [bd.input() for _ in range(4)]
    from repro.hdl import arith

    total = arith.ripple_add(bd, a, b, width=4, signed=False)
    bd.output(bd.not_(total[0]))
    for bit in total[1:]:
        bd.output(bit)
    bd.output(bd.const(True))
    return bd.build()


def _encode(a, b):
    bits = [(a >> i) & 1 for i in range(4)] + [(b >> i) & 1 for i in range(4)]
    return np.array(bits, dtype=bool)


def _expected(a, b):
    total = (a + b) % 16
    out = [(total >> i) & 1 for i in range(4)]
    out[0] = 1 - out[0]
    return np.array(out + [1], dtype=bool)


class TestPlaintextBackend:
    def test_matches_expected(self, small_circuit):
        backend = PlaintextBackend()
        out, report = backend.run(small_circuit, _encode(5, 9))
        assert np.array_equal(out, _expected(5, 9))
        assert report.backend == "plaintext"
        assert report.gates_total == small_circuit.num_gates


class TestCpuBackendFHE:
    def test_matches_plaintext(self, small_circuit, test_keys, rng):
        secret, cloud = test_keys
        backend = CpuBackend(cloud)
        ct = encrypt_bits(secret, _encode(7, 12), rng)
        out_ct, report = backend.run(small_circuit, ct)
        got = decrypt_bits(secret, out_ct)
        assert np.array_equal(got, _expected(7, 12))
        assert report.gates_bootstrapped > 0
        assert report.wall_time_s > 0

    def test_wrong_input_count_rejected(self, small_circuit, test_keys, rng):
        secret, cloud = test_keys
        ct = encrypt_bits(secret, [True, False], rng)
        with pytest.raises(ValueError):
            CpuBackend(cloud).run(small_circuit, ct)

    def test_size_guard(self, test_keys, secret_key, rng):
        _, cloud = test_keys
        backend = CpuBackend(cloud)

        class FakeNetlist:
            num_nodes = MAX_FHE_NODES + 1
            num_inputs = 2

        ct = encrypt_bits(secret_key, [True, False], rng)
        with pytest.raises(ValueError, match="real-FHE executor limit"):
            backend.run(FakeNetlist(), ct)

    def test_report_counts(self, small_circuit, test_keys, rng):
        secret, cloud = test_keys
        ct = encrypt_bits(secret, _encode(0, 0), rng)
        _, report = CpuBackend(cloud).run(small_circuit, ct)
        stats = small_circuit.stats()
        assert report.gates_bootstrapped == stats.num_bootstrapped_gates
        assert report.levels == stats.bootstrap_depth
        assert report.ciphertext_bytes_moved > 0
        assert report.seconds_per_bootstrapped_gate > 0

    def test_argmax_network_under_fhe(self, test_keys, rng):
        """A tensor-level program through the full crypto pipeline."""
        secret, cloud = test_keys
        cc = compile_function(
            lambda v: F.argmax(v), [TensorSpec("v", (4,), SInt(4))]
        )
        values = np.array([2.0, -1.0, 5.0, 0.0])
        bits = cc.encode_inputs(values)
        ct = encrypt_bits(secret, bits, rng)
        out_ct, _ = CpuBackend(cloud).run(cc.netlist, ct)
        got = cc.decode_outputs(decrypt_bits(secret, out_ct))[0]
        assert got == 2


class TestFreeGateHandling:
    def test_not_only_circuit(self, test_keys, rng):
        secret, cloud = test_keys
        bd = CircuitBuilder(fold_constants=False)
        a = bd.input()
        bd.output(bd.not_(a))
        nl = bd.build()
        ct = encrypt_bits(secret, [True], rng)
        out, report = CpuBackend(cloud).run(nl, ct)
        assert not decrypt_bits(secret, out)[0]
        assert report.gates_bootstrapped == 0

    def test_const_outputs(self, test_keys, rng):
        secret, cloud = test_keys
        bd = CircuitBuilder(fold_constants=False)
        a = bd.input()
        bd.output(bd.const(True))
        bd.output(bd.const(False))
        nl = bd.build()
        ct = encrypt_bits(secret, [False], rng)
        out, _ = CpuBackend(cloud).run(nl, ct)
        got = decrypt_bits(secret, out)
        assert got[0] and not got[1]

    def test_passthrough_output(self, test_keys, rng):
        secret, cloud = test_keys
        bd = CircuitBuilder()
        a = bd.input()
        bd.output(a)
        ct = encrypt_bits(secret, [True], rng)
        out, _ = CpuBackend(cloud).run(bd.build(), ct)
        assert decrypt_bits(secret, out)[0]


class TestLevelKernels:
    """``bootstrap_level`` / ``free_gates`` on a stacked plane."""

    @staticmethod
    def _plane(circuit, secret, cloud, rng, requests=2):
        bits = rng.integers(0, 2, (requests, circuit.num_inputs)).astype(bool)
        ct = encrypt_bits(secret, bits, rng)
        dim = cloud.params.lwe_dimension
        a = np.zeros((circuit.num_nodes, requests, dim), dtype=np.int32)
        b = np.zeros((circuit.num_nodes, requests), dtype=np.int32)
        a[: circuit.num_inputs] = np.swapaxes(ct.a, 0, 1)
        b[: circuit.num_inputs] = np.swapaxes(ct.b, 0, 1)
        return bits, a, b

    def test_shards_of_a_level_compose(self, small_circuit, test_keys, rng):
        """What the worker pool relies on: bootstrapping a level shard
        by shard leaves the plane exactly as bootstrapping it whole."""
        from repro.runtime import build_schedule, shard_level
        from repro.runtime.executors import bootstrap_level

        secret, cloud = test_keys
        _, a, b = self._plane(small_circuit, secret, cloud, rng)
        level = next(
            lv for lv in build_schedule(small_circuit).levels if lv.width > 1
        )
        whole_a, whole_b = a.copy(), b.copy()
        moved = bootstrap_level(
            cloud, small_circuit, whole_a, whole_b, level.bootstrapped
        )
        shard_moved = sum(
            bootstrap_level(cloud, small_circuit, a, b, shard)
            for shard in shard_level(level.bootstrapped, 2)
        )
        assert np.array_equal(a, whole_a) and np.array_equal(b, whole_b)
        assert shard_moved == moved > 0

    def test_free_gates_cover_every_request(self, test_keys, rng):
        from repro.runtime.executors import free_gates

        secret, cloud = test_keys
        bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
        x = bd.input()
        bd.output(bd.not_(bd.not_(x)))  # a free gate reading a free gate
        bd.output(bd.not_(x))
        bd.output(bd.const(True))
        bd.output(bd.const(False))
        nl = bd.build()
        bits, a, b = self._plane(nl, secret, cloud, rng, requests=3)
        free_gates(nl, a, b, np.arange(nl.num_gates), cloud.params)
        from repro.tfhe.lwe import LweCiphertext

        got = decrypt_bits(
            secret, LweCiphertext(a[nl.outputs], b[nl.outputs])
        )
        want = np.stack([nl.evaluate(row) for row in bits], axis=1)
        assert np.array_equal(got, want)


class TestExecutionReportJson:
    def test_json_roundtrip_with_trace(self, small_circuit, test_keys, rng):
        import json

        secret, cloud = test_keys
        ct = encrypt_bits(
            secret, rng.integers(0, 2, small_circuit.num_inputs).astype(bool), rng
        )
        # Observed or not, a report is scalars only and round-trips.
        with obs.observe():
            _, report = CpuBackend(cloud).run(small_circuit, ct)
        text = report.to_json()
        doc = json.loads(text)  # valid JSON document
        assert "trace" not in doc
        back = type(report).from_json(text)
        assert back == report
        # An older server's reply still carries its event list: dropped.
        legacy = dict(doc, trace=[{"level": 1, "kind": "bootstrap"}])
        assert type(report).from_dict(legacy) == report
        with pytest.raises(TypeError):
            type(report).from_dict(dict(doc, tracee=[]))

    def test_json_roundtrip_without_trace(self, small_circuit):
        import json

        inputs = np.zeros(small_circuit.num_inputs, dtype=bool)
        _, report = PlaintextBackend().run(small_circuit, inputs)
        back = type(report).from_json(report.to_json())
        assert back == report
        assert json.loads(report.to_json())["backend"] == "plaintext"

    def test_json_is_deterministic(self, small_circuit):
        inputs = np.zeros(small_circuit.num_inputs, dtype=bool)
        _, report = PlaintextBackend().run(small_circuit, inputs)
        assert report.to_json() == type(report).from_json(report.to_json()).to_json()
