"""Multi-instance SIMD execution tests (CpuBackend.run_many)."""

import numpy as np
import pytest

from repro.chiseltorch import functional as F
from repro.chiseltorch.dtypes import SInt
from repro.core.compiler import TensorSpec, compile_function
from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.runtime import CpuBackend
from repro.tfhe import decrypt_bits, encrypt_bits
from repro.tfhe.lwe import LweCiphertext


@pytest.fixture(scope="module")
def adder():
    bd = CircuitBuilder(fold_constants=False, absorb_inverters=False)
    a = [bd.input() for _ in range(4)]
    b = [bd.input() for _ in range(4)]
    total = arith.ripple_add(bd, a, b, width=4, signed=False)
    total[0] = bd.not_(total[0])  # sprinkle a free gate
    for bit in total:
        bd.output(bit)
    return bd.build()


def _encode_many(pairs):
    rows = []
    for a, b in pairs:
        rows.append(
            [(a >> i) & 1 for i in range(4)] + [(b >> i) & 1 for i in range(4)]
        )
    return np.array(rows, dtype=bool)


def test_run_many_matches_run(adder, test_keys, rng):
    secret, cloud = test_keys
    pairs = [(3, 9), (15, 1), (0, 0), (7, 7)]
    bits = _encode_many(pairs)
    ct = encrypt_bits(secret, bits, rng)  # batch (4, 8)
    backend = CpuBackend(cloud)
    out, report = backend.run_many(adder, ct)
    assert out.batch_shape == (4, 4)
    got = decrypt_bits(secret, out)
    for row, (a, b) in zip(got, pairs):
        single, single_report = backend.run(
            adder, LweCiphertext(ct.a[pairs.index((a, b))], ct.b[pairs.index((a, b))])
        )
        assert np.array_equal(row, decrypt_bits(secret, single))
    assert report.gates_bootstrapped == 4 * adder.stats().num_bootstrapped_gates
    # Bytes gathered + scattered are counted the same way at every R.
    assert (
        report.ciphertext_bytes_moved
        == 4 * single_report.ciphertext_bytes_moved
        > 0
    )


def test_run_many_amortizes_time(adder, test_keys, rng):
    """Per-instance time shrinks as instances batch together."""
    import time

    secret, cloud = test_keys
    backend = CpuBackend(cloud)

    one = encrypt_bits(secret, _encode_many([(5, 6)]), rng)
    many = encrypt_bits(secret, _encode_many([(5, 6)] * 16), rng)
    t0 = time.perf_counter()
    backend.run_many(adder, one)
    t_one = time.perf_counter() - t0
    t0 = time.perf_counter()
    backend.run_many(adder, many)
    t_many = time.perf_counter() - t0
    assert t_many < 16 * t_one  # strictly better than replaying 16x


def test_run_many_tensor_program(test_keys, rng):
    secret, cloud = test_keys
    cc = compile_function(
        lambda v: F.max(v), [TensorSpec("v", (4,), SInt(6))]
    )
    instances = [
        np.array([1.0, -7.0, 3.0, 2.0]),
        np.array([-1.0, -2.0, -3.0, -4.0]),
        np.array([5.0, 5.0, 0.0, 1.0]),
    ]
    bits = np.stack([cc.encode_inputs(x) for x in instances])
    ct = encrypt_bits(secret, bits, rng)
    out, _ = CpuBackend(cloud).run_many(cc.netlist, ct)
    got_bits = decrypt_bits(secret, out)
    for row, x in zip(got_bits, instances):
        assert cc.decode_outputs(row)[0] == x.max()


def test_run_many_shape_validation(adder, test_keys, rng):
    secret, cloud = test_keys
    flat = encrypt_bits(secret, np.zeros(8, dtype=bool), rng)
    backend = CpuBackend(cloud)
    with pytest.raises(ValueError):
        backend.run_many(adder, flat)

class TestRunManyEdgeCases:
    def test_empty_batch_rejected(self, adder, test_keys):
        _, cloud = test_keys
        backend = CpuBackend(cloud)
        empty = LweCiphertext(
            np.zeros((0, 8, cloud.params.lwe_dimension), dtype=np.int32),
            np.zeros((0, 8), dtype=np.int32),
        )
        with pytest.raises(ValueError, match="at least one instance"):
            backend.run_many(adder, empty)

    def test_batch_of_one_matches_run(self, adder, test_keys, rng):
        secret, cloud = test_keys
        bits = _encode_many([(11, 6)])
        ct = encrypt_bits(secret, bits, rng)
        backend = CpuBackend(cloud)
        many, many_report = backend.run_many(adder, ct)
        single, report = backend.run(
            adder, LweCiphertext(ct.a[0], ct.b[0])
        )
        assert many.batch_shape == (1, 4)
        # run is the R = 1 case of run_many: the same ciphertexts, not
        # just the same plaintext; only the reported name differs.
        assert np.array_equal(many.a[0], single.a)
        assert np.array_equal(many.b[0], single.b)
        assert many_report.gates_total == adder.num_gates
        assert (many_report.backend, report.backend) == (
            "cpu-batched-x1", "cpu-batched"
        )
        assert (
            many_report.ciphertext_bytes_moved
            == report.ciphertext_bytes_moved
        )

    def test_heterogeneous_width_rejected(self, adder, test_keys, rng):
        secret, cloud = test_keys
        # The adder takes 8 input bits per instance; offer 6.
        bits = np.zeros((3, 6), dtype=bool)
        ct = encrypt_bits(secret, bits, rng)
        backend = CpuBackend(cloud)
        with pytest.raises(ValueError, match="heterogeneous input width"):
            backend.run_many(adder, ct)
