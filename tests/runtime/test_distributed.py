"""Distributed (multiprocessing) backend tests."""

import numpy as np
import pytest

from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.runtime import CpuBackend, DistributedCpuBackend
from repro.tfhe import decrypt_bits, encrypt_bits


@pytest.fixture(scope="module")
def adder_circuit():
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(6)]
    b = [bd.input() for _ in range(6)]
    for bit in arith.ripple_add(bd, a, b, width=6, signed=False):
        bd.output(bit)
    return bd.build()


def _bits(a, b, width=6):
    return np.array(
        [(a >> i) & 1 for i in range(width)]
        + [(b >> i) & 1 for i in range(width)],
        dtype=bool,
    )


@pytest.fixture(scope="module")
def pool_backend(test_keys):
    _, cloud = test_keys
    backend = DistributedCpuBackend(cloud, num_workers=3)
    yield backend
    backend.shutdown()


class TestDistributedBackend:
    def test_matches_single_thread(
        self, adder_circuit, test_keys, rng, pool_backend
    ):
        secret, cloud = test_keys
        ct = encrypt_bits(secret, _bits(19, 44), rng)
        out_d, rep_d = pool_backend.run(adder_circuit, ct)
        got = decrypt_bits(secret, out_d)
        want = np.array([(63 >> i) & 1 for i in range(6)], dtype=bool)
        assert np.array_equal(got, want)

    def test_tasks_split_across_workers(
        self, adder_circuit, test_keys, rng, pool_backend
    ):
        secret, _ = test_keys
        ct = encrypt_bits(secret, _bits(1, 2), rng)
        _, report = pool_backend.run(adder_circuit, ct)
        # At least one level is wide enough to split into >1 task.
        assert report.tasks_submitted > report.levels
        # Ciphertexts live in the shared plane: none cross a pipe.
        assert report.transport == "shm"
        assert report.ciphertext_bytes_moved == 0
        assert report.extra["control_bytes_moved"] > 0

    def test_pool_reuse_is_reported(
        self, adder_circuit, test_keys, rng, pool_backend
    ):
        secret, _ = test_keys
        ct = encrypt_bits(secret, _bits(3, 4), rng)
        _, first = pool_backend.run(adder_circuit, ct)
        _, second = pool_backend.run(adder_circuit, ct)
        # The pool broadcast the key at start, never again.
        assert second.key_bytes_moved == 0
        assert second.pool_reused

    def test_backend_name_mentions_workers(self, pool_backend):
        assert "3w" in pool_backend.name
        assert "shm" in pool_backend.name

    def test_context_manager(self, test_keys, adder_circuit, rng):
        secret, cloud = test_keys
        with DistributedCpuBackend(cloud, num_workers=2) as backend:
            ct = encrypt_bits(secret, _bits(5, 6), rng)
            out, _ = backend.run(adder_circuit, ct)
            got = decrypt_bits(secret, out)
        want = np.array([(11 >> i) & 1 for i in range(6)], dtype=bool)
        assert np.array_equal(got, want)

    def test_size_guard(self, pool_backend, secret_key, rng):
        class FakeNetlist:
            num_nodes = 10 ** 9
            num_inputs = 2

        ct = encrypt_bits(secret_key, [True, False], rng)
        with pytest.raises(ValueError, match="real-FHE executor limit"):
            pool_backend.run(FakeNetlist(), ct)

    @pytest.mark.parametrize("width", [1, 11, 13])
    def test_wrong_input_width_rejected(
        self, adder_circuit, test_keys, rng, pool_backend, width
    ):
        # Unchecked, a (1, n) input broadcasts across every input row
        # of the plane and decrypts to a wrong plaintext, silently.
        secret, cloud = test_keys
        ct = encrypt_bits(secret, np.zeros(width, dtype=bool), rng)
        with pytest.raises(ValueError) as distributed:
            pool_backend.run(adder_circuit, ct)
        with pytest.raises(ValueError) as in_process:
            CpuBackend(cloud).run(adder_circuit, ct)
        assert str(distributed.value) == str(in_process.value)
        assert "expected 12 input ciphertexts" in str(distributed.value)


class TestStackedRequests:
    """The distributed backend takes the same (R, num_inputs) batches."""

    def test_report_fields_keep_their_meaning(
        self, adder_circuit, test_keys, rng, pool_backend
    ):
        secret, _ = test_keys
        bits = np.stack([_bits(19, 44), _bits(1, 2), _bits(63, 63)])
        stacked = encrypt_bits(secret, bits, rng)
        _, one = pool_backend.run(adder_circuit, stacked[0])
        out, many = pool_backend.run_many(adder_circuit, stacked)
        assert np.array_equal(
            decrypt_bits(secret, out),
            np.stack([adder_circuit.evaluate(row) for row in bits]),
        )
        assert many.backend == f"{pool_backend.name}-x3"
        assert many.gates_bootstrapped == 3 * one.gates_bootstrapped
        # Levels shard by gate, not by request: the same tasks, and
        # still no ciphertext byte over a pipe.
        assert many.tasks_submitted == one.tasks_submitted
        assert many.ciphertext_bytes_moved == 0
        assert many.key_bytes_moved == 0 and many.pool_reused

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((12,), "batch shape"),
            ((2, 7), "heterogeneous input width"),
            ((0, 12), "at least one instance"),
        ],
    )
    def test_bad_batches_rejected_before_a_plane_exists(
        self, adder_circuit, test_keys, rng, pool_backend, shape, message
    ):
        secret, _ = test_keys
        ct = encrypt_bits(secret, np.zeros(shape, dtype=bool), rng)
        with pytest.raises(ValueError, match=message):
            pool_backend.run_many(adder_circuit, ct)
        assert pool_backend.pool._plane is None


class TestWorkersReceiveTheBinary:
    """The broadcast plan is ``assemble(netlist)``; workers execute
    ``disassemble`` of it, ciphertext for ciphertext like in process."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["boolean", "mblut"])
    def test_ciphertext_identical_to_in_process(
        self, adder_circuit, test_keys, rng, workers, kind
    ):
        from repro.isa import assemble
        from repro.mblut import encrypt_mb_inputs, synthesize
        from repro.tfhe.lwe import LweCiphertext

        secret, cloud = test_keys
        rows = [_bits(19, 44), _bits(1, 2), _bits(63, 63)]
        if kind == "boolean":
            netlist = adder_circuit
            cts = [encrypt_bits(secret, row, rng) for row in rows]
        else:
            netlist = synthesize(adder_circuit, modulus=8)
            assert netlist.is_multibit
            cts = [
                encrypt_mb_inputs(secret, netlist, row, rng) for row in rows
            ]
        stacked = LweCiphertext.stack(cts)
        local = CpuBackend(cloud)
        want_one, _ = local.run(netlist, stacked[0])
        want_many, _ = local.run_many(netlist, stacked)
        with DistributedCpuBackend(cloud, num_workers=workers) as backend:
            one, report = backend.run(netlist, stacked[0])
            many, _ = backend.run_many(netlist, stacked)
        for got, want in ((one, want_one), (many, want_many)):
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.b, want.b)
        # Each worker was sent the whole binary once, plus its chunks.
        assert report.extra["plan_bytes_moved"] >= workers * len(
            assemble(netlist)
        )
