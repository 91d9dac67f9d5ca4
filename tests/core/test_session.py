"""Client/server session tests (the Fig. 1 workflow)."""

import numpy as np
import pytest

from repro.chiseltorch.dtypes import SInt
from repro.core import Client, Server, compile_function, compile_to_binary
from repro.core.compiler import TensorSpec
from repro.core.session import _resolve_netlist
from repro.tfhe import TFHE_TEST


@pytest.fixture(scope="module")
def client():
    return Client(TFHE_TEST, seed=11)


@pytest.fixture(scope="module")
def compiled():
    return compile_function(
        lambda x, y: (x + y).relu(),
        [TensorSpec("x", (3,), SInt(6)), TensorSpec("y", (3,), SInt(6))],
    )


class TestSession:
    def test_roundtrip_batched(self, client, compiled):
        with Server(client.cloud_key, backend="batched") as server:
            x = np.array([2.0, -5.0, 1.0])
            y = np.array([1.0, 2.0, -4.0])
            ct = client.encrypt(compiled, x, y)
            out_ct, report = server.execute(compiled, ct)
            got = client.decrypt(compiled, out_ct)[0]
        assert np.array_equal(got, np.maximum(x + y, 0))
        assert report.gates_bootstrapped > 0

    def test_distributed_execute_many(self, client, compiled):
        """Every backend takes (instances, num_inputs) batches."""
        from repro.tfhe.lwe import LweCiphertext

        xs = np.array([[1.0, 1.0, 1.0], [2.0, -5.0, 1.0]])
        ys = np.array([[2.0, -3.0, 0.0], [1.0, 2.0, -4.0]])
        stacked = LweCiphertext.stack(
            [client.encrypt(compiled, x, y) for x, y in zip(xs, ys)]
        )
        with Server(
            client.cloud_key, backend="distributed", num_workers=2
        ) as server:
            out_ct, report = server.execute_many(compiled, stacked)
        assert report.backend == "cpu-distributed-2w-shm-x2"
        assert report.tasks_submitted >= report.levels
        for x, y, out in zip(xs, ys, out_ct):
            got = client.decrypt(compiled, out)[0]
            assert np.array_equal(got, np.maximum(x + y, 0))

    def test_binary_execution_path(self, client, compiled):
        """Server can run straight from the assembled PyTFHE binary."""
        binary = compile_to_binary(compiled)
        assert isinstance(binary, bytes)
        with Server(client.cloud_key, backend="batched") as server:
            x = np.array([4.0, 0.0, -1.0])
            y = np.array([-4.0, 5.0, 3.0])
            ct = client.encrypt(compiled, x, y)
            out_ct, _ = server.execute(binary, ct)
            got = client.decrypt(compiled, out_ct)[0]
        assert np.array_equal(got, np.maximum(x + y, 0))

    @pytest.mark.parametrize("backend", ["quantum", "single"])
    def test_unknown_backend_rejected(self, client, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            Server(client.cloud_key, backend=backend)

    def test_resolve_rejects_junk(self):
        with pytest.raises(TypeError):
            _resolve_netlist(42)

    def test_bit_level_api(self, client):
        bits = np.array([True, False, True])
        ct = client.encrypt_bits(bits)
        assert np.array_equal(client.decrypt_bits(ct), bits)

    def test_deterministic_client(self):
        c1 = Client(TFHE_TEST, seed=7)
        c2 = Client(TFHE_TEST, seed=7)
        assert np.array_equal(c1._secret.lwe_key, c2._secret.lwe_key)
