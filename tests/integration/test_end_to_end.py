"""Full-pipeline integration tests: the paper's Fig. 2 flow end to end,
including real FHE execution of compiled neural networks."""

import numpy as np
import pytest

from repro.bench import vip_workload
from repro.chiseltorch import nn
from repro.chiseltorch.dtypes import SInt
from repro.core import (
    Client,
    Server,
    compile_function,
    compile_model,
    compile_to_binary,
)
from repro.core.compiler import TensorSpec
from repro.isa import disassemble
from repro.runtime import CpuBackend, build_schedule
from repro.synth import optimize
from repro.tfhe import TFHE_TEST
from repro.verilog import emit_verilog, parse_verilog

# Real-FHE end-to-end runs: the heavyweight tier CI deselects
# with -m "not slow".
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def client():
    return Client(TFHE_TEST, seed=21)


class TestFig2Flow:
    """Model -> (Verilog) -> netlist -> binary -> backend, like Fig. 2."""

    def test_full_flow_tiny_cnn(self, client, rng):
        model = nn.Sequential(
            nn.Conv2d(1, 1, 2, 1, seed=8),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4, 2, seed=9),
            dtype=SInt(6),
        )
        compiled = compile_model(model, (1, 3, 3))

        # Step: Verilog round-trip (ChiselTorch -> Verilog -> netlist).
        verilog = emit_verilog(compiled.netlist, "mnist_tiny")
        netlist = parse_verilog(verilog)

        # Step: binary round-trip (assembler).
        binary = compile_to_binary(compiled)
        netlist2 = disassemble(binary)

        # Step: execute under real FHE and compare to plaintext.
        x = rng.integers(-3, 4, (1, 3, 3)).astype(float)
        want = compiled.run_plain(x)[0]
        ct = client.encrypt(compiled, x)
        backend = CpuBackend(client.cloud_key)
        for program in (netlist, netlist2):
            out_ct, _ = backend.run(program, ct)
            got = compiled.decode_outputs(client.decrypt_bits(out_ct))[0]
            assert np.array_equal(got, want)

    def test_synthesized_netlist_still_correct_under_fhe(self, client, rng):
        compiled = compile_function(
            lambda a, b: a * b + a,
            [TensorSpec("a", (2,), SInt(5)), TensorSpec("b", (2,), SInt(5))],
        )
        optimized = optimize(compiled.netlist)
        a = np.array([3.0, -2.0])
        b = np.array([2.0, 4.0])
        want = compiled.run_plain(a, b)[0]
        ct = client.encrypt(compiled, a, b)
        out_ct, _ = CpuBackend(client.cloud_key).run(
            optimized, ct
        )
        got = compiled.decode_outputs(client.decrypt_bits(out_ct))[0]
        assert np.array_equal(got, want)


class TestVipUnderFHE:
    """Run real FHE on (small) VIP-Bench kernels."""

    @pytest.mark.parametrize("name", ["hamming_distance", "fibonacci"])
    def test_kernel_under_fhe(self, client, name, rng):
        w = vip_workload(name)
        inputs = w.sample_inputs()
        bits = w.compiled.encode_inputs(*inputs)
        want = w.compiled.run_plain(*inputs)
        ct = client.encrypt_bits(bits)
        out_ct, report = CpuBackend(client.cloud_key).run(
            w.netlist, ct
        )
        got = w.compiled.decode_outputs(client.decrypt_bits(out_ct))
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)
        assert report.gates_bootstrapped == w.schedule.num_bootstrapped


class TestMiniMnistUnderFHE:
    def test_mini_mnist_inference_fhe(self, client, rng):
        """A downscaled MNIST CNN classified under real encryption —
        the headline capability of the paper."""
        model = nn.Sequential(
            nn.Conv2d(1, 1, 3, 1, seed=31),
            nn.ReLU(),
            nn.MaxPool2d(2, 1),
            nn.Flatten(),
            nn.Linear(25, 4, seed=32),
            dtype=SInt(8),
        )
        compiled = compile_model(model, (1, 8, 8))
        x = rng.integers(0, 8, (1, 8, 8)).astype(float)
        want = compiled.run_plain(x)[0]

        with Server(client.cloud_key, backend="batched") as server:
            ct = client.encrypt(compiled, x)
            out_ct, report = server.execute(compiled, ct)
            got = client.decrypt(compiled, out_ct)[0]
        assert np.array_equal(got, want)
        assert np.argmax(got) == np.argmax(want)
        assert report.levels == build_schedule(compiled.netlist).depth


class TestCrossBackendAgreement:
    def test_plain_and_fhe_agree_on_random_circuits(self, client, rng):
        from repro.gatetypes import Gate, TWO_INPUT_GATES
        from repro.hdl.builder import CircuitBuilder

        for seed in range(3):
            rng2 = np.random.default_rng(seed)
            bd = CircuitBuilder(
                hash_cons=False, fold_constants=False, absorb_inverters=False
            )
            nodes = list(bd.inputs(5))
            pool = list(TWO_INPUT_GATES) + [Gate.NOT]
            for _ in range(25):
                gate = pool[rng2.integers(len(pool))]
                nodes.append(
                    bd.gate(
                        gate,
                        nodes[rng2.integers(len(nodes))],
                        nodes[rng2.integers(len(nodes))],
                    )
                )
            for node in nodes[-3:]:
                bd.output(node)
            nl = bd.build()
            bits = rng2.integers(0, 2, 5).astype(bool)
            want = nl.evaluate(bits)
            ct = client.encrypt_bits(bits)
            out_ct, _ = CpuBackend(client.cloud_key).run(nl, ct)
            assert np.array_equal(client.decrypt_bits(out_ct), want)


class TestMoreVipKernelsUnderFHE:
    """Additional real-FHE runs over serial and mux-heavy kernels."""

    def test_parrondo_under_fhe(self, client):
        w = vip_workload("parrondo")
        inputs = w.sample_inputs()
        want = w.compiled.run_plain(*inputs)
        ct = client.encrypt_bits(w.compiled.encode_inputs(*inputs))
        out_ct, _ = CpuBackend(client.cloud_key).run(
            w.netlist, ct
        )
        got = w.compiled.decode_outputs(client.decrypt_bits(out_ct))
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)

    def test_string_search_under_fhe(self, client):
        w = vip_workload("string_search")
        inputs = w.sample_inputs()
        want = w.compiled.run_plain(*inputs)
        ct = client.encrypt_bits(w.compiled.encode_inputs(*inputs))
        out_ct, _ = CpuBackend(client.cloud_key).run(
            w.netlist, ct
        )
        got = w.compiled.decode_outputs(client.decrypt_bits(out_ct))
        assert np.array_equal(got[0], want[0])
        assert got[0][-1] == 1.0  # the planted pattern is found

    def test_distributed_backend_on_vip_kernel(self, client):
        from repro.runtime import DistributedCpuBackend

        w = vip_workload("hamming_distance")
        inputs = w.sample_inputs()
        want = w.compiled.run_plain(*inputs)
        ct = client.encrypt_bits(w.compiled.encode_inputs(*inputs))
        with DistributedCpuBackend(
            client.cloud_key, num_workers=2
        ) as backend:
            out_ct, report = backend.run(w.netlist, ct)
        got = w.compiled.decode_outputs(client.decrypt_bits(out_ct))
        assert np.array_equal(got[0], want[0])
        assert report.tasks_submitted > 0
