"""Encrypted multi-bit execution: in-process, distributed, serve.

Runs at modulus 8 on the fast test parameters: their noise level holds
a 1/32 digit margin (certified >6 sigma), whereas p=16 genuinely fails
there — the analyzer tests cover that boundary.
"""

import numpy as np
import pytest

from repro.hdl.arith import ripple_add
from repro.hdl.builder import CircuitBuilder
from repro.mblut import (
    decrypt_mb_outputs,
    encrypt_mb_inputs,
    synthesize,
)
from repro.runtime import CpuBackend, build_schedule

WIDTH = 6
MODULUS = 8


@pytest.fixture(scope="module")
def boolean_adder():
    bd = CircuitBuilder()
    a = [bd.input() for _ in range(WIDTH)]
    b = [bd.input() for _ in range(WIDTH)]
    for bit in ripple_add(bd, a, b, width=WIDTH + 1, signed=False):
        bd.output(bit)
    return bd.build()


@pytest.fixture(scope="module")
def mb_adder(boolean_adder):
    return synthesize(boolean_adder, modulus=MODULUS)


def _operand_bits(a, b):
    return np.array(
        [(a >> i) & 1 for i in range(WIDTH)]
        + [(b >> i) & 1 for i in range(WIDTH)],
        dtype=bool,
    )


class TestEncryptedExecution:
    def test_batched_matches_boolean_oracle(
        self, boolean_adder, mb_adder, test_keys, rng
    ):
        secret, cloud = test_keys
        bits = _operand_bits(45, 18)
        ct = encrypt_mb_inputs(secret, mb_adder, bits, rng)
        out, report = CpuBackend(cloud).run(mb_adder, ct)
        got = decrypt_mb_outputs(secret, mb_adder, out)
        assert np.array_equal(got, boolean_adder.evaluate(bits))
        assert report.gates_bootstrapped == mb_adder.num_lut_bootstraps

    def test_distributed_matches_in_process(self, boolean_adder, mb_adder,
                                            test_keys, rng):
        from repro.runtime import DistributedCpuBackend
        from repro.tfhe.lwe import LweCiphertext

        secret, cloud = test_keys
        bits = np.stack([_operand_bits(31, 32), _operand_bits(9, 54)])
        stacked = LweCiphertext.stack(
            [encrypt_mb_inputs(secret, mb_adder, row, rng) for row in bits]
        )
        local = CpuBackend(cloud)
        want_one, _ = local.run(mb_adder, stacked[0])
        want_many, _ = local.run_many(mb_adder, stacked)
        with DistributedCpuBackend(cloud, num_workers=2) as backend:
            one, report = backend.run(mb_adder, stacked[0])
            many, _ = backend.run_many(mb_adder, stacked)
        assert report.transport == "shm"
        assert report.ciphertext_bytes_moved == 0
        for got, want in ((one, want_one), (many, want_many)):
            assert np.array_equal(got.a, want.a)
            assert np.array_equal(got.b, want.b)
        for row, out in zip(bits, many):
            assert np.array_equal(
                decrypt_mb_outputs(secret, mb_adder, out),
                boolean_adder.evaluate(row),
            )

    def test_lut_levels_record_the_bootstrap_phase_split(
        self, mb_adder, test_keys, rng
    ):
        from repro import obs

        secret, cloud = test_keys
        ct = encrypt_mb_inputs(secret, mb_adder, _operand_bits(1, 2), rng)
        with obs.observe() as ob:
            _, report = CpuBackend(cloud).run(mb_adder, ct)
        series = ob.metrics.snapshot_series()["histograms"][
            "bootstrap_phase_ms"
        ]
        phases = {s["labels"]["phase"]: s for s in series}
        assert set(phases) == {"blind_rotate", "keyswitch"}
        # One observation per fused bootstrap call: one per level.
        bootstrapped_levels = sum(
            1 for level in build_schedule(mb_adder).levels if level.width
        )
        assert bootstrapped_levels == report.levels
        for phase in phases.values():
            assert phase["count"] == bootstrapped_levels
        assert phases["blind_rotate"]["sum"] > 0
        assert phases["keyswitch"]["sum"] > 0

    def test_fewer_bootstraps_than_boolean(self, boolean_adder, mb_adder,
                                            test_keys, rng):
        from repro.tfhe import encrypt_bits

        secret, cloud = test_keys
        bits = _operand_bits(20, 41)
        backend = CpuBackend(cloud)
        _, rep_bool = backend.run(
            boolean_adder, encrypt_bits(secret, bits, rng)
        )
        _, rep_mb = backend.run(
            mb_adder, encrypt_mb_inputs(secret, mb_adder, bits, rng)
        )
        assert rep_mb.gates_bootstrapped < rep_bool.gates_bootstrapped

    def test_missing_io_map_is_typed_error(self, mb_adder, test_keys, rng):
        from repro.isa import assemble, disassemble

        secret, _ = test_keys
        stripped = disassemble(assemble(mb_adder))
        with pytest.raises(ValueError, match="io map"):
            encrypt_mb_inputs(secret, stripped, np.zeros(2 * WIDTH), rng)


class TestServeRegistration:
    def test_register_and_certify(self, mb_adder):
        from repro.analyze import AnalyzerConfig
        from repro.isa import assemble
        from repro.serve import ProgramRegistry, program_id_of
        from repro.tfhe.params import TFHE_MB_128

        binary = assemble(mb_adder)
        registry = ProgramRegistry(
            check=AnalyzerConfig(params=TFHE_MB_128)
        )
        program, cached = registry.register(binary)
        assert not cached
        assert program.program_id == program_id_of(binary)
        assert program.netlist.is_multibit
        assert program.certificate is not None
        assert (
            program.certificate.lut_bootstrapped
            == mb_adder.num_lut_bootstraps
        )
        # Content-hash caching holds for format-1 binaries too.
        again, cached = registry.register(binary)
        assert cached and again is program
