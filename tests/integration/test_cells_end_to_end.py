"""One-bootstrap cells under real TFHE, on every execution path.

A MAJ3 or XOR3 cell is precision-0 LINs on bit wires and one SIGN
bootstrap.  Its encrypted truth table must hold for every input triple
under every input negation, at the test parameters and at 128-bit, and
the mapped ``hamming_distance`` must decrypt to the plaintext result
through in-process ``run`` and ``run_many``, the shared-memory workers
and a served call.
"""

import numpy as np
import pytest

from repro import CompiledCircuit, compile_to_binary
from repro.bench import vip_workload
from repro.runtime import CpuBackend, DistributedCpuBackend
from repro.serve import FheServiceClient, ServeConfig, serving
from repro.synth import optimize
from repro.tfhe import (
    TFHE_DEFAULT_128,
    TFHE_TEST,
    decrypt_bits,
    encrypt_bits,
    generate_keys,
)

from ..synth.test_cells import TRIPLES, cell_library, cell_reference


@pytest.mark.parametrize("params", [TFHE_TEST, TFHE_DEFAULT_128],
                         ids=lambda p: p.name)
def test_encrypted_cell_truth_tables(params):
    """All 8 triples x 8 negation patterns x {MAJ3, XOR3}: one
    ``run_many`` call, so the 128 cells bootstrap in one level."""
    secret, cloud = generate_keys(params, seed=3)
    library = cell_library()
    inputs = encrypt_bits(secret, TRIPLES, np.random.default_rng(4))
    out, report = CpuBackend(cloud).run_many(library, inputs)
    assert report.levels == 1
    np.testing.assert_array_equal(
        decrypt_bits(secret, out), cell_reference(TRIPLES)
    )


@pytest.fixture(scope="module")
def hamming():
    """The mapped hamming_distance, as the compile chain makes it."""
    compiled = vip_workload("hamming_distance").build()
    mapped = optimize(compiled.netlist)
    return CompiledCircuit(mapped, compiled.input_specs, compiled.output_specs)


def _cases(compiled, count, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(0, 2, (2, 32)).astype(float) for _ in range(count)]
    bits = np.stack([compiled.encode_inputs(a, b) for a, b in arrays])
    return bits, compiled.netlist.evaluate(bits)


def test_mapped_hamming_on_every_path(hamming, test_keys):
    secret, cloud = test_keys
    netlist = hamming.netlist
    assert netlist.stats().num_bootstrapped_gates == 94
    bits, want = _cases(hamming, 3, seed=5)
    rng = np.random.default_rng(6)
    cts = [encrypt_bits(secret, row, rng) for row in bits]

    backend = CpuBackend(cloud)
    single = [backend.run(netlist, ct)[0] for ct in cts]
    for out, expected in zip(single, want):
        np.testing.assert_array_equal(decrypt_bits(secret, out), expected)

    stacked, report = backend.run_many(netlist, encrypt_bits(secret, bits, rng))
    assert report.levels == 11
    np.testing.assert_array_equal(decrypt_bits(secret, stacked), want)

    with DistributedCpuBackend(cloud, num_workers=1) as distributed:
        for ct, ref in zip(cts, single):
            out, report = distributed.run(netlist, ct)
            # Bootstrapping is deterministic given the key.
            np.testing.assert_array_equal(out.a, ref.a)
            np.testing.assert_array_equal(out.b, ref.b)
    assert report.transport == "shm"

    with serving(ServeConfig(port=0)) as handle:
        with FheServiceClient("127.0.0.1", handle.port, "cells") as client:
            client.register_key(cloud)
            program = client.register_program(compile_to_binary(hamming))
            for ct, expected in zip(cts, want):
                out, _, _ = client.call(program, ct)
                np.testing.assert_array_equal(
                    decrypt_bits(secret, out), expected
                )
