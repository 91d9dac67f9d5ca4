"""Every backend x batch-depth cell agrees on random netlists.

In-process at ``R = 1`` and ``R = 3`` and distributed (two workers) at
``R = 1`` and ``R = 3`` all run the one level loop; each must decrypt
to ``netlist.evaluate``, and the distributed output must equal the
in-process output ciphertext for ciphertext, and row ``r`` of an
``R = 3`` run must equal the ``R = 1`` run of row ``r``.

The distributed pool splits every level between its helper processes
and the coordinator, so the shard boundaries move with ``num_workers``;
``hamming_distance``, boolean and synthesized at ``p = 8``, must come
out ciphertext-identical to in-process under every split, including
its width-1 levels, which the coordinator runs alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gatetypes import Gate, TWO_INPUT_GATES
from repro.hdl.builder import CircuitBuilder
from repro.runtime import CpuBackend, DistributedCpuBackend, build_schedule
from repro.tfhe import decrypt_bits, encrypt_bits
from repro.tfhe.lwe import LweCiphertext


def _random_netlist(seed, num_inputs=3, num_gates=12):
    rng = np.random.default_rng(seed)
    bd = CircuitBuilder(
        hash_cons=False, fold_constants=False, absorb_inverters=False
    )
    nodes = list(bd.inputs(num_inputs))
    pool = list(TWO_INPUT_GATES) + [Gate.NOT, Gate.BUF]
    for _ in range(num_gates):
        gate = pool[rng.integers(len(pool))]
        nodes.append(
            bd.gate(
                gate,
                nodes[rng.integers(len(nodes))],
                nodes[rng.integers(len(nodes))],
            )
        )
    bd.output(nodes[-1])
    bd.output(nodes[rng.integers(len(nodes))])
    return bd.build()


@pytest.fixture(scope="module")
def distributed(cloud_key):
    with DistributedCpuBackend(cloud_key, num_workers=2) as backend:
        yield backend


class TestBackendsAgreeOnRandomNetlists:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=6, deadline=None)
    def test_every_cell_matches_the_plaintext_reference(
        self, test_keys, distributed, seed
    ):
        secret, cloud = test_keys
        nl = _random_netlist(seed)
        rng = np.random.default_rng(seed + 1)
        bits = rng.integers(0, 2, (3, nl.num_inputs)).astype(bool)
        want = np.stack([nl.evaluate(row) for row in bits])
        stacked = LweCiphertext.stack(
            [encrypt_bits(secret, row, rng) for row in bits]
        )

        local = CpuBackend(cloud)
        local_one, _ = local.run(nl, stacked[0])
        local_many, _ = local.run_many(nl, stacked)
        dist_one, _ = distributed.run(nl, stacked[0])
        dist_many, _ = distributed.run_many(nl, stacked)

        for one in (local_one, dist_one):
            assert np.array_equal(decrypt_bits(secret, one), want[0])
        for many in (local_many, dist_many):
            assert np.array_equal(decrypt_bits(secret, many), want)
        # Not just the same plaintext, the same ciphertext: across
        # backends, and across R — a sample's bootstrap never depends
        # on what else is in its batch.
        for dist, ref in ((dist_one, local_one), (dist_many, local_many)):
            assert np.array_equal(dist.a, ref.a)
            assert np.array_equal(dist.b, ref.b)
        for row in range(len(stacked)):
            alone = local_one if row == 0 else local.run(nl, stacked[row])[0]
            assert np.array_equal(local_many[row].a, alone.a)
            assert np.array_equal(local_many[row].b, alone.b)


@pytest.fixture(scope="module")
def hamming():
    """``(source, {kind: netlist})`` for the two forms of the program."""
    from repro.bench import vip_workloads
    from repro.mblut import synthesize

    source = vip_workloads()["hamming_distance"].netlist
    return source, {
        "boolean": source,
        "mblut": synthesize(source, modulus=8),
    }


@pytest.fixture(scope="module")
def pools(cloud_key, distributed):
    with DistributedCpuBackend(cloud_key, num_workers=1) as one:
        yield {1: one, 2: distributed}


@pytest.fixture(scope="module")
def hamming_runs(test_keys, hamming):
    """``(kind, R) -> (inputs, in-process output)``, computed once."""
    from repro.mblut import encrypt_mb_inputs

    secret, cloud = test_keys
    source, netlists = hamming
    local = CpuBackend(cloud)
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2, (3, source.num_inputs)).astype(bool)
    runs = {}
    for kind, netlist in netlists.items():
        if kind == "boolean":
            cts = [encrypt_bits(secret, row, rng) for row in bits]
        else:
            cts = [encrypt_mb_inputs(secret, netlist, row, rng) for row in bits]
        stacked = LweCiphertext.stack(cts)
        runs[kind, 1] = (stacked[0], local.run(netlist, stacked[0])[0])
        runs[kind, 3] = (stacked, local.run_many(netlist, stacked)[0])
    return runs


class TestShardSplitsAreCiphertextIdentical:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("instances", [1, 3])
    @pytest.mark.parametrize("kind", ["boolean", "mblut"])
    def test_hamming_distance_matches_in_process(
        self, hamming, hamming_runs, pools, workers, instances, kind
    ):
        netlist = hamming[1][kind]
        widths = build_schedule(netlist).level_widths()
        assert 1 in widths
        inputs, want = hamming_runs[kind, instances]
        backend = pools[workers]
        if instances == 1:
            got, report = backend.run(netlist, inputs)
        else:
            got, report = backend.run_many(netlist, inputs)
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.b, want.b)
        # One task per shard, the coordinator's included: a level
        # splits into at most workers + 1 shards, a width-1 level
        # into the coordinator's alone.
        assert report.tasks_submitted == sum(
            min(workers + 1, width) for width in widths
        )
