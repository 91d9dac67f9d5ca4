"""One programmable bootstrap per level, against the two-call oracle.

Boolean gates and LUT/B2D/D2B ops share levels in random well-typed
netlists and in ``hamming_distance`` synthesized at p = 8.
``bootstrap_level`` runs each level as one ``programmable_bootstrap``
call; ``level_oracle`` runs the same level as the old boolean call plus
table-op call.  The two planes must be equal after every level,
ciphertext for ciphertext.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings

import repro.tfhe.lut as lut_module
from repro.gatetypes import CODE_USES_TABLE
from repro.runtime import build_schedule
from repro.runtime.executors import bootstrap_level, free_gates

from ..isa import test_roundtrip_property as roundtrip
from .level_oracle import bootstrap_level_reference

REQUESTS = 2


def _assert_levels_match_oracle(cloud_key, netlist, seed):
    """Run both paths level by level; returns the number of mixed levels."""
    dim = cloud_key.params.lwe_dimension
    rng = np.random.default_rng(seed)
    a = np.zeros((netlist.num_nodes, REQUESTS, dim), dtype=np.int32)
    b = np.zeros((netlist.num_nodes, REQUESTS), dtype=np.int32)
    n_in = netlist.num_inputs
    # Random masks: every CMUX step of every sample does work.
    a[:n_in] = rng.integers(-(2**31), 2**31, a[:n_in].shape, dtype=np.int64)
    b[:n_in] = rng.integers(-(2**31), 2**31, b[:n_in].shape, dtype=np.int64)
    want_a, want_b = a.copy(), b.copy()

    rotations = []
    real = lut_module.blind_rotate

    def spy(*args):
        rotations.append(args[1].batch_shape)
        return real(*args)

    mixed = 0
    with mock.patch.object(lut_module, "blind_rotate", spy):
        for level in build_schedule(netlist).levels:
            before = len(rotations)
            if level.width:
                table = CODE_USES_TABLE[netlist.ops[level.bootstrapped]]
                mixed += bool(table.any() and not table.all())
                moved = bootstrap_level(
                    cloud_key, netlist, a, b, level.bootstrapped
                )
                assert moved == bootstrap_level_reference(
                    cloud_key, netlist, want_a, want_b, level.bootstrapped
                )
                assert rotations[before:] == [(level.width * REQUESTS,)]
            else:
                assert len(rotations) == before
            for plane_a, plane_b in ((a, b), (want_a, want_b)):
                free_gates(
                    netlist, plane_a, plane_b, level.free, cloud_key.params
                )
            assert np.array_equal(a, want_a)
            assert np.array_equal(b, want_b)
    return mixed


@given(roundtrip.netlists(moduli=(4, 8), max_gates=16, typed=True))
@settings(max_examples=40, deadline=None)
def test_one_call_per_level_matches_the_two_call_oracle(cloud_key, netlist):
    _assert_levels_match_oracle(cloud_key, netlist, netlist.num_gates)


def test_synthesized_hamming_distance_mixes_levels(cloud_key):
    from repro.bench import vip_workload
    from repro.mblut import synthesize

    netlist = synthesize(
        vip_workload("hamming_distance").build().netlist, modulus=8
    )
    assert _assert_levels_match_oracle(cloud_key, netlist, 8) == 2
