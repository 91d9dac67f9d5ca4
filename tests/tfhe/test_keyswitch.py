"""The one-table key-switching key against the two-form oracle.

Generation draws the same stream and the apply path multiplies the same
float64 values in the same ``dgemm`` shapes, so keys and ciphertexts
are required to be *equal*, not merely close.
"""

import tracemalloc

import numpy as np
import pytest

from repro.tfhe import TFHE_TEST, generate_keys
from repro.tfhe.keyswitch import (
    _GEN_ROWS,
    KeySwitchingKey,
    keyswitch_apply,
    keyswitch_key_gen,
    table_shape,
)
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.params import TFHEParameters

from . import keyswitch_oracle as oracle

#: kN = 48 is not a multiple of the generation chunk; base 8, odd t and n.
ODD = TFHEParameters(
    name="odd-shape",
    lwe_dimension=21,
    lwe_noise_std=2.0 ** -15,
    tlwe_degree=16,
    tlwe_k=3,
    tlwe_noise_std=2.0 ** -24,
    bs_decomp_length=2,
    bs_decomp_log2_base=8,
    ks_decomp_length=3,
    ks_decomp_log2_base=3,
    security_bits=0,
)


def _keys(params, seed):
    rng = np.random.default_rng(seed)
    extracted = rng.integers(0, 2, params.extracted_lwe_dimension, dtype=np.int32)
    small = rng.integers(0, 2, params.lwe_dimension, dtype=np.int32)
    return extracted, small, rng


def _generate(params, seed):
    """The key, the oracle's ``(a, b)`` and both generators, one seed."""
    extracted, small, rng = _keys(params, seed)
    ksk = keyswitch_key_gen(extracted, small, params, rng)
    extracted, small, ref = _keys(params, seed)
    return ksk, oracle.key_gen(extracted, small, params, ref), (rng, ref)


def _samples(params, batch_shape):
    rng = np.random.default_rng(99)
    shape = batch_shape + (params.extracted_lwe_dimension,)
    return LweCiphertext(
        rng.integers(0, 2**32, shape, dtype=np.uint32).view(np.int32),
        rng.integers(0, 2**32, batch_shape, dtype=np.uint32).view(np.int32),
    )


@pytest.mark.parametrize("params", [TFHE_TEST, ODD], ids=lambda p: p.name)
class TestAgainstOracle:
    def test_same_seed_same_key(self, params):
        # ODD is the case whose last generation chunk is a partial one.
        assert (params is ODD) == bool(params.extracted_lwe_dimension % _GEN_ROWS)
        ksk, (a, b), (rng, ref) = _generate(params, 7)
        assert ksk.table.shape == table_shape(params)
        assert ksk.table.dtype == ksk.bodies.dtype == np.float64
        assert ksk.table.flags.c_contiguous and ksk.bodies.flags.c_contiguous
        for v, (a_slice, b_slice) in oracle.float_tables(a, b, params).items():
            np.testing.assert_array_equal(ksk.table[v - 1], a_slice)
            np.testing.assert_array_equal(ksk.bodies[v - 1], b_slice)
        # Both generators stand at the same point of the stream.
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("batch_shape", [(), (1,), (3,), (17,)], ids=str)
    def test_equal_ciphertexts(self, params, batch_shape):
        ksk, (a, b), _ = _generate(params, 11)
        ct = _samples(params, batch_shape)
        got = keyswitch_apply(ksk, ct)
        want = oracle.apply(a, b, ct, params)
        assert got.batch_shape == batch_shape
        np.testing.assert_array_equal(got.a, want.a)
        np.testing.assert_array_equal(got.b, want.b)


class TestOneForm:
    def test_generation_peak_is_the_table(self):
        """No array the size of the table exists beside it while it fills."""
        extracted, small, rng = _keys(TFHE_TEST, 3)
        tracemalloc.start()
        try:
            ksk = keyswitch_key_gen(extracted, small, TFHE_TEST, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ksk.nbytes()

    def test_first_apply_builds_nothing(self):
        _, cloud = generate_keys(TFHE_TEST, seed=4)
        ksk = cloud.keyswitching_key
        size, before = cloud.nbytes(), dict(vars(ksk))
        assert sorted(before) == ["bodies", "params", "table"]
        keyswitch_apply(ksk, _samples(TFHE_TEST, (2,)))
        assert cloud.nbytes() == size
        assert vars(ksk).keys() == before.keys()
        assert all(vars(ksk)[name] is before[name] for name in before)


class TestWrongParameterSet:
    """A mismatch is a ``TypeError`` before any product is taken."""

    def test_samples_of_another_set(self, cloud_key):
        with pytest.raises(TypeError, match="samples of dimension"):
            keyswitch_apply(cloud_key.keyswitching_key, _samples(ODD, (2,)))

    def test_key_of_another_set(self, cloud_key):
        ksk = cloud_key.keyswitching_key
        other = KeySwitchingKey(table=ksk.table, bodies=ksk.bodies, params=ODD)
        with pytest.raises(TypeError, match="odd-shape"):
            keyswitch_apply(other, _samples(ODD, (2,)))
