"""The fused blind-rotation kernel against the step-by-step oracle.

Both compute every CMUX product in float64 and round it to the exact
integer convolution (the rounding error is far below 1/2), so the
summation order inside the product does not show: the ciphertexts are
required to be *equal*, not merely close.
"""

import threading

import numpy as np
import pytest

from repro.tfhe import TFHE_TEST, generate_keys
from repro.tfhe.bootstrap import blind_rotate
from repro.tfhe.lwe import LweCiphertext
from repro.tfhe.params import TFHE_MB_128
from repro.tfhe.tgsw import TgswFFT, external_product, tgsw_decompose

from . import blind_rotate_oracle as oracle


def _random_samples(rng, params, batch_shape, per_sample_poly=False):
    def torus(*shape):
        return rng.integers(0, 2**32, shape, dtype=np.uint32).view(np.int32)

    ct = LweCiphertext(
        torus(*batch_shape, params.lwe_dimension), torus(*batch_shape)
    )
    poly_shape = batch_shape if per_sample_poly else ()
    return torus(*poly_shape, params.tlwe_degree), ct


def _flat(ct):
    return LweCiphertext(ct.a.reshape(-1, ct.a.shape[-1]), ct.b.reshape(-1))


def _oracle(test_poly, ct, cloud):
    params = cloud.params
    lead = ct.batch_shape
    polys = np.broadcast_to(test_poly, lead + test_poly.shape[-1:])
    flat = oracle.blind_rotate(
        polys.reshape(-1, polys.shape[-1]),
        _flat(ct),
        cloud.bootstrapping_key,
        params,
    )
    return flat.reshape(lead + flat.shape[-2:])


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "batch_shape", [(), (1,), (13,), (3, 5)], ids=str
    )
    @pytest.mark.parametrize("per_sample_poly", [False, True])
    def test_equal_ciphertexts(self, cloud_key, rng, batch_shape, per_sample_poly):
        test_poly, ct = _random_samples(
            rng, TFHE_TEST, batch_shape, per_sample_poly
        )
        got = blind_rotate(
            test_poly, ct, cloud_key.bootstrapping_key, TFHE_TEST
        )
        assert got.dtype == np.int32
        assert got.flags.c_contiguous
        assert got.shape == batch_shape + (2, TFHE_TEST.tlwe_degree)
        np.testing.assert_array_equal(got, _oracle(test_poly, ct, cloud_key))

    def test_all_zero_mask_skips_every_step(self, cloud_key, rng):
        test_poly, ct = _random_samples(rng, TFHE_TEST, (4,), True)
        ct = LweCiphertext(np.zeros_like(ct.a), ct.b)
        got = blind_rotate(
            test_poly, ct, cloud_key.bootstrapping_key, TFHE_TEST
        )
        assert not got[:, 0].any()  # the mask was never touched
        np.testing.assert_array_equal(got, _oracle(test_poly, ct, cloud_key))

    def test_samples_with_a_zero_amount_in_an_active_step(self, cloud_key, rng):
        """A step runs when any sample rotates; the others must not move."""
        test_poly, ct = _random_samples(rng, TFHE_TEST, (3,))
        a = ct.a.copy()
        a[0] = 0
        ct = LweCiphertext(a, ct.b)
        got = blind_rotate(
            test_poly, ct, cloud_key.bootstrapping_key, TFHE_TEST
        )
        np.testing.assert_array_equal(got, _oracle(test_poly, ct, cloud_key))

    @pytest.mark.slow
    def test_multibit_parameters(self):
        _, cloud = generate_keys(TFHE_MB_128, seed=3)
        test_poly, ct = _random_samples(
            np.random.default_rng(3), TFHE_MB_128, (2,), True
        )
        got = blind_rotate(test_poly, ct, cloud.bootstrapping_key, TFHE_MB_128)
        np.testing.assert_array_equal(got, _oracle(test_poly, ct, cloud))


class TestOneKeyForm:
    def test_rejects_a_list_of_tgsw(self, cloud_key, rng):
        test_poly, ct = _random_samples(rng, TFHE_TEST, (2,))
        as_list = [TgswFFT(s) for s in cloud_key.bootstrapping_key]
        with pytest.raises(TypeError, match="CloudKey.bootstrapping_key"):
            blind_rotate(test_poly, ct, as_list, TFHE_TEST)

    def test_rejects_other_layouts(self, cloud_key, rng):
        test_poly, ct = _random_samples(rng, TFHE_TEST, (2,))
        key = cloud_key.bootstrapping_key
        ring_leading = np.ascontiguousarray(key.transpose(0, 3, 1, 2))
        full_width = np.concatenate([key, key], axis=-1)
        for wrong in (ring_leading, full_width, key.astype(np.complex64)):
            with pytest.raises(TypeError):
                blind_rotate(test_poly, ct, wrong, TFHE_TEST)


class TestNoSharedWorkspace:
    def test_concurrent_calls_match_sequential(self, cloud_key, rng):
        key = cloud_key.bootstrapping_key
        jobs = [
            _random_samples(rng, TFHE_TEST, (batch,), True)
            for batch in (5, 16, 5, 16)
        ]
        want = [blind_rotate(tp, ct, key, TFHE_TEST) for tp, ct in jobs]
        got = [None] * len(jobs)

        def work(slot):
            for _ in range(3):
                tp, ct = jobs[slot]
                got[slot] = blind_rotate(tp, ct, key, TFHE_TEST)

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for have, expect in zip(got, want):
            np.testing.assert_array_equal(have, expect)


class TestSingleStep:
    def test_external_product_is_the_oracle_step(self, cloud_key, rng):
        tlwe = rng.integers(
            0, 2**32, (2, 3, 2, TFHE_TEST.tlwe_degree), dtype=np.uint32
        ).view(np.int32)
        spectrum = cloud_key.bootstrapping_key[7]
        want = oracle.external_product(
            spectrum, tlwe.reshape(6, 2, -1), TFHE_TEST
        ).reshape(tlwe.shape)
        for tgsw in (spectrum, TgswFFT(spectrum)):
            np.testing.assert_array_equal(
                external_product(tgsw, tlwe, TFHE_TEST), want
            )

    def test_decomposition_matches_the_oracle_digits(self, rng):
        tlwe = rng.integers(
            0, 2**32, (4, 2, TFHE_TEST.tlwe_degree), dtype=np.uint32
        ).view(np.int32)
        np.testing.assert_array_equal(
            tgsw_decompose(tlwe, TFHE_TEST),
            oracle.decompose_float(tlwe, TFHE_TEST),
        )
