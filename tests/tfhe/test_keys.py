"""CloudKey tests: one bootstrapping-key array, in one layout, no cache.

The key is generated directly in the folded half-spectrum layout the
blind-rotation kernel consumes; the cloud key holds that one array and
nothing derived from it, and serialization ships it as is.
"""

import io

import numpy as np

from repro.serialization import (
    MAGIC,
    load_cloud_key,
    save_cloud_key,
)
from repro.tfhe import TFHE_TEST, generate_keys
from repro.tfhe.polynomial import get_ring
from repro.tfhe.tgsw import TgswFFT, tgsw_encrypt_int
from repro.tfhe.tlwe import tlwe_key_gen


def _v1_payload(cloud, full_spectra) -> bytes:
    """A cloud-key blob as format version 1 wrote it (full spectrum)."""
    buffer = io.BytesIO()
    buffer.write(MAGIC + (1).to_bytes(2, "big"))
    np.savez_compressed(
        buffer,
        params=np.load(io.BytesIO(save_cloud_key(cloud)[6:]))["params"],
        bootstrapping_key=full_spectra,
        ks_a=cloud.keyswitching_key.a,
        ks_b=cloud.keyswitching_key.b,
    )
    return buffer.getvalue()


class TestOneKeyArray:
    def test_layout(self, cloud_key):
        params = cloud_key.params
        key = cloud_key.bootstrapping_key
        assert isinstance(key, np.ndarray)
        assert key.dtype == np.complex128
        assert key.flags.c_contiguous
        assert key.shape == (
            params.lwe_dimension,
            (params.tlwe_k + 1) * params.bs_decomp_length,
            params.tlwe_k + 1,
            params.tlwe_degree // 2,
        )
        assert len(key) == params.lwe_dimension

    def test_bootstrap_fft_is_the_key_itself(self, cloud_key):
        assert cloud_key.bootstrap_fft() is cloud_key.bootstrapping_key
        assert not hasattr(cloud_key, "_bootstrap_fft")

    def test_slices_are_forward_half_of_the_samples(self):
        """Same seed, same draws: bit i's slice is its sample's TgswFFT."""
        params = TFHE_TEST
        secret, cloud = generate_keys(params, seed=5)
        rng = np.random.default_rng(5)
        rng.integers(0, 2, size=params.lwe_dimension, dtype=np.int64)
        tlwe_key = tlwe_key_gen(params, rng)
        assert np.array_equal(tlwe_key, secret.tlwe_key)
        for i in range(3):
            sample = tgsw_encrypt_int(
                tlwe_key, int(secret.lwe_key[i]), params, rng
            )
            np.testing.assert_array_equal(
                cloud.bootstrapping_key[i],
                TgswFFT.from_sample(sample, params).spectrum,
            )

    def test_nbytes_and_fingerprint_cover_the_array(self):
        _, cloud = generate_keys(TFHE_TEST, seed=1)
        assert (
            cloud.nbytes()
            == cloud.bootstrapping_key.nbytes
            + cloud.keyswitching_key.nbytes()
        )
        _, same = generate_keys(TFHE_TEST, seed=1)
        assert same.fingerprint() == cloud.fingerprint()
        same.bootstrapping_key[-1, -1, -1, -1] += 1.0
        del same._fingerprint
        assert same.fingerprint() != cloud.fingerprint()

    def test_fresh_keys_differ(self):
        _, cloud_a = generate_keys(TFHE_TEST, seed=1)
        _, cloud_b = generate_keys(TFHE_TEST, seed=2)
        assert not np.array_equal(
            cloud_a.bootstrapping_key, cloud_b.bootstrapping_key
        )


class TestSerializedLayout:
    def test_v2_roundtrip_is_the_same_array(self, cloud_key):
        loaded = load_cloud_key(save_cloud_key(cloud_key))
        np.testing.assert_array_equal(
            loaded.bootstrapping_key, cloud_key.bootstrapping_key
        )
        assert loaded.bootstrap_fft() is loaded.bootstrapping_key
        assert loaded.fingerprint() == cloud_key.fingerprint()

    def test_v1_full_spectrum_payload_loads_to_the_same_key(self, cloud_key):
        ring = get_ring(cloud_key.params.tlwe_degree)
        full = ring.forward(ring.backward_half(cloud_key.bootstrapping_key))
        assert full.shape[-1] == cloud_key.params.tlwe_degree
        loaded = load_cloud_key(_v1_payload(cloud_key, full))
        np.testing.assert_array_equal(
            loaded.bootstrapping_key, cloud_key.bootstrapping_key
        )
        assert loaded.fingerprint() == cloud_key.fingerprint()
