"""CloudKey tests: one bootstrapping-key array, one key-switch table, no cache.

The bootstrapping key is generated directly in the folded half-spectrum
layout the blind-rotation kernel consumes and the key-switching key in
the float64 table ``keyswitch_apply`` multiplies against; the cloud key
holds those and nothing derived from them.
"""

import io

import numpy as np
import pytest

from repro.serialization import (
    MAGIC,
    SerializationError,
    load_cloud_key,
    save_cloud_key,
)
from repro.tfhe import TFHE_TEST, generate_keys
from repro.tfhe.tgsw import TgswFFT, tgsw_encrypt_int
from repro.tfhe.tlwe import tlwe_key_gen


def _v2_payload(cloud, version: int = 2) -> bytes:
    """A cloud-key blob as format version 2 wrote it: the key-switching
    key as int32 ``(kN, t, base, n)`` with an all-zero ``v = 0`` plane."""
    params, ksk = cloud.params, cloud.keyswitching_key
    kn, t = params.extracted_lwe_dimension, params.ks_decomp_length
    a = np.zeros((kn, t, params.ks_base, params.lwe_dimension), dtype=np.int32)
    b = np.zeros(a.shape[:3], dtype=np.int32)
    a[:, :, 1:] = ksk.table.reshape(-1, kn, t, a.shape[3]).transpose(1, 2, 0, 3)
    b[:, :, 1:] = ksk.bodies.reshape(-1, kn, t).transpose(1, 2, 0)
    buffer = io.BytesIO()
    buffer.write(MAGIC + version.to_bytes(2, "big"))
    np.savez_compressed(
        buffer,
        params=np.load(io.BytesIO(save_cloud_key(cloud)[6:]))["params"],
        bootstrapping_key=cloud.bootstrapping_key,
        ks_a=a,
        ks_b=b,
    )
    return buffer.getvalue()


def _assert_same_key(loaded, cloud):
    np.testing.assert_array_equal(
        loaded.bootstrapping_key, cloud.bootstrapping_key
    )
    assert loaded.bootstrap_fft() is loaded.bootstrapping_key
    for name in ("table", "bodies"):
        got = getattr(loaded.keyswitching_key, name)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(
            got, getattr(cloud.keyswitching_key, name)
        )
    assert loaded.fingerprint() == cloud.fingerprint()


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
        ksk = cloud.keyswitching_key
        assert cloud.nbytes() == (
            cloud.bootstrapping_key.nbytes + ksk.table.nbytes + ksk.bodies.nbytes
        )
        _, same = generate_keys(TFHE_TEST, seed=1)
        assert same.fingerprint() == cloud.fingerprint()
        for array in (
            same.bootstrapping_key,
            same.keyswitching_key.table,
            same.keyswitching_key.bodies,
        ):
            array[(-1,) * array.ndim] += 1.0
            del same._fingerprint
            assert same.fingerprint() != cloud.fingerprint()
            array[(-1,) * array.ndim] -= 1.0

    def test_fresh_keys_differ(self):
        _, cloud_a = generate_keys(TFHE_TEST, seed=1)
        _, cloud_b = generate_keys(TFHE_TEST, seed=2)
        assert not np.array_equal(
            cloud_a.bootstrapping_key, cloud_b.bootstrapping_key
        )


class TestSerializedLayout:
    def test_v3_roundtrip_is_the_same_arrays(self, cloud_key):
        blob = save_cloud_key(cloud_key)
        assert int.from_bytes(blob[4:6], "big") == 3
        wire = np.load(io.BytesIO(blob[6:]))
        assert wire["ks_table"].dtype == wire["ks_bodies"].dtype == np.int32
        assert wire["ks_table"].shape == cloud_key.keyswitching_key.table.shape
        _assert_same_key(load_cloud_key(blob), cloud_key)

    def test_v2_roundtrip_is_the_same_array(self, cloud_key):
        """The old key-switch layout loads to the same key and fingerprint."""
        _assert_same_key(load_cloud_key(_v2_payload(cloud_key)), cloud_key)

    def test_v1_payload_is_refused_by_version(self, cloud_key):
        with pytest.raises(SerializationError, match="version 1"):
            load_cloud_key(_v2_payload(cloud_key, version=1))
