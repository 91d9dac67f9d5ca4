"""Programmable-bootstrapping LUT tests."""

import numpy as np
import pytest

from repro.tfhe import (
    IntegerEncoding,
    apply_lut,
    decrypt_int,
    encrypt_int,
    multiply_table,
    relu_table,
    square_table,
)
from repro.tfhe.lut import (
    LutTableError,
    lut_test_polynomial,
    rotation_slices,
    validate_table,
)
from repro.tfhe.torus import torus_distance


class TestEncoding:
    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            IntegerEncoding(1)

    def test_encode_decode_roundtrip(self):
        enc = IntegerEncoding(8)
        for m in range(8):
            assert enc.decode(enc.encode(m)) == m

    def test_encodings_stay_in_half_torus(self):
        enc = IntegerEncoding(16)
        for m in range(16):
            value = int(enc.encode(m))
            assert value > 0  # positive half only

    def test_decode_tolerates_noise(self):
        enc = IntegerEncoding(4)
        center = int(enc.encode(2))
        wiggle = int(enc.noise_margin * (1 << 32) * 0.8)
        assert enc.decode(np.int32(center + wiggle)) == 2
        assert enc.decode(np.int32(center - wiggle)) == 2

    def test_vectorized_encoding(self):
        enc = IntegerEncoding(8)
        ms = np.arange(8)
        assert np.array_equal(enc.decode(enc.encode(ms)), ms)

    def test_margin(self):
        assert IntegerEncoding(8).noise_margin == pytest.approx(1 / 32)


class TestEncryptedIntegers:
    def test_roundtrip(self, test_keys, rng):
        secret, _ = test_keys
        enc = IntegerEncoding(8)
        values = np.arange(8)
        ct = encrypt_int(secret, values, enc, rng)
        assert np.array_equal(decrypt_int(secret, ct, enc), values)

    def test_homomorphic_addition(self, test_keys, rng):
        secret, _ = test_keys
        enc = IntegerEncoding(8)
        a = encrypt_int(secret, 3, enc, rng)
        b = encrypt_int(secret, 2, enc, rng)
        total = a + b
        # Two center offsets accumulate: phase = (2*5 + 2) / 32; still
        # decodes to 5 (floor of slice index).
        assert decrypt_int(secret, total, enc) == 5


class TestApplyLut:
    @pytest.fixture(scope="class")
    def enc(self):
        return IntegerEncoding(8)

    def test_identity_table(self, test_keys, rng, enc):
        secret, cloud = test_keys
        for m in (0, 3, 7):
            ct = encrypt_int(secret, m, enc, rng)
            out = apply_lut(cloud, ct, list(range(8)), enc)
            assert decrypt_int(secret, out, enc) == m

    def test_square_table(self, test_keys, rng, enc):
        secret, cloud = test_keys
        table = square_table(8)
        for m in range(8):
            ct = encrypt_int(secret, m, enc, rng)
            out = apply_lut(cloud, ct, table, enc)
            assert decrypt_int(secret, out, enc) == (m * m) % 8

    def test_relu_table(self, test_keys, rng, enc):
        secret, cloud = test_keys
        table = relu_table(8)
        for m in range(8):
            ct = encrypt_int(secret, m, enc, rng)
            out = apply_lut(cloud, ct, table, enc)
            want = m if m < 4 else 0
            assert decrypt_int(secret, out, enc) == want

    def test_multiply_table(self, test_keys, rng, enc):
        secret, cloud = test_keys
        table = multiply_table(8, 3)
        ct = encrypt_int(secret, 5, enc, rng)
        out = apply_lut(cloud, ct, table, enc)
        assert decrypt_int(secret, out, enc) == 15 % 8

    def test_batched_lut(self, test_keys, rng, enc):
        secret, cloud = test_keys
        values = np.array([0, 2, 5, 7])
        ct = encrypt_int(secret, values, enc, rng)
        out = apply_lut(cloud, ct, square_table(8), enc)
        assert np.array_equal(
            decrypt_int(secret, out, enc), (values * values) % 8
        )

    def test_cross_modulus_lut(self, test_keys, rng):
        """LUT into a different output encoding (Z_8 -> Z_4)."""
        secret, cloud = test_keys
        enc_in = IntegerEncoding(8)
        enc_out = IntegerEncoding(4)
        table = [m % 4 for m in range(8)]
        ct = encrypt_int(secret, 6, enc_in, rng)
        out = apply_lut(cloud, ct, table, enc_in, enc_out)
        assert decrypt_int(secret, out, enc_out) == 2

    def test_lut_refreshes_noise(self, test_keys, rng, enc):
        """Chained LUTs stay correct: noise does not accumulate."""
        secret, cloud = test_keys
        ct = encrypt_int(secret, 3, enc, rng)
        identity = list(range(8))
        for _ in range(6):
            ct = apply_lut(cloud, ct, identity, enc)
        assert decrypt_int(secret, ct, enc) == 3

    def test_table_length_checked(self, test_keys, rng, enc):
        secret, cloud = test_keys
        ct = encrypt_int(secret, 1, enc, rng)
        with pytest.raises(LutTableError):
            apply_lut(cloud, ct, [0, 1, 2], enc)

    def test_oversized_table_checked(self, test_keys, rng, enc):
        secret, cloud = test_keys
        ct = encrypt_int(secret, 1, enc, rng)
        with pytest.raises(LutTableError):
            apply_lut(cloud, ct, list(range(9)), enc)

    def test_entry_outside_output_modulus(self, test_keys, rng, enc):
        secret, cloud = test_keys
        ct = encrypt_int(secret, 1, enc, rng)
        with pytest.raises(LutTableError):
            apply_lut(cloud, ct, [0] * 7 + [8], enc)
        with pytest.raises(LutTableError):
            apply_lut(cloud, ct, [0] * 7 + [-1], enc)

    def test_cross_modulus_entry_bound(self, test_keys, rng):
        """The *output* encoding bounds the entries, not the input."""
        secret, cloud = test_keys
        enc_in, enc_out = IntegerEncoding(8), IntegerEncoding(4)
        ct = encrypt_int(secret, 1, enc_in, rng)
        with pytest.raises(LutTableError):
            apply_lut(cloud, ct, [0] * 7 + [5], enc_in, enc_out)

    def test_modulus_past_ring_degree_is_refused(self, test_keys, rng):
        """p > N would leave some slices without a rotation position:
        with p = 2N every odd entry would be silently ignored."""
        secret, cloud = test_keys
        big_n = cloud.params.tlwe_degree
        enc = IntegerEncoding(2 * big_n)
        ct = encrypt_int(secret, 1, IntegerEncoding(8), rng)
        with pytest.raises(LutTableError, match=f"p={2 * big_n}.*N={big_n}"):
            apply_lut(cloud, ct, list(range(2 * big_n)), enc)
        # p = N is the largest modulus that reaches every entry.
        poly = lut_test_polynomial(
            list(range(8)), IntegerEncoding(8), IntegerEncoding(8), 8
        )
        assert np.array_equal(
            IntegerEncoding(8).decode(poly), np.arange(8)
        )
        assert np.array_equal(
            np.unique(rotation_slices(big_n, big_n)), np.arange(big_n)
        )

    def test_lut_table_error_is_value_error(self):
        assert issubclass(LutTableError, ValueError)


class TestValidateTable:
    def test_returns_int64(self):
        enc = IntegerEncoding(4)
        out = validate_table([0, 1, 2, 3], enc, enc)
        assert out.dtype == np.int64
        assert np.array_equal(out, [0, 1, 2, 3])

    def test_message_error_names_offender(self):
        enc = IntegerEncoding(4)
        with pytest.raises(LutTableError, match="entry 9"):
            validate_table([0, 9, 2, 3], enc, enc)
        with pytest.raises(LutTableError, match="4 entries"):
            validate_table([0, 1], enc, enc)


class TestNegativeMessages:
    """Wraparound edge cases: encode reduces mod p, decode never escapes."""

    def test_negative_message_encodes_mod_p(self):
        enc = IntegerEncoding(8)
        for m in (-1, -8, -15):
            assert enc.decode(enc.encode(m)) == m % 8

    def test_negative_messages_roundtrip_encrypted(self, test_keys, rng):
        secret, _ = test_keys
        enc = IntegerEncoding(8)
        values = np.array([-1, -7, -8])
        ct = encrypt_int(secret, values, enc, rng)
        assert np.array_equal(decrypt_int(secret, ct, enc), values % 8)

    def test_lut_on_wrapped_message(self, test_keys, rng):
        secret, cloud = test_keys
        enc = IntegerEncoding(8)
        ct = encrypt_int(secret, -3, enc, rng)  # encodes as 5
        out = apply_lut(cloud, ct, square_table(8), enc)
        assert decrypt_int(secret, out, enc) == (5 * 5) % 8

    def test_decode_never_escapes_modulus(self):
        """Any torus phase — both halves — decodes into [0, p)."""
        enc = IntegerEncoding(8)
        phases = np.linspace(-(2**31), 2**31 - 1, 4097).astype(np.int32)
        decoded = enc.decode(phases)
        assert decoded.min() >= 0 and decoded.max() < 8

    def test_lut_output_is_well_centered(self, test_keys, rng):
        """Output phases land near slice centers (fresh-noise levels)."""
        secret, cloud = test_keys
        from repro.tfhe.lwe import lwe_phase

        enc = IntegerEncoding(8)
        ct = encrypt_int(secret, 5, enc, rng)
        out = apply_lut(cloud, ct, list(range(8)), enc)
        phase = lwe_phase(secret.lwe_key, out)
        assert (
            torus_distance(phase, enc.encode(5))[()] < enc.noise_margin / 2
        )
