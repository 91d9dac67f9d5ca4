"""Serialization roundtrip tests for keys, ciphertexts and worker plans."""

import io

import numpy as np
import pytest

from repro.gatetypes import Gate
from repro.isa import assemble, disassemble
from repro.serialization import (
    FORMAT_VERSION,
    MAGIC,
    SerializationError,
    load_ciphertext,
    load_cloud_key,
    load_secret_key,
    save_ciphertext,
    save_cloud_key,
    save_secret_key,
)
from repro.tfhe import decrypt_bits, encrypt_bits, evaluate_gate


class TestNetlistPlanRoundtrip:
    """The binary is the plan a distributed worker receives."""

    @staticmethod
    def _adder():
        from repro.hdl import arith
        from repro.hdl.builder import CircuitBuilder

        bd = CircuitBuilder()
        a = [bd.input() for _ in range(4)]
        b = [bd.input() for _ in range(4)]
        for bit in arith.ripple_add(bd, a, b, width=4, signed=False):
            bd.output(bit)
        return bd.build()

    def test_roundtrip_preserves_plan(self):
        netlist = self._adder()
        plan = disassemble(assemble(netlist))
        assert plan.num_inputs == netlist.num_inputs
        assert plan.num_nodes == netlist.num_nodes
        for column in ("ops", "in0", "in1"):
            assert np.array_equal(
                getattr(plan, column), getattr(netlist, column)
            )
        assert plan.tables == [] and not plan.is_multibit

    def test_roundtrip_preserves_multibit_columns(self):
        """The plan carries every column the level kernel reads, so a
        worker builds the same test polynomials as the driver."""
        from repro.gatetypes import CODE_USES_TABLE
        from repro.mblut import synthesize
        from repro.runtime.executors import level_test_polynomials

        mb = synthesize(self._adder(), modulus=8)
        plan = disassemble(assemble(mb))
        for column in (
            "ops", "in0", "in1", "kx", "ky", "kconst", "prec",
            "input_prec", "table_id",
        ):
            assert np.array_equal(
                getattr(plan, column), getattr(mb, column)
            ), column
        assert len(plan.tables) == len(mb.tables)
        for got, want in zip(plan.tables, mb.tables):
            assert np.array_equal(got, want)
        lut_gates = np.flatnonzero(CODE_USES_TABLE[mb.ops])
        assert len(lut_gates)
        for got, want in zip(
            level_test_polynomials(plan, lut_gates, 64),
            level_test_polynomials(mb, lut_gates, 64),
        ):
            assert np.array_equal(got, want)


class TestCiphertextRoundtrip:
    def test_roundtrip_preserves_arrays(self, test_keys, rng):
        secret, _ = test_keys
        ct = encrypt_bits(secret, rng.integers(0, 2, 16).astype(bool), rng)
        back = load_ciphertext(save_ciphertext(ct))
        assert np.array_equal(back.a, ct.a)
        assert np.array_equal(back.b, ct.b)

    def test_roundtrip_still_decrypts(self, test_keys, rng):
        secret, _ = test_keys
        bits = rng.integers(0, 2, 32).astype(bool)
        ct = encrypt_bits(secret, bits, rng)
        back = load_ciphertext(save_ciphertext(ct))
        assert np.array_equal(decrypt_bits(secret, back), bits)

    def test_payload_is_bytes(self, test_keys, rng):
        secret, _ = test_keys
        ct = encrypt_bits(secret, [True], rng)
        assert isinstance(save_ciphertext(ct), bytes)


class TestKeyRoundtrips:
    def test_secret_key_roundtrip(self, test_keys):
        secret, _ = test_keys
        back = load_secret_key(save_secret_key(secret))
        assert back.params == secret.params
        assert np.array_equal(back.lwe_key, secret.lwe_key)
        assert np.array_equal(back.tlwe_key, secret.tlwe_key)

    def test_cloud_key_roundtrip_structure(self, test_keys):
        _, cloud = test_keys
        back = load_cloud_key(save_cloud_key(cloud))
        assert back.params == cloud.params
        assert len(back.bootstrapping_key) == len(cloud.bootstrapping_key)
        assert np.array_equal(
            back.keyswitching_key.table, cloud.keyswitching_key.table
        )

    def test_reloaded_cloud_key_evaluates_gates(self, test_keys, rng):
        """The acid test: a round-tripped cloud key still bootstraps."""
        secret, cloud = test_keys
        back = load_cloud_key(save_cloud_key(cloud))
        ca = encrypt_bits(secret, [True], rng)
        cb = encrypt_bits(secret, [True], rng)
        out = evaluate_gate(back, Gate.NAND, ca, cb)
        assert not decrypt_bits(secret, out)[0]

    def test_reloaded_secret_key_decrypts(self, test_keys, rng):
        secret, _ = test_keys
        back = load_secret_key(save_secret_key(secret))
        bits = rng.integers(0, 2, 8).astype(bool)
        ct = encrypt_bits(secret, bits, rng)
        assert np.array_equal(decrypt_bits(back, ct), bits)


def _repacked(blob: bytes, **replaced) -> bytes:
    """``blob`` with some of its fields replaced, envelope kept."""
    fields = dict(np.load(io.BytesIO(blob[6:])))
    fields.update(replaced)
    buffer = io.BytesIO()
    buffer.write(blob[:6])
    np.savez_compressed(buffer, **fields)
    return buffer.getvalue()


class TestMisfitCloudKey:
    """A v3 key-switch table that is not what the payload's own
    ``params`` give is refused at load, never broadcast at first use."""

    def test_table_in_the_v2_layout(self, cloud_key):
        p = cloud_key.params
        old = np.zeros(
            (p.extracted_lwe_dimension, p.ks_decomp_length, p.ks_base,
             p.lwe_dimension),
            dtype=np.int32,
        )
        with pytest.raises(SerializationError, match="ks_table"):
            load_cloud_key(_repacked(save_cloud_key(cloud_key), ks_table=old))

    def test_table_of_the_wrong_dtype(self, cloud_key):
        table = cloud_key.keyswitching_key.table
        with pytest.raises(SerializationError, match="float64"):
            load_cloud_key(_repacked(save_cloud_key(cloud_key), ks_table=table))

    def test_table_that_disagrees_with_its_params(self, cloud_key):
        import dataclasses

        from repro.serialization import _params_to_json

        wider = dataclasses.replace(
            cloud_key.params, lwe_dimension=cloud_key.params.lwe_dimension + 1
        )
        blob = _repacked(
            save_cloud_key(cloud_key),
            params=np.frombuffer(_params_to_json(wider).encode(), dtype=np.uint8),
        )
        with pytest.raises(SerializationError, match="ks_table"):
            load_cloud_key(blob)

    def test_bodies_of_another_length(self, cloud_key):
        bodies = cloud_key.keyswitching_key.bodies[:, :-1].astype(np.int32)
        with pytest.raises(SerializationError, match="ks_bodies"):
            load_cloud_key(_repacked(save_cloud_key(cloud_key), ks_bodies=bodies))

    # The bootstrapping key is checked the same way, so a misfit one
    # cannot register and then fail at a tenant's first blind rotation.
    def test_bootstrapping_key_of_another_parameter_set(self, cloud_key):
        import dataclasses

        from repro.tfhe.bootstrap import key_shape

        other = dataclasses.replace(
            cloud_key.params, bs_decomp_length=3, bs_decomp_log2_base=7
        )
        key = np.zeros(key_shape(other), dtype=np.complex128)
        with pytest.raises(SerializationError, match="bootstrapping_key"):
            load_cloud_key(
                _repacked(save_cloud_key(cloud_key), bootstrapping_key=key)
            )

    def test_bootstrapping_key_with_a_truncated_first_axis(self, cloud_key):
        key = cloud_key.bootstrapping_key[:-1]
        with pytest.raises(SerializationError, match="bootstrapping_key"):
            load_cloud_key(
                _repacked(save_cloud_key(cloud_key), bootstrapping_key=key)
            )

    def test_bootstrapping_key_in_complex64(self, cloud_key):
        key = cloud_key.bootstrapping_key.astype(np.complex64)
        with pytest.raises(SerializationError, match="complex128"):
            load_cloud_key(
                _repacked(save_cloud_key(cloud_key), bootstrapping_key=key)
            )


class TestEnvelope:
    """Magic + format-version header on every payload."""

    def _blob(self, test_keys, rng):
        secret, _ = test_keys
        return save_ciphertext(encrypt_bits(secret, [True, False], rng))

    def test_payload_starts_with_magic_and_version(self, test_keys, rng):
        blob = self._blob(test_keys, rng)
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "big") == FORMAT_VERSION

    def test_truncated_payload_rejected(self, test_keys, rng):
        with pytest.raises(SerializationError, match="truncated"):
            load_ciphertext(self._blob(test_keys, rng)[:3])

    def test_truncated_cloud_key_rejected(self, test_keys):
        blob = save_cloud_key(test_keys[1])
        assert int.from_bytes(blob[4:6], "big") == 3
        for cut in (5, 6, 200, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SerializationError):
                load_cloud_key(blob[:cut])

    def test_retired_version_rejected(self, test_keys, rng):
        blob = bytearray(self._blob(test_keys, rng))
        blob[4:6] = (1).to_bytes(2, "big")
        with pytest.raises(SerializationError, match="version 1"):
            load_ciphertext(bytes(blob))

    def test_foreign_payload_rejected(self):
        with pytest.raises(SerializationError, match="bad magic"):
            load_ciphertext(b"PK\x03\x04 definitely not ours")

    def test_future_version_rejected(self, test_keys, rng):
        blob = bytearray(self._blob(test_keys, rng))
        blob[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(SerializationError, match="version"):
            load_ciphertext(bytes(blob))

    def test_corrupt_body_rejected(self, test_keys, rng):
        blob = self._blob(test_keys, rng)
        corrupt = blob[:6] + b"\x00" * 16
        with pytest.raises(SerializationError):
            load_ciphertext(corrupt)

    def test_envelope_on_every_save_family(self, test_keys, rng):
        secret, cloud = test_keys
        payloads = [
            save_ciphertext(encrypt_bits(secret, [True], rng)),
            save_secret_key(secret),
            save_cloud_key(cloud),
        ]
        for blob in payloads:
            assert blob[:4] == MAGIC

    def test_cross_loader_error_is_clear(self, test_keys):
        # Loading a valid payload with the wrong loader fails with a
        # SerializationError naming the missing field, not a KeyError.
        secret, _ = test_keys
        with pytest.raises(SerializationError):
            load_cloud_key(save_secret_key(secret))
