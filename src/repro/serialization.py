"""Serialization of keys, ciphertexts, and parameters.

A deployment needs to ship the cloud key to the server once and move
ciphertexts back and forth (paper Fig. 1); netlists already have their
own wire format (:mod:`repro.isa`).  Everything here round-trips
through ``numpy.savez_compressed`` payloads, with the parameter set
embedded so a receiver can validate compatibility.

Every payload starts with a 6-byte envelope — the :data:`MAGIC` tag
plus a big-endian format version — so a truncated, foreign, or
future-version blob fails fast with a :class:`SerializationError`
instead of a cryptic failure deep inside ``np.load``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import struct
import zipfile

import numpy as np

from .tfhe.bootstrap import key_shape
from .tfhe.keys import CloudKey, SecretKey
from .tfhe.keyswitch import KeySwitchingKey, table_shape
from .tfhe.lwe import LweCiphertext
from .tfhe.params import TFHEParameters

#: Envelope tag prepended to every ``save_*`` payload.
MAGIC = b"RPRZ"
#: Current payload format version (bump on incompatible layout change).
FORMAT_VERSION = 3
#: Oldest version still read: written is 3, readable is 2, nothing else.
OLDEST_READABLE_VERSION = 2

_ENVELOPE = struct.Struct(">4sH")


class SerializationError(ValueError):
    """A payload is not a (compatible) repro serialization blob."""


def _params_to_json(params: TFHEParameters) -> str:
    return json.dumps(dataclasses.asdict(params))


def _params_from_json(text: str) -> TFHEParameters:
    return TFHEParameters(**json.loads(text))


def _pack(**arrays) -> bytes:
    buffer = io.BytesIO()
    buffer.write(_ENVELOPE.pack(MAGIC, FORMAT_VERSION))
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def _unpack(data: bytes):
    if len(data) < _ENVELOPE.size:
        raise SerializationError(
            f"truncated payload ({len(data)} bytes, envelope needs "
            f"{_ENVELOPE.size}): not a repro serialization blob"
        )
    magic, version = _ENVELOPE.unpack_from(data)
    if magic != MAGIC:
        raise SerializationError(
            f"bad magic {magic!r} (expected {MAGIC!r}): payload is not "
            f"a repro serialization blob"
        )
    if not OLDEST_READABLE_VERSION <= version <= FORMAT_VERSION:
        raise SerializationError(
            f"payload format version {version} is not one this library "
            f"reads ({OLDEST_READABLE_VERSION} to {FORMAT_VERSION})"
        )
    try:
        return np.load(
            io.BytesIO(data[_ENVELOPE.size:]), allow_pickle=False
        )
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"corrupt payload body: {exc}"
        ) from exc


def _field(loaded, name: str, dtype=None, shape=None) -> np.ndarray:
    """Array access that turns a missing field, or one whose dtype or
    shape is not what the payload's own ``params`` give, into a typed
    error."""
    try:
        array = loaded[name]
    except KeyError as exc:
        raise SerializationError(
            f"payload is missing field {name!r}: wrong blob type for "
            f"this loader"
        ) from exc
    if dtype is not None and (array.dtype != dtype or array.shape != shape):
        raise SerializationError(
            f"field {name!r} is {array.dtype} {array.shape}; this "
            f"payload's parameter set needs {np.dtype(dtype)} {shape}"
        )
    return array


# ----------------------------------------------------------------------
# Ciphertexts
# ----------------------------------------------------------------------
def save_ciphertext(ct: LweCiphertext) -> bytes:
    return _pack(a=ct.a, b=ct.b)


def load_ciphertext(data: bytes) -> LweCiphertext:
    loaded = _unpack(data)
    return LweCiphertext(_field(loaded, "a"), _field(loaded, "b"))


# ----------------------------------------------------------------------
# Secret keys (client side only!)
# ----------------------------------------------------------------------
def save_secret_key(secret: SecretKey) -> bytes:
    return _pack(
        params=np.frombuffer(
            _params_to_json(secret.params).encode(), dtype=np.uint8
        ),
        lwe_key=secret.lwe_key,
        tlwe_key=secret.tlwe_key,
    )


def load_secret_key(data: bytes) -> SecretKey:
    loaded = _unpack(data)
    params = _params_from_json(bytes(_field(loaded, "params")).decode())
    return SecretKey(
        params=params,
        lwe_key=_field(loaded, "lwe_key"),
        tlwe_key=_field(loaded, "tlwe_key"),
    )


# ----------------------------------------------------------------------
# Cloud keys
# ----------------------------------------------------------------------
def save_cloud_key(cloud: CloudKey) -> bytes:
    """Ship the folded bootstrapping key as is and the key-switch table
    as the int32 values its floats hold (format version 3)."""
    ksk = cloud.keyswitching_key
    return _pack(
        params=np.frombuffer(
            _params_to_json(cloud.params).encode(), dtype=np.uint8
        ),
        bootstrapping_key=cloud.bootstrapping_key,
        ks_table=ksk.table.astype(np.int32),
        ks_bodies=ksk.bodies.astype(np.int32),
    )


def load_cloud_key(data: bytes) -> CloudKey:
    """Inverse of :func:`save_cloud_key`; also reads version-2 payloads.

    Version 2 carried the key-switching key as int32 ``(kN, t, base, n)``
    with an all-zero ``v = 0`` plane.  Its other planes are re-ordered
    into the table, so the same key loads to the same arrays — and
    fingerprint — from either version.
    """
    loaded = _unpack(data)
    params = _params_from_json(bytes(_field(loaded, "params")).decode())
    shape = table_shape(params)
    if _ENVELOPE.unpack_from(data)[1] < 3:
        old = (params.extracted_lwe_dimension, params.ks_decomp_length,
               params.ks_base)
        table = _field(loaded, "ks_a", np.int32, old + shape[2:])
        table = table[:, :, 1:].transpose(2, 0, 1, 3)
        bodies = _field(loaded, "ks_b", np.int32, old)
        bodies = bodies[:, :, 1:].transpose(2, 0, 1)
    else:
        table = _field(loaded, "ks_table", np.int32, shape)
        bodies = _field(loaded, "ks_bodies", np.int32, shape[:2])
    ksk = KeySwitchingKey(  # the one cast from the wire form, either version
        table=np.ascontiguousarray(table, np.float64).reshape(shape),
        bodies=np.ascontiguousarray(bodies, np.float64).reshape(shape[:2]),
        params=params,
    )
    return CloudKey(
        params=params,
        bootstrapping_key=_field(
            loaded, "bootstrapping_key", np.complex128, key_shape(params)
        ),
        keyswitching_key=ksk,
    )
