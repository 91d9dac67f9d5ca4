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

from .tfhe.keys import CloudKey, SecretKey
from .tfhe.keyswitch import KeySwitchingKey
from .tfhe.lwe import LweCiphertext
from .tfhe.params import TFHEParameters
from .tfhe.polynomial import get_ring

#: Envelope tag prepended to every ``save_*`` payload.
MAGIC = b"RPRZ"
#: Current payload format version (bump on incompatible layout change).
FORMAT_VERSION = 2

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
    if version > FORMAT_VERSION:
        raise SerializationError(
            f"payload format version {version} is newer than this "
            f"library supports (max {FORMAT_VERSION})"
        )
    try:
        return np.load(
            io.BytesIO(data[_ENVELOPE.size:]), allow_pickle=False
        )
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"corrupt payload body: {exc}"
        ) from exc


def _field(loaded, name: str) -> np.ndarray:
    """Array access that turns a missing field into a typed error."""
    try:
        return loaded[name]
    except KeyError as exc:
        raise SerializationError(
            f"payload is missing field {name!r}: wrong blob type for "
            f"this loader"
        ) from exc


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
    """Ship the folded bootstrapping key as is (format version 2)."""
    return _pack(
        params=np.frombuffer(
            _params_to_json(cloud.params).encode(), dtype=np.uint8
        ),
        bootstrapping_key=cloud.bootstrapping_key,
        ks_a=cloud.keyswitching_key.a,
        ks_b=cloud.keyswitching_key.b,
    )


def load_cloud_key(data: bytes) -> CloudKey:
    """Inverse of :func:`save_cloud_key`; also reads version-1 payloads.

    Version 1 carried the full (redundant) spectrum
    ``(n, (k+1)*l, k+1, N)``.  It is taken back to the exact int32
    samples and transformed into the folded layout, so the same key
    loads to the same array — and fingerprint — from either version.
    """
    loaded = _unpack(data)
    params = _params_from_json(bytes(_field(loaded, "params")).decode())
    spectra = _field(loaded, "bootstrapping_key")
    if _ENVELOPE.unpack_from(data)[1] < 2:
        ring = get_ring(params.tlwe_degree)
        spectra = np.stack(
            [ring.forward_half(ring.backward(full)) for full in spectra]
        )
    ksk = KeySwitchingKey(
        a=_field(loaded, "ks_a"), b=_field(loaded, "ks_b"), params=params
    )
    return CloudKey(
        params=params,
        bootstrapping_key=spectra,
        keyswitching_key=ksk,
    )
