"""Key generation for gate bootstrapping.

``SecretKey`` stays with the client; ``CloudKey`` (bootstrapping key +
key-switching key) is shipped to the evaluator.  This mirrors the TFHE
library's secret/cloud keyset split that PyTFHE wraps via pybind11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bootstrap import key_shape
from .keyswitch import KeySwitchingKey, keyswitch_key_gen
from .params import TFHEParameters, TFHE_DEFAULT_128
from .polynomial import get_ring
from .tgsw import tgsw_encrypt_int
from .tlwe import tlwe_extract_key, tlwe_key_gen


@dataclass
class SecretKey:
    """Client-side keys: the small LWE key and the TLWE key."""

    params: TFHEParameters
    lwe_key: np.ndarray
    tlwe_key: np.ndarray

    @property
    def extracted_key(self) -> np.ndarray:
        return tlwe_extract_key(self.tlwe_key)


@dataclass
class CloudKey:
    """Evaluation keys: the bootstrapping key (FFT form) + the KS key.

    ``bootstrapping_key`` is one array, the only copy of the key this
    object holds: the folded half spectra
    (:meth:`repro.tfhe.polynomial.NegacyclicRing.forward_half`) of the
    ``n`` per-LWE-bit TGSW samples with the ring axis last,
    ``(n, (k+1)*l, k+1, N/2)`` complex128.  It is what
    :func:`generate_keys` produces, what :mod:`repro.serialization`
    ships and what :func:`repro.tfhe.bootstrap.blind_rotate` consumes,
    unchanged.  ``bootstrapping_key[i]`` is bit ``i``'s
    :attr:`repro.tfhe.tgsw.TgswFFT.spectrum`.  ``keyswitching_key``
    likewise holds one table, the float64 planes
    :func:`repro.tfhe.keyswitch.keyswitch_apply` multiplies against.
    """

    params: TFHEParameters
    bootstrapping_key: np.ndarray
    keyswitching_key: KeySwitchingKey

    def nbytes(self) -> int:
        return self.bootstrapping_key.nbytes + self.keyswitching_key.nbytes()

    def bootstrap_fft(self) -> np.ndarray:
        """:attr:`bootstrapping_key` (it is already the FFT form)."""
        return self.bootstrapping_key

    def fingerprint(self) -> str:
        """Content hash identifying this key across processes.

        Worker pools are keyed by fingerprint so a pool warmed with one
        cloud key is never reused with another.  The hash covers the
        parameter set and all key material; it is computed once and
        cached on the instance.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            import dataclasses
            import hashlib
            import json

            digest = hashlib.sha256()
            digest.update(
                json.dumps(
                    dataclasses.asdict(self.params), sort_keys=True
                ).encode()
            )
            ksk = self.keyswitching_key
            for array in (self.bootstrapping_key, ksk.table, ksk.bodies):
                digest.update(np.ascontiguousarray(array).data)
            cached = digest.hexdigest()[:16]
            self._fingerprint = cached
        return cached


def generate_keys(
    params: TFHEParameters = TFHE_DEFAULT_128,
    seed: Optional[int] = None,
) -> "tuple[SecretKey, CloudKey]":
    """Generate a fresh (secret, cloud) key pair.

    A fixed ``seed`` yields a deterministic key pair, which the tests
    rely on for reproducibility.
    """
    rng = np.random.default_rng(seed)
    lwe_key = rng.integers(
        0, 2, size=params.lwe_dimension, dtype=np.int64
    ).astype(np.int32)
    tlwe_key = tlwe_key_gen(params, rng)

    # One TGSW sample per bit, drawn in bit order and packed straight
    # into the key array; the transform then runs once, in place.
    half = params.tlwe_degree // 2
    bootstrapping_key = np.empty(key_shape(params), dtype=np.complex128)
    for packed, bit in zip(bootstrapping_key, lwe_key):
        sample = tgsw_encrypt_int(tlwe_key, int(bit), params, rng)
        packed.real = sample[..., :half]
        packed.imag = sample[..., half:]
    get_ring(params.tlwe_degree).fold(bootstrapping_key)
    ksk = keyswitch_key_gen(tlwe_extract_key(tlwe_key), lwe_key, params, rng)
    secret = SecretKey(params=params, lwe_key=lwe_key, tlwe_key=tlwe_key)
    cloud = CloudKey(
        params=params,
        bootstrapping_key=bootstrapping_key,
        keyswitching_key=ksk,
    )
    return secret, cloud
