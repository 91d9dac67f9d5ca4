"""Programmable bootstrapping: arbitrary lookup tables on small integers.

The paper's background (Section II-B) highlights TFHE's *programmable*
bootstrapping: noise reduction that simultaneously applies an arbitrary
lookup-table function.  This module exposes that capability beyond the
boolean gates: integers modulo ``p`` are encoded into the positive half
of the torus, and one bootstrap evaluates any unary function
``Z_p -> Z_p`` (or into a different output modulus).

Encoding: message ``m`` lives at the center of its slice,
``(2m + 1) / (4p)`` — all messages stay in ``[0, 1/2)`` so the
negacyclic sign flip of the test polynomial is never hit.  Homomorphic
addition of encodings is exact while the (integer) sum stays below
``p``; a LUT application re-normalizes and refreshes noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bootstrap import blind_rotate
from .keys import CloudKey, SecretKey
from .keyswitch import keyswitch_apply
from .lwe import LweCiphertext, lwe_encrypt, lwe_phase
from .tlwe import tlwe_extract_lwe
from .torus import wrap_int32

_TWO32 = 1 << 32


class LutTableError(ValueError):
    """A lookup table does not fit the encoding it is applied under.

    Raised instead of silently wrapping indices/outputs: a table whose
    length disagrees with the input modulus would alias slices, and
    entries outside the output modulus would wrap to unrelated digits.
    """


def validate_table(
    table,
    encoding_in: "IntegerEncoding",
    encoding_out: "IntegerEncoding",
) -> np.ndarray:
    """Check ``table`` against the in/out encodings; return it as int64.

    The table must have exactly ``encoding_in.modulus`` entries (one per
    input slice) and every entry must be a valid message under
    ``encoding_out`` — i.e. in ``[0, encoding_out.modulus)``.
    """
    entries = np.asarray(table, dtype=np.int64).reshape(-1)
    p = encoding_in.modulus
    if len(entries) != p:
        raise LutTableError(
            f"table must have {p} entries (one per slice of the input "
            f"modulus), got {len(entries)}"
        )
    q = encoding_out.modulus
    if entries.size and (entries.min() < 0 or entries.max() >= q):
        bad = int(entries[(entries < 0) | (entries >= q)][0])
        raise LutTableError(
            f"table entry {bad} is outside the output modulus "
            f"[0, {q}); re-reduce the table or widen the encoding"
        )
    return entries


@dataclass(frozen=True)
class IntegerEncoding:
    """Messages in ``Z_p`` packed into the half-torus ``[0, 1/2)``."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")

    def encode(self, message) -> np.ndarray:
        m = np.asarray(message, dtype=np.int64) % self.modulus
        value = ((2 * m + 1) * _TWO32) // (4 * self.modulus)
        return wrap_int32(value)

    def decode(self, torus_value) -> np.ndarray:
        """Nearest slice of the half-torus (robust to ±1/(4p) noise)."""
        as_unsigned = np.asarray(torus_value).view(np.uint32).astype(np.int64)
        slice_index = (as_unsigned * 2 * self.modulus) // _TWO32
        return (slice_index % (2 * self.modulus)) % self.modulus

    @property
    def noise_margin(self) -> float:
        """Torus distance from a slice center to its boundary."""
        return 1.0 / (4 * self.modulus)


def encrypt_int(
    secret: SecretKey,
    message,
    encoding: IntegerEncoding,
    rng: Optional[np.random.Generator] = None,
) -> LweCiphertext:
    if rng is None:
        rng = np.random.default_rng()
    mu = encoding.encode(message)
    return lwe_encrypt(secret.lwe_key, mu, secret.params.lwe_noise_std, rng)


def decrypt_int(
    secret: SecretKey, ct: LweCiphertext, encoding: IntegerEncoding
) -> np.ndarray:
    return encoding.decode(lwe_phase(secret.lwe_key, ct))


def add_ints(a: LweCiphertext, b: LweCiphertext) -> LweCiphertext:
    """Homomorphic addition of encodings.

    Exact only while the plaintext sum stays below the modulus; the
    center offsets accumulate (two encodings add to an off-center-by-
    ``1/(4p)`` value), so re-center with a LUT before deep chains.
    """
    combined = a + b
    return combined


def apply_lut(
    cloud: CloudKey,
    ct: LweCiphertext,
    table: Sequence[int],
    encoding_in: IntegerEncoding,
    encoding_out: Optional[IntegerEncoding] = None,
) -> LweCiphertext:
    """One programmable bootstrap: ``Enc(m) -> Enc(table[m])``.

    Refreshes noise in the process, exactly like the gate bootstrap.
    ``table`` must have ``encoding_in.modulus`` entries; outputs are
    encoded under ``encoding_out`` (defaults to the input encoding).
    """
    params = cloud.params
    encoding_out = encoding_out or encoding_in
    test_poly = lut_test_polynomial(
        table, encoding_in, encoding_out, params.tlwe_degree
    )

    acc = blind_rotate(test_poly, ct, cloud.bootstrapping_key, params)
    extracted = tlwe_extract_lwe(acc, params)
    return keyswitch_apply(cloud.keyswitching_key, extracted)


def lut_test_polynomial(
    table,
    encoding_in: IntegerEncoding,
    encoding_out: IntegerEncoding,
    big_n: int,
) -> np.ndarray:
    """The blind-rotation test polynomial realizing ``table``.

    Position ``j`` corresponds to phase ``j / 2N`` in ``[0, 1/2)``;
    slice index is ``floor(2p * phase) = (p * j) // N``.  Validates the
    table against both encodings (:class:`LutTableError` on mismatch).
    """
    entries = validate_table(table, encoding_in, encoding_out)
    p = encoding_in.modulus
    slice_of = (np.arange(big_n, dtype=np.int64) * p) // big_n
    return encoding_out.encode(entries[slice_of])


def relu_table(modulus: int, threshold: Optional[int] = None) -> list:
    """A ReLU-style LUT: identity below ``threshold``, clamp above.

    With the default threshold ``p // 2`` this treats the upper half of
    ``Z_p`` as "negative" and maps it to zero — the quantized-integer
    ReLU used in FHE inference.
    """
    threshold = modulus // 2 if threshold is None else threshold
    return [m if m < threshold else 0 for m in range(modulus)]


def multiply_table(modulus: int, constant: int) -> list:
    return [(m * constant) % modulus for m in range(modulus)]


def square_table(modulus: int) -> list:
    return [(m * m) % modulus for m in range(modulus)]
