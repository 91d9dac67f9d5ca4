"""Programmable bootstrapping: arbitrary lookup tables on small integers.

The paper's background (Section II-B) highlights TFHE's *programmable*
bootstrapping: noise reduction that simultaneously applies an arbitrary
lookup-table function.  :func:`programmable_bootstrap` is the stack's
one bootstrap: a boolean gate is its constant-test-polynomial case, and
on integers modulo ``p``, encoded into the positive half of the torus,
it evaluates any unary function ``Z_p -> Z_p`` (or into a different
output modulus).

Encoding: message ``m`` lives at the center of its slice,
``(2m + 1) / (4p)`` — all messages stay in ``[0, 1/2)`` so the
negacyclic sign flip of the test polynomial is never hit.  Homomorphic
addition of encodings is exact while the (integer) sum stays below
``p``; a LUT application re-normalizes and refreshes noise.
"""

from __future__ import annotations

import time
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

    def lin_combine(
        self,
        ca: LweCiphertext,
        cb: Optional[LweCiphertext],
        kx: int,
        ky: int,
        kconst: int,
    ) -> LweCiphertext:
        """Leveled digit combination ``kx*a + ky*b + kconst`` (no bootstrap).

        Each operand encoding carries a ``+1/(4p)`` slice-center offset, so
        the weighted sum is off-center by ``(kx + ky - 1)/(4p)``; the exact
        plaintext correction ``(2*kconst + 1 - K) / (4p)`` re-centers the
        result on the slice of the intended message.  Exact for power-of-two
        moduli (``4p`` divides ``2**32``).
        """
        a = ca.a.astype(np.int64) * kx
        b = ca.b.astype(np.int64) * kx
        total_k = kx
        if cb is not None:
            a = a + cb.a.astype(np.int64) * ky
            b = b + cb.b.astype(np.int64) * ky
            total_k += ky
        delta = 2 * kconst + 1 - total_k
        b = b + (delta * _TWO32) // (4 * self.modulus)
        return LweCiphertext(wrap_int32(a), wrap_int32(b))


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


_obs_get = None


def _ambient_obs():
    """Lazy hook into :func:`repro.obs.get`.

    ``repro.obs`` imports ``repro.tfhe.params``, so a module-level
    import here would cycle through the package __init__; resolving on
    first use (and caching the getter) keeps the disabled-path cost to
    one call + one attribute check per *batched* bootstrap.
    """
    global _obs_get
    if _obs_get is None:
        from .. import obs as _obs_module

        _obs_get = _obs_module.get
    return _obs_get()


def programmable_bootstrap(
    cloud: CloudKey,
    ct: LweCiphertext,
    test_poly: np.ndarray,
    post: Optional[np.ndarray] = None,
) -> LweCiphertext:
    """The one bootstrap: ``ct`` -> a fresh sample of ``test_poly``'s value.

    Blind-rotates ``test_poly`` by each sample's phase, extracts the
    constant coefficient and key-switches back to the small key, then
    adds the torus offset ``post`` (per sample, or ``None``).
    ``test_poly`` is one ``(N,)`` polynomial for the whole batch or one
    row per sample.  A bootstrapped boolean gate is the constant
    ``MU_GATE`` polynomial; a lookup table is :func:`lut_test_polynomial`.

    When observability is on, the two phases land in the
    ``bootstrap_phase_ms`` histogram (``phase=blind_rotate`` /
    ``phase=keyswitch``) — the split that tells you whether a slow
    level is rotation-bound or switching-bound.
    """
    params = cloud.params
    t0 = time.perf_counter()
    acc = blind_rotate(test_poly, ct, cloud.bootstrapping_key, params)
    extracted = tlwe_extract_lwe(acc, params)
    t1 = time.perf_counter()
    out = keyswitch_apply(cloud.keyswitching_key, extracted)
    obs = _ambient_obs()
    if obs.active:
        t2 = time.perf_counter()
        obs.metrics.observe(
            "bootstrap_phase_ms", (t1 - t0) * 1e3, phase="blind_rotate"
        )
        obs.metrics.observe(
            "bootstrap_phase_ms", (t2 - t1) * 1e3, phase="keyswitch"
        )
    if post is None:
        return out
    return LweCiphertext(out.a, wrap_int32(out.b.astype(np.int64) + post))


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
    encoding_out = encoding_out or encoding_in
    test_poly = lut_test_polynomial(
        table, encoding_in, encoding_out, cloud.params.tlwe_degree
    )
    return programmable_bootstrap(cloud, ct, test_poly)


def lut_test_polynomial(
    table,
    encoding_in: IntegerEncoding,
    encoding_out: IntegerEncoding,
    big_n: int,
) -> np.ndarray:
    """The blind-rotation test polynomial realizing ``table``.

    Validates the table against both encodings (:class:`LutTableError`
    on mismatch) and against the ring (:func:`rotation_slices`).
    """
    entries = validate_table(table, encoding_in, encoding_out)
    return encoding_out.encode(
        entries[rotation_slices(encoding_in.modulus, big_n)]
    )


def rotation_slices(modulus: int, big_n: int) -> np.ndarray:
    """Input slice of each test-polynomial position: ``(p * j) // N``.

    Position ``j`` corresponds to phase ``j / 2N`` in ``[0, 1/2)``,
    whose slice is ``floor(2p * phase)``.  Each of the ``p`` slices
    needs at least one position, so ``p > N`` is a
    :class:`LutTableError` rather than a table that silently loses
    entries.
    """
    if modulus > big_n:
        raise LutTableError(
            f"modulus p={modulus} exceeds the ring degree N={big_n}: each "
            f"slice needs at least one of the N rotation positions, so "
            f"{modulus - big_n} table entries would be dropped"
        )
    return (np.arange(big_n, dtype=np.int64) * modulus) // big_n


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
