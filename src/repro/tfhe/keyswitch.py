"""LWE-to-LWE key switching.

After bootstrapping, the result lives under the *extracted* key of
dimension ``k*N``.  The key-switching key re-encrypts it under the
small LWE key of dimension ``n`` so the next gate's linear combination
stays cheap.

The apply path is expressed as dense matrix products: the digit
decomposition of the input mask is one-hot encoded per digit value and
multiplied against per-value slices of the key-switch table.  Products
of 0/1 masks with int32-valued table entries stay below 2**53, so the
float64 BLAS accumulation is exact before the final mod-2**32 wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lwe import LweCiphertext
from .params import TFHEParameters
from .torus import gaussian_torus, uniform_torus, wrap_int32

#: Bounds the int32 mask that exists beside the table while it is filled.
_GEN_ROWS = 32


@dataclass
class KeySwitchingKey:
    """The key-switch table, in the one form :func:`keyswitch_apply` reads.

    ``table`` is C-contiguous float64 ``(base-1, kN*t, n)`` and
    ``bodies`` float64 ``(base-1, kN*t)``; entry ``[v-1, i*t + j]`` is
    the (int32-valued) LWE sample of ``v * s'_i * 2**(32 - (j+1)*basebit)``
    under the small key.  A zero digit contributes nothing, so ``v = 0``
    has no plane (this mirrors the TFHE library skipping zero digits).
    """

    table: np.ndarray
    bodies: np.ndarray
    params: TFHEParameters

    def nbytes(self) -> int:
        return self.table.nbytes + self.bodies.nbytes


def table_shape(params: TFHEParameters) -> "tuple[int, int, int]":
    """Shape of :attr:`KeySwitchingKey.table` for ``params``."""
    return (
        params.ks_base - 1,
        params.extracted_lwe_dimension * params.ks_decomp_length,
        params.lwe_dimension,
    )


def keyswitch_key_gen(
    extracted_key: np.ndarray,
    small_key: np.ndarray,
    params: TFHEParameters,
    rng: np.random.Generator,
) -> KeySwitchingKey:
    """Fill the table ``_GEN_ROWS`` extracted-key rows at a time.

    The ``v = 0`` masks are drawn and dropped and the noise is drawn
    after the last mask, so the generator's stream, and every key value,
    is that of one ``lwe_encrypt`` over all ``(kN, t, base)`` messages.
    """
    t = params.ks_decomp_length
    base = params.ks_base
    gamma = params.ks_decomp_log2_base
    kn = params.extracted_lwe_dimension
    planes, rows, n = table_shape(params)

    table = np.empty((planes, kn, t, n), dtype=np.float64)
    for start in range(0, kn, _GEN_ROWS):
        table[:, start:start + _GEN_ROWS] = uniform_torus(
            (min(_GEN_ROWS, kn - start), t, base, n), rng
        )[:, :, 1:].transpose(2, 0, 1, 3)
    noise = gaussian_torus(params.lwe_noise_std, (kn, t, base), rng)

    factors = np.array(
        [1 << (32 - (j + 1) * gamma) for j in range(t)], dtype=np.int64
    )
    mu = (
        np.arange(1, base, dtype=np.int64)[:, None, None]
        * np.asarray(extracted_key, dtype=np.int64)[None, :, None]
        * factors[None, None, :]
    )
    # |mask . key| < 2**31 * n < 2**53: the float64 product is exact.
    phase = (table @ np.asarray(small_key, dtype=np.float64)).astype(np.int64)
    bodies = wrap_int32(phase + mu + noise[:, :, 1:].transpose(2, 0, 1))
    return KeySwitchingKey(
        table=table.reshape(planes, rows, n),
        bodies=bodies.astype(np.float64).reshape(planes, rows),
        params=params,
    )


def keyswitch_apply(
    ksk: KeySwitchingKey, ct: LweCiphertext, chunk: int = 4096
) -> LweCiphertext:
    """Switch extracted-key sample(s) to the small key.

    ``ct`` is a batch of samples of dimension ``k*N``; the result is a
    batch of dimension ``n``.  Work is chunked along the batch axis to
    bound the footprint of the one-hot temporaries.  A key or sample
    of another parameter set's shape is a ``TypeError``.
    """
    params = ksk.params
    t = params.ks_decomp_length
    base = params.ks_base
    gamma = params.ks_decomp_log2_base
    kn = params.extracted_lwe_dimension
    n = params.lwe_dimension

    if ksk.table.shape != table_shape(params) or ct.dimension != kn:
        raise TypeError(
            f"key switch at {params.name!r} needs a table of shape "
            f"{table_shape(params)} and samples of dimension {kn}, not "
            f"{ksk.table.shape} and {ct.dimension}"
        )

    batch_shape = ct.batch_shape
    a_in = ct.a.reshape((-1, kn))
    b_in = ct.b.reshape((-1,))
    total = a_in.shape[0]

    shifts = np.array(
        [32 - (j + 1) * gamma for j in range(t)], dtype=np.int64
    )
    round_offset = 1 << (32 - t * gamma - 1)

    out_a = np.empty((total, n), dtype=np.int64)
    out_b = np.empty(total, dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        values = (
            a_in[start:stop].view(np.uint32).astype(np.int64) + round_offset
        )
        digits = (values[:, :, None] >> shifts[None, None, :]) & (base - 1)
        digits = digits.reshape(stop - start, kn * t)
        acc_a = np.zeros((stop - start, n), dtype=np.float64)
        acc_b = b_in[start:stop].astype(np.float64)
        for v in range(1, base):
            mask = (digits == v).astype(np.float64)
            acc_a -= mask @ ksk.table[v - 1]
            acc_b -= mask @ ksk.bodies[v - 1]
        out_a[start:stop] = acc_a.astype(np.int64)
        out_b[start:stop] = acc_b.astype(np.int64)

    return LweCiphertext(
        wrap_int32(out_a).reshape(batch_shape + (n,)),
        wrap_int32(out_b).reshape(batch_shape),
    )
