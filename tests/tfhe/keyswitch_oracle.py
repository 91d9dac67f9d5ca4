"""Reference key switching: the two-form key the one table replaced.

The key is one ``lwe_encrypt`` over every ``(kN, t, base)`` message —
int32 ``a`` ``(kN, t, base, n)`` with the ``v = 0`` entries zeroed —
and the apply path builds a float64 table per digit value from it, so
:mod:`repro.tfhe.keyswitch` has something independent to be compared
with.  Test-only; at 128-bit sizes it needs a GiB.
"""

import numpy as np

from repro.tfhe.lwe import LweCiphertext, lwe_encrypt
from repro.tfhe.torus import wrap_int32


def key_gen(extracted_key, small_key, params, rng):
    """``(a, b)``: int32 ``(kN, t, base, n)`` and ``(kN, t, base)``."""
    t, gamma = params.ks_decomp_length, params.ks_decomp_log2_base
    factors = np.array(
        [1 << (32 - (j + 1) * gamma) for j in range(t)], dtype=np.int64
    )
    v = np.arange(params.ks_base, dtype=np.int64)
    mu = wrap_int32(
        extracted_key.astype(np.int64)[:, None, None]
        * factors[None, :, None]
        * v[None, None, :]
    )
    ct = lwe_encrypt(small_key, mu, params.lwe_noise_std, rng)
    a, b = ct.a.copy(), ct.b.copy()
    a[:, :, 0, :] = 0
    b[:, :, 0] = 0
    return a, b


def float_tables(a, b, params):
    """Per-digit-value ``(kN*t, n)`` and ``(kN*t,)`` float64 slices."""
    rows = params.extracted_lwe_dimension * params.ks_decomp_length
    return {
        v: (
            a[:, :, v, :].reshape(rows, -1).astype(np.float64),
            b[:, :, v].reshape(rows).astype(np.float64),
        )
        for v in range(1, params.ks_base)
    }


def apply(a, b, ct, params):
    t, gamma = params.ks_decomp_length, params.ks_decomp_log2_base
    kn, n = params.extracted_lwe_dimension, params.lwe_dimension
    a_in = ct.a.reshape((-1, kn))
    shifts = np.array([32 - (j + 1) * gamma for j in range(t)], dtype=np.int64)
    values = a_in.view(np.uint32).astype(np.int64) + (1 << (32 - t * gamma - 1))
    digits = (values[:, :, None] >> shifts[None, None, :]) & (params.ks_base - 1)
    digits = digits.reshape(-1, kn * t)
    acc_a = np.zeros((len(a_in), n), dtype=np.float64)
    acc_b = ct.b.reshape((-1,)).astype(np.float64)
    for v, (a_slice, b_slice) in float_tables(a, b, params).items():
        mask = (digits == v).astype(np.float64)
        acc_a -= mask @ a_slice
        acc_b -= mask @ b_slice
    return LweCiphertext(
        wrap_int32(acc_a.astype(np.int64)).reshape(ct.batch_shape + (n,)),
        wrap_int32(acc_b.astype(np.int64)).reshape(ct.batch_shape),
    )
