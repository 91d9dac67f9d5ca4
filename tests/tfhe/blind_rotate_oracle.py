"""Reference blind rotation: the formulation the fused kernel replaced.

Each CMUX step is spelled out as separate, allocating numpy calls —
rotation by index gather and sign multiply, gadget digits as float64,
``forward_half``, one batched ``zgemm`` per ring point, ``backward_half``
— so the kernel in :mod:`repro.tfhe.bootstrap` has something
independent to be compared with.  Test-only; never fast.
"""

import numpy as np

from repro.tfhe.polynomial import get_ring
from repro.tfhe.tgsw import decomposition_offset


def rotate(poly, amounts):
    """``X**amounts[b] * poly[b]`` by explicit index and sign arithmetic."""
    n = poly.shape[-1]
    src = (np.arange(n) - np.asarray(amounts)[..., None, None]) % (2 * n)
    sign = np.where(src >= n, -1, 1).astype(poly.dtype)
    gathered = np.take_along_axis(
        poly, np.broadcast_to(src % n, poly.shape), axis=-1
    )
    return gathered * sign


def decompose_float(tlwe, params):
    ell, beta = params.bs_decomp_length, params.bs_decomp_log2_base
    values = tlwe.view(np.uint32) + np.uint32(decomposition_offset(params))
    shifts = (32 - np.arange(1, ell + 1) * beta).astype(np.uint32)
    digits = (
        (values[..., :, None, :] >> shifts[:, None])
        & np.uint32((1 << beta) - 1)
    ).astype(np.float64) - float(1 << (beta - 1))
    return digits.reshape(tlwe.shape[:-2] + (-1, params.tlwe_degree))


def external_product(spectrum, tlwe, params):
    """``spectrum`` is one ``((k+1)*l, k+1, N/2)`` slice of the key."""
    ring = get_ring(params.tlwe_degree)
    digit_spec = ring.forward_half(decompose_float(tlwe, params))
    out = np.moveaxis(digit_spec, -1, 0) @ np.moveaxis(spectrum, -1, 0)
    return ring.backward_half(np.moveaxis(out, 0, -1))


def blind_rotate(test_poly, ct, bootstrapping_key, params):
    """Same contract as :func:`repro.tfhe.bootstrap.blind_rotate`, 1-D batch."""
    big_n, k = params.tlwe_degree, params.tlwe_k
    shift = 32 - (2 * big_n).bit_length() + 1

    def round_to_2n(values):
        wide = values.view(np.uint32).astype(np.int64)
        return ((wide + (1 << (shift - 1))) >> shift) & (2 * big_n - 1)

    bara, barb = round_to_2n(ct.a), round_to_2n(ct.b)
    acc = np.zeros((len(barb), k + 1, big_n), dtype=np.int32)
    acc[:, k:] = rotate(
        np.broadcast_to(test_poly, (len(barb), big_n))[:, None], -barb
    )
    for i in range(params.lwe_dimension):
        if bara[:, i].any():
            diff = rotate(acc, bara[:, i]) - acc
            acc = acc + external_product(bootstrapping_key[i], diff, params)
    return acc
