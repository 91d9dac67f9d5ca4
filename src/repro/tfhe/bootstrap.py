"""Programmable bootstrapping: blind rotation + extraction.

The bootstrap takes a (noisy) LWE sample under the small key and
returns a *fresh* LWE sample under the extracted key whose message is
``+mu`` when the input phase is in (0, 1/2) and ``-mu`` otherwise.
Everything is batched: a whole level of gates bootstraps as one numpy
computation, which is also the functional analogue of the paper's GPU
batch execution.
"""

from __future__ import annotations

import numpy as np

from .lwe import LweCiphertext
from .params import TFHEParameters
from .polynomial import negacyclic_shift, rotation_windows
from .tgsw import ExternalProductKernel
from .tlwe import tlwe_extract_lwe


def _round_to_2n(values: np.ndarray, two_n: int) -> np.ndarray:
    """Round torus elements to multiples of 1/2N, returned in [0, 2N)."""
    log2_two_n = int(two_n).bit_length() - 1
    shift = 32 - log2_two_n
    as_int = values.view(np.uint32).astype(np.int64)
    return ((as_int + (1 << (shift - 1))) >> shift) & (two_n - 1)


def key_shape(params: TFHEParameters) -> "tuple[int, int, int, int]":
    """Shape of :attr:`CloudKey.bootstrapping_key` for ``params``:
    ``(n, (k+1)*l, k+1, N/2)``."""
    k = params.tlwe_k
    return (
        params.lwe_dimension,
        (k + 1) * params.bs_decomp_length,
        k + 1,
        params.tlwe_degree // 2,
    )


def blind_rotate(
    test_poly: np.ndarray,
    ct: LweCiphertext,
    bootstrapping_key: np.ndarray,
    params: TFHEParameters,
) -> np.ndarray:
    """Rotate ``test_poly`` by the (rounded) phase of each sample.

    ``bootstrapping_key`` is :attr:`repro.tfhe.keys.CloudKey.bootstrapping_key`:
    the folded half spectra of the ``n`` TGSW samples, ring axis last,
    ``(n, (k+1)*l, k+1, N/2)`` complex128.  Anything else is a
    ``TypeError`` — there is one key layout.

    The ``n`` CMUX steps run as one fused loop.  Buffers are allocated
    here, once per call (calls on different threads share nothing), and
    the steps write through ``out=``; only the window gather returns a
    fresh array.  The accumulator lives tripled as ``[acc, -acc, acc]``
    so that ``X**a * acc`` is a contiguous window of it
    (:func:`repro.tfhe.polynomial.rotation_windows`).

    Returns TLWE sample(s) of shape ``batch + (k+1, N)`` whose message
    is ``X**(-phase_rounded) * test_poly``.
    """
    n_lwe, big_n, k = params.lwe_dimension, params.tlwe_degree, params.tlwe_k
    two_n = 2 * big_n
    shape = key_shape(params)
    if (
        not isinstance(bootstrapping_key, np.ndarray)
        or bootstrapping_key.shape != shape
        or bootstrapping_key.dtype != np.complex128
    ):
        raise TypeError(
            f"bootstrapping_key must be CloudKey.bootstrapping_key: the "
            f"stacked folded spectrum, complex128 of shape {shape}"
        )

    batch_shape = ct.batch_shape
    bara = _round_to_2n(ct.a, two_n).reshape(-1, n_lwe)
    barb = _round_to_2n(ct.b, two_n).reshape(-1)
    batch = len(barb)
    sample = np.arange(batch)
    # Step i reads window -a_i of each sample: X**a_i * acc.
    starts = np.ascontiguousarray(((two_n - bara) % two_n).T)

    tripled = np.empty((batch, k + 1, 3 * big_n), dtype=np.int32)
    windows = rotation_windows(tripled)
    acc = tripled[..., :big_n]
    negated = tripled[..., big_n:two_n]
    again = tripled[..., two_n:]
    acc[:, :k] = 0
    acc[:, k] = negacyclic_shift(
        np.broadcast_to(test_poly, batch_shape + (big_n,)).reshape(
            batch, big_n
        ),
        two_n - barb,
    )
    diff = np.empty((batch, k + 1, big_n), dtype=np.int32)
    kernel = ExternalProductKernel(params, batch)

    # int32 wrap-around add/sub are exact torus arithmetic, so the CMUX
    # accumulation needs no widening to int64.  A step every sample
    # sits out (all amounts zero) is skipped.
    for i in np.flatnonzero(bara.any(axis=0)):
        np.negative(acc, out=negated)
        np.copyto(again, acc)
        np.subtract(windows[sample, :, starts[i]], acc, out=diff)
        kernel.add_product(acc, bootstrapping_key[i], diff)
    return np.ascontiguousarray(acc).reshape(batch_shape + (k + 1, big_n))


def bootstrap_to_extracted(
    ct: LweCiphertext,
    bootstrapping_key,
    params: TFHEParameters,
    mu: np.int32,
) -> LweCiphertext:
    """Bootstrap sample(s) to LWE(±mu) under the extracted key.

    ``bootstrapping_key`` is the stacked array :func:`blind_rotate`
    takes.
    """
    test_poly = np.full(params.tlwe_degree, np.int32(mu), dtype=np.int32)
    acc = blind_rotate(test_poly, ct, bootstrapping_key, params)
    return tlwe_extract_lwe(acc, params)
