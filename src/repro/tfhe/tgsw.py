"""TGSW samples, gadget decomposition, and the external product.

A TGSW sample encrypting an integer ``mu`` is a stack of ``(k+1)*l``
TLWE zero-encryptions with ``mu`` times the gadget matrix added.  The
external product TGSW ⊡ TLWE is the workhorse of blind rotation; it is
evaluated in the FFT domain with the TGSW rows pre-transformed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .params import TFHEParameters
from .polynomial import get_ring
from .tlwe import tlwe_encrypt_zero
from .torus import wrap_int32


def gadget_values(params: TFHEParameters) -> np.ndarray:
    """The gadget scaling factors ``2**(32 - (j+1)*Bgbit)`` for j < l."""
    beta = params.bs_decomp_log2_base
    return np.array(
        [1 << (32 - (j + 1) * beta) for j in range(params.bs_decomp_length)],
        dtype=np.int64,
    )


def tgsw_encrypt_int(
    key: np.ndarray,
    mu: int,
    params: TFHEParameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Encrypt the integer ``mu`` (as a constant polynomial) in TGSW.

    Returns an int32 array of shape ``((k+1)*l, k+1, N)``.
    """
    k, ell = params.tlwe_k, params.bs_decomp_length
    rows = (k + 1) * ell
    sample = tlwe_encrypt_zero(key, params, rng, batch_shape=(rows,))
    factors = gadget_values(params)
    for i in range(k + 1):
        for j in range(ell):
            row = i * ell + j
            sample[row, i, 0] = wrap_int32(
                sample[row, i, 0].astype(np.int64) + mu * factors[j]
            )
    return sample


def decomposition_offset(params: TFHEParameters) -> int:
    """Rounding offset for the signed gadget decomposition."""
    beta = params.bs_decomp_log2_base
    half_base = 1 << (beta - 1)
    offset = 0
    for j in range(params.bs_decomp_length):
        offset += half_base << (32 - (j + 1) * beta)
    return offset


def _gadget_digits(
    tlwe: np.ndarray, params: TFHEParameters, values: np.ndarray, digits: np.ndarray
) -> np.ndarray:
    """Signed gadget digits of ``tlwe``, written into ``digits``.

    The one decomposition in the package.  ``tlwe`` is int32
    ``batch + (k+1, N)``; ``values`` (same shape) and ``digits``
    (``batch + (k+1, l, N)``) are uint32 buffers the caller owns.  The
    offset add wraps in uint32, which is exact: no digit window
    straddles bit 32.  Returns ``digits`` viewed as int32.
    """
    beta = params.bs_decomp_log2_base
    offset = np.uint32(decomposition_offset(params))
    np.add(tlwe.view(np.uint32), offset, out=values)
    # One scalar shift per digit: numpy's shift loop is several times
    # slower when the shift amounts are an (even stride-0) array.
    for j in range(params.bs_decomp_length):
        np.right_shift(
            values, np.uint32(32 - (j + 1) * beta), out=digits[..., j, :]
        )
    digits &= np.uint32(params.bs_base - 1)
    signed = digits.view(np.int32)
    signed -= np.int32(params.bs_base >> 1)
    return signed


def tgsw_decompose(tlwe: np.ndarray, params: TFHEParameters) -> np.ndarray:
    """Signed gadget decomposition of TLWE sample(s).

    Input shape ``batch + (k+1, N)``; output ``batch + ((k+1)*l, N)``
    with digits in ``[-Bg/2, Bg/2)`` such that
    ``sum_j digit_j * 2**(32-(j+1)*beta)`` approximates each torus
    coefficient.
    """
    lead, n = tlwe.shape[:-1], tlwe.shape[-1]
    values = np.empty(tlwe.shape, dtype=np.uint32)
    digits = np.empty(lead + (params.bs_decomp_length, n), dtype=np.uint32)
    signed = _gadget_digits(tlwe, params, values, digits)
    return signed.reshape(lead[:-1] + (-1, n))


@dataclass
class TgswFFT:
    """A TGSW sample pre-transformed into the FFT domain.

    ``spectrum`` is the folded half spectrum
    (:meth:`repro.tfhe.polynomial.NegacyclicRing.forward_half`) with
    the ring axis last: ``((k+1)*l, k+1, N/2)`` complex128 — one slice
    of the stacked bootstrapping key.
    """

    spectrum: np.ndarray

    @staticmethod
    def from_sample(sample: np.ndarray, params: TFHEParameters) -> "TgswFFT":
        ring = get_ring(params.tlwe_degree)
        return TgswFFT(ring.forward_half(sample))


#: Index of the low int32 word of an int64 in memory.
_LOW_WORD = 0 if sys.byteorder == "little" else 1


class ExternalProductKernel:
    """``acc += TGSW ⊡ TLWE`` for ``batch`` samples, allocation-free.

    Every intermediate lives in a buffer allocated here, once, and each
    step writes through ``out=``.  An instance belongs to one caller
    (one :func:`repro.tfhe.bootstrap.blind_rotate` call): nothing is
    cached on a key or a module, so concurrent callers share nothing.
    """

    def __init__(self, params: TFHEParameters, batch: int):
        k, ell = params.tlwe_k, params.bs_decomp_length
        big_n = params.tlwe_degree
        half = big_n // 2
        self.params = params
        self.ring = get_ring(big_n)
        self.values = np.empty((batch, k + 1, big_n), dtype=np.uint32)
        self.digits = np.empty((batch, k + 1, ell, big_n), dtype=np.uint32)
        self.packed = np.empty((batch, k + 1, ell, half), dtype=np.complex128)
        self.product = np.empty((batch, k + 1, half), dtype=np.complex128)
        self.term = np.empty_like(self.product)
        self.rounded = np.empty((batch, k + 1, half, 2), dtype=np.float64)
        self.words = np.empty((batch, k + 1, half, 2), dtype=np.int64)

    def add_product(
        self, acc: np.ndarray, tgsw: np.ndarray, tlwe: np.ndarray
    ) -> None:
        """``acc += tgsw ⊡ tlwe`` on the int32 torus (wrap-around).

        ``tgsw`` is one folded spectrum ``((k+1)*l, k+1, N/2)``;
        ``acc`` and ``tlwe`` are int32 ``(batch, k+1, N)``.
        """
        batch, rows, half = len(tlwe), len(tgsw), self.product.shape[-1]
        digits = _gadget_digits(tlwe, self.params, self.values, self.digits)
        # Coefficient halves go straight into the packed FFT input.
        packed = self.packed
        packed.real = digits[..., :half]
        packed.imag = digits[..., half:]
        spectrum = self.ring.fold(packed).reshape(batch, rows, half)
        # Ring axis last on both operands: (k+1)*l multiply-accumulates
        # of (batch, 1, N/2) x (k+1, N/2) — no transposes, no BLAS.
        product, term = self.product, self.term
        np.multiply(spectrum[:, 0, None], tgsw[0], out=product)
        for row in range(1, rows):
            np.multiply(spectrum[:, row, None], tgsw[row], out=term)
            product += term
        self.ring.unfold(product)
        # Each (re, im) pair holds coefficients (j, j + N/2); the low
        # word of its rounded int64 is the value mod 2**32, the torus.
        np.rint(
            product.view(np.float64).reshape(self.rounded.shape),
            out=self.rounded,
        )
        np.copyto(self.words, self.rounded, casting="unsafe")
        low = self.words.view(np.int32)[..., _LOW_WORD::2]
        halves = acc.reshape(batch, -1, 2, half)
        halves += low.transpose(0, 1, 3, 2)


def external_product(
    tgsw_fft, tlwe: np.ndarray, params: TFHEParameters
) -> np.ndarray:
    """TGSW ⊡ TLWE, batched over the leading dimensions of ``tlwe``.

    ``tgsw_fft`` is a :class:`TgswFFT` or its raw folded spectrum (one
    slice of the stacked bootstrapping key).  This is one step of the
    kernel that blind rotation loops over.
    """
    spectrum = (
        tgsw_fft.spectrum if isinstance(tgsw_fft, TgswFFT) else tgsw_fft
    )
    flat = tlwe.reshape((-1,) + tlwe.shape[-2:])
    out = np.zeros(flat.shape, dtype=np.int32)
    ExternalProductKernel(params, len(flat)).add_product(out, spectrum, flat)
    return out.reshape(tlwe.shape)


def cmux(
    tgsw_fft: TgswFFT,
    when_true: np.ndarray,
    when_false: np.ndarray,
    params: TFHEParameters,
) -> np.ndarray:
    """Homomorphic select: TGSW(1) yields ``when_true``, TGSW(0) the other.

    Operands are int32 torus polynomials; int32 wrap-around add and
    subtract *are* exact torus arithmetic (see :mod:`repro.tfhe.torus`).
    """
    diff = when_true - when_false
    return when_false + external_product(tgsw_fft, diff, params)
