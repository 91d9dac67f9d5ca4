"""Negacyclic polynomial arithmetic over the discretized torus.

All bootstrapping math happens in the ring T_N[X] = T[X]/(X^N + 1).
Products of an *integer* polynomial by a *torus* polynomial are computed
with a twisted complex FFT, the same double-precision strategy the TFHE
library uses: FFT rounding errors land below the cryptographic noise
floor and are absorbed by it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .torus import wrap_int32


class NegacyclicRing:
    """FFT helper for Z[X]/(X^N+1) products with batching support.

    The negacyclic convolution of length ``N`` is computed as a cyclic
    convolution of length ``N`` after "twisting" the inputs by the 2N-th
    roots of unity.
    """

    def __init__(self, degree: int):
        if degree & (degree - 1):
            raise ValueError("degree must be a power of two")
        self.degree = degree
        j = np.arange(degree)
        self._twist = np.exp(1j * np.pi * j / degree)
        self._untwist = np.exp(-1j * np.pi * j / degree)
        half = degree // 2
        jh = np.arange(half)
        # Folded (half-size) transform: a real negacyclic polynomial is
        # fully determined by its values at the N/2 odd roots
        # w^(4k+1); pack (a_j, a_{j+N/2}) into one complex sequence and
        # a length-N/2 FFT evaluates exactly those points.  The N/2
        # scale of the inverse-sign DFT is folded into the twist.
        self._twist_half = np.exp(1j * np.pi * jh / degree) * half
        self._untwist_half = np.exp(-1j * np.pi * jh / degree) / half

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Twisted FFT of integer/torus coefficient arrays (..., N)."""
        return np.fft.fft(
            np.asarray(coeffs, dtype=np.float64) * self._twist, axis=-1
        )

    def backward(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`, rounded back onto int32 torus."""
        coeffs = np.fft.ifft(spectrum, axis=-1) * self._untwist
        return wrap_int32(np.round(coeffs.real).astype(np.int64))

    def forward_half(self, coeffs: np.ndarray) -> np.ndarray:
        """Folded twisted FFT: real ``(..., N)`` -> complex ``(..., N/2)``.

        Returns the polynomial's values at the odd 2N-th roots of unity
        ``w^(4k+1)`` — half the redundant full spectrum, so pointwise
        products do half the work.
        """
        half = self.degree // 2
        arr = np.asarray(coeffs)
        packed = np.empty(arr.shape[:-1] + (half,), dtype=np.complex128)
        packed.real = arr[..., :half]
        packed.imag = arr[..., half:]
        return self.fold(packed)

    def fold(self, packed: np.ndarray) -> np.ndarray:
        """:meth:`forward_half` of ``a_j + i*a_(j+N/2)``, in place."""
        packed *= self._twist_half
        return np.fft.ifft(packed, axis=-1, out=packed)

    def unfold(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fold`, in place (not yet rounded)."""
        np.fft.fft(spectrum, axis=-1, out=spectrum)
        spectrum *= self._untwist_half
        return spectrum

    def backward_half(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_half`, rounded onto the int32 torus."""
        u = self.unfold(np.array(spectrum, dtype=np.complex128))
        return wrap_int32(
            np.round(
                np.concatenate([u.real, u.imag], axis=-1)
            ).astype(np.int64)
        )

    def multiply(self, int_poly: np.ndarray, torus_poly: np.ndarray) -> np.ndarray:
        """Product of an integer polynomial with a torus polynomial."""
        return self.backward(self.forward(int_poly) * self.forward(torus_poly))


_RING_CACHE: Dict[int, NegacyclicRing] = {}


def get_ring(degree: int) -> NegacyclicRing:
    """Return the (cached) ring helper for polynomials of degree ``N``."""
    ring = _RING_CACHE.get(degree)
    if ring is None:
        ring = NegacyclicRing(degree)
        _RING_CACHE[degree] = ring
    return ring


def negacyclic_multiply_naive(
    int_poly: np.ndarray, torus_poly: np.ndarray
) -> np.ndarray:
    """Schoolbook negacyclic product (reference; O(N^2), exact)."""
    a = np.asarray(int_poly, dtype=np.int64)
    b = np.asarray(torus_poly, dtype=np.int64)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ValueError("polynomial degrees differ")
    result = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    a, b = np.broadcast_arrays(a, b)
    for shift in range(n):
        term = a[..., shift : shift + 1] * np.roll(b, shift, axis=-1)
        term[..., :shift] = -term[..., :shift]
        result += term
    return wrap_int32(result)


def rotation_windows(tripled: np.ndarray) -> np.ndarray:
    """Every rotation of polynomial(s) stored as ``[p, -p, p]``.

    Input ``(..., 3N)``, output a view ``(..., 2N + 1, N)`` whose window
    ``s`` is ``X**(-s) * p``: a negacyclic rotation is a contiguous read,
    with no index arithmetic and no sign multiply.
    """
    return np.lib.stride_tricks.sliding_window_view(
        tripled, tripled.shape[-1] // 3, axis=-1
    )


def negacyclic_shift(poly: np.ndarray, amount) -> np.ndarray:
    """Multiply polynomial(s) by ``X**amount`` in T[X]/(X^N+1).

    ``amount`` may be a scalar or an integer array broadcastable against
    the leading (batch) dimensions of ``poly``; it is interpreted modulo
    ``2N`` (a shift by ``N`` negates the polynomial).
    """
    poly = np.asarray(poly)
    n, lead = poly.shape[-1], poly.shape[:-1]
    amount_arr = np.asarray(amount, dtype=np.int64)
    aligned = amount_arr.reshape(
        amount_arr.shape + (1,) * (len(lead) - amount_arr.ndim)
    )
    starts = np.broadcast_to(-aligned % (2 * n), lead).reshape(-1)
    # Negation stays in the input dtype: int32 wrap-around *is* exact
    # torus negation.
    flat = poly.reshape(-1, n)
    windows = rotation_windows(np.concatenate([flat, -flat, flat], axis=-1))
    return windows[np.arange(len(starts)), starts].reshape(poly.shape)
