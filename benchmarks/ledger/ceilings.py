"""Ceiling probes: what numpy alone allows for one bootstrapped gate.

One CMUX step of blind rotation at batch ``B`` transforms the
decomposed accumulator forward (``(B, (k+1)*l, N/2)`` complex, the
folded half-spectrum FFT ``repro.tfhe`` uses in place of an ``rfft``
of length ``N``), multiplies it with one bootstrapping-key slice
(``(N/2, B, (k+1)*l) @ (N/2, (k+1)*l, k+1)``, a batched ``zgemm``) and
transforms the product back (``(B, k+1, N/2)``).  A bootstrap is ``n``
such steps.  The probes time exactly these numpy calls on random data
of those shapes, standalone, and report the cost of one gate at batch
:data:`BATCH`: ``n`` steps divided by the batch.  ``tfhe.ceiling_ratio``
is the measured amortized gate over their sum: how far the engine is
from what numpy allows for the transforms and products alone.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

import numpy as np

#: Batch the probes (and ``tfhe.gate_b16_ms``) are taken at.
BATCH = 16
#: CMUX steps timed per repetition; the result is scaled to ``n`` steps.
STEPS = 8
REPETITIONS = 5


def _median_step_ms(step) -> float:
    step()  # plan caches, page faults
    samples = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        for _ in range(STEPS):
            step()
        samples.append((time.perf_counter() - start) * 1e3 / STEPS)
    return statistics.median(samples)


def probe(params, seed: int) -> Dict[str, float]:
    """FFT and zgemm cost of one gate at batch 16, in ms per gate."""
    rng = np.random.default_rng([seed, 0xCE11])
    half = params.tlwe_degree // 2
    rows = (params.tlwe_k + 1) * params.bs_decomp_length
    cols = params.tlwe_k + 1

    def complex_array(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    digits = complex_array(BATCH, rows, half)
    product = complex_array(BATCH, cols, half)
    left = complex_array(half, BATCH, rows)
    key_slice = complex_array(half, rows, cols)

    def transforms():
        np.fft.ifft(digits, axis=-1)
        np.fft.fft(product, axis=-1)

    def matmul():
        left @ key_slice

    per_gate = params.lwe_dimension / BATCH
    return {
        "tfhe.fft_ceiling_ms": _median_step_ms(transforms) * per_gate,
        "tfhe.zgemm_ceiling_ms": _median_step_ms(matmul) * per_gate,
    }
