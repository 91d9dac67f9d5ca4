"""Analytic noise tracking for the TFHE pipeline.

LWE noise grows under homomorphic linear operations and is reset by
bootstrapping; decryption fails when the accumulated noise crosses the
message margin (1/16 of the torus for the ±1/8 gate encoding at the
bootstrap input's 1/8 decision margin).  This module provides the
standard variance formulas, a per-gate failure-probability estimate,
and an empirical measurement helper the tests validate the formulas
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import MU_GATE, bootstrap_binary
from .keys import CloudKey, SecretKey
from .lwe import lwe_encrypt, lwe_phase
from .params import TFHEParameters
from .torus import wrap_int32


def fresh_lwe_variance(params: TFHEParameters) -> float:
    """Variance (torus^2) of a freshly encrypted LWE sample."""
    return params.lwe_noise_std ** 2


def external_product_added_variance(params: TFHEParameters) -> float:
    """Variance added to a TLWE sample by one external product.

    Standard CGGI estimate: each of the ``(k+1) * l`` decomposition
    rows contributes ``N`` coefficients with digits up to ``Bg/2``
    against fresh TGSW noise, plus the decomposition's dropped-bit
    rounding against the (binary) key.
    """
    k = params.tlwe_k
    ell = params.bs_decomp_length
    big_n = params.tlwe_degree
    bg = params.bs_base
    sample_term = (
        (k + 1) * ell * big_n * (bg / 2.0) ** 2 * params.tlwe_noise_std ** 2
    )
    eps = 2.0 ** -(ell * params.bs_decomp_log2_base + 1)
    rounding_term = (1 + k * big_n / 2.0) * eps ** 2
    return sample_term + rounding_term


def blind_rotate_output_variance(params: TFHEParameters) -> float:
    """Noise of the accumulator after a full blind rotation (n CMUXes)."""
    return params.lwe_dimension * external_product_added_variance(params)


def keyswitch_added_variance(params: TFHEParameters) -> float:
    """Variance added by the LWE-to-LWE key switch."""
    kn = params.extracted_lwe_dimension
    t = params.ks_decomp_length
    base = params.ks_base
    # Each nonzero digit pulls in one fresh table sample.
    nonzero_fraction = (base - 1) / base
    sample_term = kn * t * nonzero_fraction * params.lwe_noise_std ** 2
    # Decomposition rounding: uniform in ±2^-(t*gamma+1) per coefficient,
    # against a binary key (E[s^2] = 1/2).
    eps = 2.0 ** -(t * params.ks_decomp_log2_base)
    rounding_term = kn * (eps ** 2 / 12.0) * 0.5
    return sample_term + rounding_term


def bootstrap_output_variance(params: TFHEParameters) -> float:
    """Noise of a gate output (bootstrap + key switch)."""
    return blind_rotate_output_variance(params) + keyswitch_added_variance(
        params
    )


def modswitch_variance(params: TFHEParameters) -> float:
    """Phase-rounding noise of the 2N-discretization before rotation."""
    two_n = 2 * params.tlwe_degree
    step = 1.0 / two_n
    # n+1 coefficients each rounded uniformly within ±step/2; the mask
    # terms meet a binary key (E[s^2] = 1/2).
    return (step ** 2 / 12.0) * (1 + params.lwe_dimension / 2.0)


@dataclass
class GateNoiseBudget:
    """Noise accounting for one bootstrapped two-input gate."""

    params: TFHEParameters
    input_variance: float

    @property
    def pre_bootstrap_variance(self) -> float:
        """Worst gate linear combination (XOR doubles both inputs)."""
        return 8 * self.input_variance  # 2^2 * (var_a + var_b)

    @property
    def decision_variance(self) -> float:
        return self.pre_bootstrap_variance + modswitch_variance(self.params)

    @property
    def decision_margin(self) -> float:
        """Torus distance from the worst-case phase to the sign boundary."""
        return 1.0 / 8.0

    def failure_probability(self) -> float:
        """Gaussian tail estimate of one gate decoding incorrectly."""
        sigma = math.sqrt(self.decision_variance)
        if sigma == 0:
            return 0.0
        z = self.decision_margin / sigma
        return math.erfc(z / math.sqrt(2.0))


def gate_failure_probability(params: TFHEParameters) -> float:
    """Failure probability of a gate fed by bootstrapped outputs."""
    budget = GateNoiseBudget(
        params=params, input_variance=bootstrap_output_variance(params)
    )
    return budget.failure_probability()


def measure_bootstrap_noise_std(
    secret: SecretKey,
    cloud: CloudKey,
    trials: int = 64,
    seed: int = 0,
) -> float:
    """Empirical std (torus units) of bootstrapped-gate output phases."""
    rng = np.random.default_rng(seed)
    params = secret.params
    quarter = np.int64(MU_GATE) * 2
    mus = wrap_int32(np.full(trials, quarter))
    ct = lwe_encrypt(secret.lwe_key, mus, params.lwe_noise_std, rng)
    out = bootstrap_binary(cloud, ct)
    phases = lwe_phase(secret.lwe_key, out).astype(np.int64)
    deviations = (phases - np.int64(MU_GATE)) / float(1 << 32)
    return float(np.std(deviations))
