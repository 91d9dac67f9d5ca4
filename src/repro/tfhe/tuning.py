"""Decomposition-parameter tuning driven by the noise model.

Given fixed lattice dimensions and noise levels (which set the security
level), the gadget decomposition (``l``, ``Bg``) and key-switch
decomposition (``t``, ``base``) trade precision against per-gate cost:
a longer decomposition lowers noise but adds FFT/table work.  The tuner
sweeps the small discrete grid and returns the cheapest configuration
whose predicted gate-failure probability meets the target — the noise
model of :mod:`repro.tfhe.noise` doing design work, not just analysis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional

from .noise import gate_failure_probability
from .params import TFHEParameters


@dataclass(frozen=True)
class TuningCandidate:
    """One evaluated configuration."""

    params: TFHEParameters
    log2_failure: float
    relative_cost: float


def bootstrap_cost_units(params: TFHEParameters) -> float:
    """Relative per-gate cost: FFT work + key-switch table work.

    Blind rotation does ``n * (k+1) * l`` forward FFTs of size ``N``
    (cost ~ N log N each); the key switch reduces ``kN * t`` table rows
    of length ``n``.
    """
    n = params.lwe_dimension
    big_n = params.tlwe_degree
    fft_work = (
        n
        * (params.tlwe_k + 1)
        * params.bs_decomp_length
        * big_n
        * math.log2(big_n)
    )
    ks_work = params.extracted_lwe_dimension * params.ks_decomp_length * n
    return fft_work + ks_work


def tune_decomposition(
    base_params: TFHEParameters,
    target_log2_failure: float = -40.0,
    bs_lengths: Optional[List[int]] = None,
    bs_log2_bases: Optional[List[int]] = None,
    ks_lengths: Optional[List[int]] = None,
    ks_log2_bases: Optional[List[int]] = None,
) -> TuningCandidate:
    """Find the cheapest decomposition meeting the failure target.

    Lattice dimensions and noise standard deviations of
    ``base_params`` are kept fixed (they carry the security level);
    only the decomposition knobs move.  Raises if nothing on the grid
    meets the target.
    """
    bs_lengths = bs_lengths or [1, 2, 3, 4]
    bs_log2_bases = bs_log2_bases or [4, 6, 7, 8, 10]
    ks_lengths = ks_lengths or [2, 4, 6, 8]
    ks_log2_bases = ks_log2_bases or [1, 2, 4]

    best: Optional[TuningCandidate] = None
    for ell in bs_lengths:
        for beta in bs_log2_bases:
            if ell * beta > 32:
                continue
            for t in ks_lengths:
                for gamma in ks_log2_bases:
                    if t * gamma > 32:
                        continue
                    candidate_params = dataclasses.replace(
                        base_params,
                        name=f"{base_params.name}-tuned",
                        bs_decomp_length=ell,
                        bs_decomp_log2_base=beta,
                        ks_decomp_length=t,
                        ks_decomp_log2_base=gamma,
                    )
                    failure = gate_failure_probability(candidate_params)
                    log2_failure = (
                        math.log2(failure) if failure > 0 else -1074.0
                    )
                    if log2_failure > target_log2_failure:
                        continue
                    candidate = TuningCandidate(
                        params=candidate_params,
                        log2_failure=log2_failure,
                        relative_cost=bootstrap_cost_units(candidate_params),
                    )
                    if best is None or candidate.relative_cost < best.relative_cost:
                        best = candidate
    if best is None:
        raise ValueError(
            "no decomposition on the grid meets the failure target; "
            "larger lattice parameters are needed"
        )
    return best


def sweep_candidates(
    base_params: TFHEParameters,
    target_log2_failure: float = -40.0,
) -> List[TuningCandidate]:
    """All grid points meeting the target, cheapest first (for reports)."""
    out: List[TuningCandidate] = []
    for ell in (1, 2, 3, 4):
        for beta in (4, 6, 7, 8, 10):
            if ell * beta > 32:
                continue
            candidate_params = dataclasses.replace(
                base_params,
                name=f"{base_params.name}-l{ell}b{beta}",
                bs_decomp_length=ell,
                bs_decomp_log2_base=beta,
            )
            failure = gate_failure_probability(candidate_params)
            log2_failure = math.log2(failure) if failure > 0 else -1074.0
            if log2_failure <= target_log2_failure:
                out.append(
                    TuningCandidate(
                        params=candidate_params,
                        log2_failure=log2_failure,
                        relative_cost=bootstrap_cost_units(candidate_params),
                    )
                )
    return sorted(out, key=lambda c: c.relative_cost)
