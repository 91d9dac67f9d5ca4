"""Gate profiler tests (Fig. 7 machinery)."""

import numpy as np

from repro.runtime import profile_gate
from repro.tfhe import TFHE_TEST


def test_profile_phases_positive(cloud_key):
    profile = profile_gate(cloud_key, repetitions=2)
    assert profile.linear_ms >= 0
    assert profile.blind_rotation_ms > 0
    assert profile.key_switching_ms > 0
    assert profile.total_ms > 0


def test_paper_cost_model_fig7_shape():
    """The paper's Fig. 7 shape (C++ TFHE library): blind rotation
    dominates key switching.  Our numpy implementation inverts the two
    (vectorized-FFT rotation is comparatively faster; see
    EXPERIMENTS.md) so the shape is asserted on the calibrated paper
    cost model, and the measured profile below only asserts phase
    positivity."""
    from repro.perfmodel import PAPER_GATE_COST

    assert PAPER_GATE_COST.blind_rotation_ms > PAPER_GATE_COST.key_switching_ms
    assert PAPER_GATE_COST.blind_rotation_ms > PAPER_GATE_COST.linear_ms


def test_measured_profile_linear_phase_is_cheapest(cloud_key):
    profile = profile_gate(cloud_key, repetitions=3)
    assert profile.linear_ms < profile.blind_rotation_ms
    assert profile.linear_ms < profile.key_switching_ms


def test_ciphertext_bytes_match_params(cloud_key):
    profile = profile_gate(cloud_key, repetitions=1)
    assert profile.ciphertext_bytes == TFHE_TEST.ciphertext_bytes


def test_communication_fraction_is_small(cloud_key):
    """On a gigabit NIC communication is a sub-percent fraction (the
    paper reports 0.094%)."""
    profile = profile_gate(cloud_key, repetitions=2)
    fraction = profile.communication_fraction(network_gbps=1.0)
    assert 0 < fraction < 0.05


def test_rows_sum_to_total(cloud_key):
    profile = profile_gate(cloud_key, repetitions=1)
    rows = profile.rows()
    assert abs(sum(ms for _, ms, _ in rows) - profile.total_ms) < 1e-9
    assert abs(sum(frac for _, _, frac in rows) - 1.0) < 1e-9


def test_timed_rotation_gets_the_kernel_ready_key(cloud_key, monkeypatch, rng):
    """The timed bootstrap must receive the key exactly as the kernel
    consumes it — a form it would first have to convert (the per-bit
    list this once passed) bills the conversion to "blind rotation"."""
    from repro.runtime import profiler
    from repro.tfhe.lwe import LweCiphertext

    seen = []
    real = profiler.bootstrap_to_extracted

    def spy(ct, key, params, mu):
        seen.append(key)
        return real(ct, key, params, mu)

    monkeypatch.setattr(profiler, "bootstrap_to_extracted", spy)
    mask = rng.integers(
        0, 2**32, (1, TFHE_TEST.lwe_dimension), dtype=np.uint32
    ).view(np.int32)
    sample = LweCiphertext(mask, np.zeros(1, dtype=np.int32))
    profile = profile_gate(
        cloud_key, repetitions=2, warmup=1, inputs=(sample, sample)
    )
    assert profile.blind_rotation_ms > 0
    assert len(seen) == 3
    assert all(key is cloud_key.bootstrap_fft() for key in seen)
