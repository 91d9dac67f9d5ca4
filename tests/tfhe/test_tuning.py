"""Decomposition tuner tests — including a live FHE check that the
tuned parameters actually evaluate gates correctly."""

import dataclasses
import math

import numpy as np
import pytest

from repro.gatetypes import Gate
from repro.tfhe import (
    TFHE_DEFAULT_128,
    TFHE_TEST,
    decrypt_bits,
    encrypt_bits,
    evaluate_gates_batch,
    generate_keys,
)
from repro.tfhe.noise import gate_failure_probability
from repro.tfhe.tuning import (
    bootstrap_cost_units,
    sweep_candidates,
    tune_decomposition,
)


class TestCostModel:
    def test_cost_grows_with_decomposition_length(self):
        short = TFHE_TEST
        long = dataclasses.replace(
            TFHE_TEST, name="longer", bs_decomp_length=4, bs_decomp_log2_base=8
        )
        assert bootstrap_cost_units(long) > bootstrap_cost_units(short)

    def test_default_params_cost_above_test_params(self):
        assert bootstrap_cost_units(TFHE_DEFAULT_128) > bootstrap_cost_units(
            TFHE_TEST
        )


class TestTuner:
    def test_meets_failure_target(self):
        tuned = tune_decomposition(TFHE_TEST, target_log2_failure=-40)
        assert tuned.log2_failure <= -40
        assert (
            math.log2(gate_failure_probability(tuned.params))
            <= -40
        )

    def test_tuned_is_no_more_expensive_than_shipped(self):
        tuned = tune_decomposition(TFHE_TEST, target_log2_failure=-40)
        assert tuned.relative_cost <= bootstrap_cost_units(TFHE_TEST)

    def test_stricter_target_never_cheaper(self):
        loose = tune_decomposition(TFHE_TEST, target_log2_failure=-30)
        strict = tune_decomposition(TFHE_TEST, target_log2_failure=-80)
        assert strict.relative_cost >= loose.relative_cost

    def test_impossible_target_raises(self):
        with pytest.raises(ValueError):
            tune_decomposition(TFHE_TEST, target_log2_failure=-5000)

    def test_default_128_params_have_headroom(self):
        """The paper's parameter set meets a 2^-40 failure target with
        room to spare on the tuner's grid."""
        tuned = tune_decomposition(TFHE_DEFAULT_128, target_log2_failure=-40)
        assert tuned.relative_cost <= bootstrap_cost_units(TFHE_DEFAULT_128)

    def test_sweep_is_sorted_and_filtered(self):
        candidates = sweep_candidates(TFHE_TEST, target_log2_failure=-40)
        assert candidates
        costs = [c.relative_cost for c in candidates]
        assert costs == sorted(costs)
        assert all(c.log2_failure <= -40 for c in candidates)


class TestTunedParametersLive:
    def test_tuned_parameters_evaluate_gates_correctly(self):
        """Generate keys with the tuner's output and run real gates."""
        tuned = tune_decomposition(TFHE_TEST, target_log2_failure=-60)
        secret, cloud = generate_keys(tuned.params, seed=5)
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2, 8).astype(bool)
        b = rng.integers(0, 2, 8).astype(bool)
        ca = encrypt_bits(secret, a, rng)
        cb = encrypt_bits(secret, b, rng)
        out = evaluate_gates_batch(
            cloud, np.full(8, int(Gate.XOR)), ca, cb
        )
        assert np.array_equal(decrypt_bits(secret, out), a ^ b)
