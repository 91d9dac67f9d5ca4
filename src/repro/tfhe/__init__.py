"""Pure-Python implementation of the TFHE (CGGI) scheme.

This subpackage replaces the C++ TFHE library the paper binds through
pybind11: torus arithmetic, LWE/TLWE/TGSW samples, FFT-based blind
rotation, programmable bootstrapping, key switching, and the eleven
bootstrapped boolean gates, with batched (SIMD-style) evaluation.
"""

from .client import decrypt_bits, encrypt_bits
from .gates import (
    MU_GATE,
    bootstrap_binary,
    evaluate_gate,
    evaluate_gates_batch,
    evaluate_mux,
    trivial_bit,
)
from .keys import CloudKey, SecretKey, generate_keys
from .lut import (
    IntegerEncoding,
    LutTableError,
    apply_lut,
    decrypt_int,
    encrypt_int,
    lut_test_polynomial,
    multiply_table,
    programmable_bootstrap,
    relu_table,
    square_table,
    validate_table,
)
from .lwe import LweCiphertext, lwe_decrypt_bit, lwe_encrypt, lwe_phase, lwe_trivial
from .noise import (
    GateNoiseBudget,
    bootstrap_output_variance,
    gate_failure_probability,
    measure_bootstrap_noise_std,
)
from .params import (
    PARAMETER_SETS,
    TFHE_DEFAULT_128,
    TFHE_TEST,
    TFHEParameters,
)

__all__ = [
    "GateNoiseBudget",
    "IntegerEncoding",
    "LutTableError",
    "apply_lut",
    "lut_test_polynomial",
    "programmable_bootstrap",
    "validate_table",
    "bootstrap_output_variance",
    "decrypt_int",
    "encrypt_int",
    "gate_failure_probability",
    "measure_bootstrap_noise_std",
    "multiply_table",
    "relu_table",
    "square_table",
    "CloudKey",
    "LweCiphertext",
    "MU_GATE",
    "PARAMETER_SETS",
    "SecretKey",
    "TFHEParameters",
    "TFHE_DEFAULT_128",
    "TFHE_TEST",
    "bootstrap_binary",
    "decrypt_bits",
    "encrypt_bits",
    "evaluate_gate",
    "evaluate_gates_batch",
    "evaluate_mux",
    "generate_keys",
    "lwe_decrypt_bit",
    "lwe_encrypt",
    "lwe_phase",
    "lwe_trivial",
    "trivial_bit",
]
