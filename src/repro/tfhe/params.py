"""TFHE (CGGI) parameter sets.

Two parameter sets are shipped:

* :data:`TFHE_DEFAULT_128` mirrors the default gate-bootstrapping
  parameters of the TFHE library referenced by the paper (Section II-D
  chooses the defaults of the TFHE paper at a 128-bit security level).
* :data:`TFHE_TEST` keeps the entire pipeline identical but shrinks the
  lattice dimensions so whole circuits can be executed under real FHE
  inside the unit-test and example budget.  It provides **no** security
  and exists purely so correctness can be exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TFHEParameters:
    """A complete gate-bootstrapping parameter set.

    Attributes
    ----------
    name:
        Human-readable identifier.
    lwe_dimension:
        ``n`` — dimension of the small LWE samples carrying gate inputs
        and outputs.
    lwe_noise_std:
        Standard deviation (in torus units) of fresh LWE noise.
    tlwe_degree:
        ``N`` — degree of the negacyclic polynomial ring used during
        bootstrapping.  Must be a power of two.
    tlwe_k:
        ``k`` — number of mask polynomials per TLWE sample.
    tlwe_noise_std:
        Standard deviation of fresh TLWE/TGSW noise.
    bs_decomp_length:
        ``l`` — gadget decomposition length of the bootstrapping key.
    bs_decomp_log2_base:
        ``log2(Bg)`` — bit width of each gadget digit.
    ks_decomp_length:
        ``t`` — decomposition length of the key-switching key.
    ks_decomp_log2_base:
        ``log2(base)`` of the key-switching decomposition.
    security_bits:
        Claimed security level (informational; 0 for the test set).
    """

    name: str
    lwe_dimension: int
    lwe_noise_std: float
    tlwe_degree: int
    tlwe_k: int
    tlwe_noise_std: float
    bs_decomp_length: int
    bs_decomp_log2_base: int
    ks_decomp_length: int
    ks_decomp_log2_base: int
    security_bits: int

    def __post_init__(self) -> None:
        if self.tlwe_degree & (self.tlwe_degree - 1):
            raise ValueError("tlwe_degree must be a power of two")
        if self.bs_decomp_length * self.bs_decomp_log2_base > 32:
            raise ValueError("bootstrap decomposition exceeds 32 bits")
        if self.ks_decomp_length * self.ks_decomp_log2_base > 32:
            raise ValueError("key-switch decomposition exceeds 32 bits")

    @property
    def extracted_lwe_dimension(self) -> int:
        """Dimension of LWE samples extracted from a TLWE sample."""
        return self.tlwe_k * self.tlwe_degree

    @property
    def bs_base(self) -> int:
        return 1 << self.bs_decomp_log2_base

    @property
    def ks_base(self) -> int:
        return 1 << self.ks_decomp_log2_base

    @property
    def ciphertext_bytes(self) -> int:
        """Size of one LWE ciphertext in bytes (int32 coefficients).

        With the default parameters this is (630 + 1) * 4 = 2524 bytes,
        the ~2.46 KB figure the paper quotes for its communication
        overhead analysis (Fig. 7).
        """
        return 4 * (self.lwe_dimension + 1)


#: Default 128-bit-secure gate-bootstrapping parameters (paper Sec. II-D).
TFHE_DEFAULT_128 = TFHEParameters(
    name="tfhe-default-128",
    lwe_dimension=630,
    lwe_noise_std=2.0 ** -15,
    tlwe_degree=1024,
    tlwe_k=1,
    tlwe_noise_std=2.0 ** -25,
    bs_decomp_length=3,
    bs_decomp_log2_base=7,
    ks_decomp_length=8,
    ks_decomp_log2_base=2,
    security_bits=128,
)

#: Parameters sized for multi-bit programmable bootstrapping.
#:
#: The boolean defaults decide against a 1/8 torus margin; a p-ary
#: digit decides against half a slice, 1/(4p) — 8x tighter at p=16 —
#: so the ring degree doubles twice (finer 2N mod-switch grid) and the
#: key-switch target noise drops, keeping the worst LIN chain
#: (three bootstrapped operands at unit coefficients) above 6 sigma of
#: decision margin for p up to 16.  The static NB certification
#: (``repro.analyze.certify_noise``) enforces exactly this.
TFHE_MB_128 = TFHEParameters(
    name="tfhe-mb-128",
    lwe_dimension=1024,
    lwe_noise_std=2.0 ** -17,
    tlwe_degree=2048,
    tlwe_k=1,
    tlwe_noise_std=2.0 ** -32,
    bs_decomp_length=3,
    bs_decomp_log2_base=7,
    ks_decomp_length=8,
    ks_decomp_log2_base=2,
    security_bits=128,
)

#: Small, insecure parameters for fast functional testing.
TFHE_TEST = TFHEParameters(
    name="tfhe-test",
    lwe_dimension=32,
    lwe_noise_std=2.0 ** -15,
    tlwe_degree=256,
    tlwe_k=1,
    tlwe_noise_std=2.0 ** -24,
    bs_decomp_length=2,
    bs_decomp_log2_base=8,
    ks_decomp_length=8,
    ks_decomp_log2_base=2,
    security_bits=0,
)

PARAMETER_SETS = {
    p.name: p for p in (TFHE_DEFAULT_128, TFHE_MB_128, TFHE_TEST)
}
