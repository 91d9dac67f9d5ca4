"""Logic synthesis passes (the augmented-Yosys stage of PyTFHE)."""

from .equivalence import (
    EquivalenceResult,
    check_equivalence,
)
from .passes import (
    dead_gate_elimination,
    optimize,
    reachable_mask,
    restrict_gate_set,
    structural_hash,
)

__all__ = [
    "EquivalenceResult",
    "check_equivalence",
    "dead_gate_elimination",
    "optimize",
    "reachable_mask",
    "restrict_gate_set",
    "structural_hash",
]
