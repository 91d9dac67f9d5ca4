"""Combinational equivalence checking between netlists.

Synthesis passes must be semantics-preserving; this checker proves it
exhaustively for small input counts and falls back to dense random
vectors (plus structured corner patterns) for larger circuits.  Used
throughout the test suite and available to users validating their own
rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hdl.netlist import Netlist

#: Input counts up to this bound are checked exhaustively.
EXHAUSTIVE_LIMIT = 14


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    exhaustive: bool
    vectors_checked: int
    counterexample: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _check_vectors(n: int, random_trials: int, seed: int):
    """The shared vector plan: exhaustive when small, corners+random else."""
    if n == 0:
        return np.zeros((1, 0), dtype=bool), True
    if n <= EXHAUSTIVE_LIMIT:
        counts = np.arange(1 << n, dtype=np.uint64)
        vectors = (
            (counts[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        ).astype(bool)
        return vectors, True
    rng = np.random.default_rng(seed)
    random_part = rng.integers(0, 2, (random_trials, n)).astype(bool)
    return np.concatenate([_corner_vectors(n), random_part]), False


def check_equivalence(
    first: Netlist,
    second: Netlist,
    random_trials: int = 512,
    seed: int = 0,
) -> EquivalenceResult:
    """Compare two netlists over their shared input/output contract.

    ``second`` may be a synthesized multi-bit netlist; it is then
    evaluated through its synthesis I/O map (``evaluate_bits``), so both
    sides speak the *source* netlist's boolean bit contract and the
    rewrite is checked against the boolean oracle it came from.
    """
    if not second.is_multibit:
        shape = (second.num_inputs, second.num_outputs)
        evaluate = second.evaluate
    elif second.io is None:
        raise ValueError(
            "multi-bit netlist carries no I/O map (was it disassembled "
            "from a binary?); equivalence needs the synthesis bit "
            "packing contract"
        )
    else:
        shape = (second.io.num_source_inputs, second.io.num_source_outputs)
        evaluate = second.evaluate_bits
    if first.num_inputs != shape[0]:
        raise ValueError(
            f"input counts differ: {first.num_inputs} vs {shape[0]}"
        )
    if first.num_outputs != shape[1]:
        raise ValueError(
            f"output counts differ: {first.num_outputs} vs {shape[1]}"
        )
    vectors, exhaustive = _check_vectors(
        first.num_inputs, random_trials, seed
    )
    mismatches = np.any(first.evaluate(vectors) != evaluate(vectors), axis=1)
    if mismatches.any():
        index = int(np.argmax(mismatches))
        return EquivalenceResult(
            equivalent=False,
            exhaustive=exhaustive,
            vectors_checked=index + 1,
            counterexample=vectors[index],
        )
    return EquivalenceResult(
        equivalent=True, exhaustive=exhaustive, vectors_checked=len(vectors)
    )


def _corner_vectors(n: int) -> np.ndarray:
    """All-zeros, all-ones, one-hot, and one-cold patterns."""
    rows = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    for i in range(min(n, 64)):
        one_hot = np.zeros(n, dtype=bool)
        one_hot[i] = True
        rows.append(one_hot)
        rows.append(~one_hot)
    return np.stack(rows)
