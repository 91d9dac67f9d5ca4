"""Gate vocabulary shared by every layer of the PyTFHE stack.

The paper's binary format encodes each gate type in a 4-bit nibble
(Fig. 5) and states that eleven boolean gate types are supported.  The
only code the paper pins down is XOR = ``0b0110`` (Fig. 6); the other
codes are assigned here.  Nibbles ``0xF`` and ``0x3`` are reserved as
the *input* and *output* instruction markers (Fig. 5) and are therefore
never used as gate codes.

This module sits below every other layer on purpose: the synthesizer,
the assembler, the TFHE gate library, and every backend all import
their gate vocabulary from here.  Per-code facts (arity, bootstrap
class, truth table) are defined once, in :data:`_OP_SPEC`, and read
either per code (``Gate.arity``, :func:`op_arity`, ...) or wholesale as
the numpy lookup tables :data:`CODE_ARITY` / :data:`CODE_BOOTSTRAPS` /
:data:`KNOWN_CODE` / :data:`CODE_TRUTH` the array code indexes with an
``ops`` column.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Tuple

import numpy as np

#: Placeholder for an unused gate input operand.
NO_INPUT = -1


class Gate(enum.IntEnum):
    """Boolean gate types understood by the PyTFHE ISA.

    Values are the 4-bit encodings used in gate instructions.  ``0x3``
    and ``0xF`` are reserved instruction markers and intentionally
    absent.
    """

    AND = 0x0
    NAND = 0x1
    OR = 0x2
    NOR = 0x4
    BUF = 0x5
    XOR = 0x6  # pinned by Fig. 6 of the paper
    XNOR = 0x7
    NOT = 0x8
    ANDNY = 0x9  # (NOT a) AND b
    ANDYN = 0xA  # a AND (NOT b)
    ORNY = 0xB  # (NOT a) OR b
    ORYN = 0xC  # a OR (NOT b)
    CONST0 = 0xD
    CONST1 = 0xE

    @property
    def arity(self) -> int:
        """Number of gate inputs consumed (0, 1, or 2)."""
        return _OP_SPEC[self][0]

    @property
    def is_constant(self) -> bool:
        return self in (Gate.CONST0, Gate.CONST1)

    @property
    def needs_bootstrap(self) -> bool:
        """Whether homomorphic evaluation requires a bootstrapping.

        NOT, BUF, and the constants are evaluated on a ciphertext by
        cheap linear operations (negation / copy / trivial sample) and
        never bootstrap, which is why backends treat them as free.
        """
        return _OP_SPEC[self][1]


# ---------------------------------------------------------------------------
# Multi-bit op codes (the mblut subsystem)
# ---------------------------------------------------------------------------
# The multi-bit LUT path extends the op vocabulary past the 4-bit gate
# nibble.  These codes appear in a netlist's ``ops`` column next to the
# gate codes (and, re-encoded, in the ext instructions of format-1
# binaries); they are deliberately outside [0, 16) so no gate nibble can
# be confused with them.

#: Leveled linear combination: ``kx*in0 + ky*in1 + const`` on p-ary
#: digit encodings.  Free (no bootstrap) — torus adds and integer scales.
OP_LIN = 0x10
#: Programmable bootstrap through a lookup table: ``table[in0]``.
OP_LUT = 0x11
#: Boolean-to-digit bridge bootstrap: gate-encoded bit -> digit encoding
#: (table has two entries: the digit values for bit 0 / bit 1).
OP_B2D = 0x12
#: Digit-to-boolean bridge bootstrap: digit -> gate-encoded bit
#: (table has one 0/1 entry per input slice).
OP_D2B = 0x13
#: Sign bootstrap of a gate-encoded phase: the one bootstrap of a
#: one-bootstrap cell (MAJ3, XOR3), whose operand is a LIN chain over
#: bit wires.  Its output is the bit ``phase in (0, 1/2)``.
OP_SIGN = 0x14

#: All multi-bit op codes.
MB_OPS = frozenset((OP_LIN, OP_LUT, OP_B2D, OP_D2B))
#: The ops of a one-bootstrap cell (LIN on bit wires, then SIGN).
CELL_OPS = (OP_LIN, OP_SIGN)
#: Multi-bit ops that blind-rotate a serialized table.
TABLE_OPS = (OP_LUT, OP_B2D, OP_D2B)

#: ``code -> (arity, bootstraps)`` for the whole op vocabulary.  NOT,
#: BUF, the constants and LIN are cheap linear operations on a
#: ciphertext, which is why backends treat them as free.  LIN is
#: nominally binary but tolerates a missing second operand (``ky`` is
#: ignored then).
_OP_SPEC: Dict[int, Tuple[int, bool]] = {
    Gate.AND: (2, True),
    Gate.NAND: (2, True),
    Gate.OR: (2, True),
    Gate.NOR: (2, True),
    Gate.BUF: (1, False),
    Gate.XOR: (2, True),
    Gate.XNOR: (2, True),
    Gate.NOT: (1, False),
    Gate.ANDNY: (2, True),
    Gate.ANDYN: (2, True),
    Gate.ORNY: (2, True),
    Gate.ORYN: (2, True),
    Gate.CONST0: (0, False),
    Gate.CONST1: (0, False),
    OP_LIN: (2, False),
    OP_LUT: (1, True),
    OP_B2D: (1, True),
    OP_D2B: (1, True),
    OP_SIGN: (1, True),
}
_MB_NAMES = {
    OP_LIN: "LIN", OP_LUT: "LUT", OP_B2D: "B2D", OP_D2B: "D2B",
    OP_SIGN: "SIGN",
}

#: Size of the lookup tables below (one past the largest op code).
NUM_CODES = max(_OP_SPEC) + 1
#: Arity placeholder for op codes outside the vocabulary.
UNKNOWN_ARITY = -1

#: ``KNOWN_CODE[code]`` — the code is a gate or a multi-bit op.
KNOWN_CODE = np.zeros(NUM_CODES, dtype=bool)
#: ``CODE_ARITY[code]`` — operands read; :data:`UNKNOWN_ARITY` if unknown.
CODE_ARITY = np.full(NUM_CODES, UNKNOWN_ARITY, dtype=np.int8)
#: ``CODE_BOOTSTRAPS[code]`` — homomorphic evaluation bootstraps.
CODE_BOOTSTRAPS = np.zeros(NUM_CODES, dtype=bool)
for _code, (_arity, _bootstraps) in _OP_SPEC.items():
    KNOWN_CODE[_code] = True
    CODE_ARITY[_code] = _arity
    CODE_BOOTSTRAPS[_code] = _bootstraps
#: ``CODE_USES_TABLE[code]`` — the op is one of :data:`TABLE_OPS`.
CODE_USES_TABLE = np.zeros(NUM_CODES, dtype=bool)
CODE_USES_TABLE[list(TABLE_OPS)] = True

#: The eleven bootstrapped boolean gates of the paper (Section IV-C).
BOOTSTRAPPED_GATES = tuple(g for g in Gate if g.needs_bootstrap)

#: All two-input gate types.
TWO_INPUT_GATES = tuple(g for g in Gate if g.arity == 2)

_TRUTH: Dict[Gate, Callable[[int, int], int]] = {
    Gate.AND: lambda a, b: a & b,
    Gate.NAND: lambda a, b: 1 - (a & b),
    Gate.OR: lambda a, b: a | b,
    Gate.NOR: lambda a, b: 1 - (a | b),
    Gate.BUF: lambda a, b: a,
    Gate.XOR: lambda a, b: a ^ b,
    Gate.XNOR: lambda a, b: 1 - (a ^ b),
    Gate.NOT: lambda a, b: 1 - a,
    Gate.ANDNY: lambda a, b: (1 - a) & b,
    Gate.ANDYN: lambda a, b: a & (1 - b),
    Gate.ORNY: lambda a, b: (1 - a) | b,
    Gate.ORYN: lambda a, b: a | (1 - b),
    Gate.CONST0: lambda a, b: 0,
    Gate.CONST1: lambda a, b: 1,
}


def evaluate_plain(gate: Gate, a: int = 0, b: int = 0) -> int:
    """Evaluate ``gate`` on plaintext bits (0/1).

    Works elementwise on numpy integer arrays as well, because every
    truth function is expressed with ``&``, ``|``, ``^`` and integer
    subtraction.
    """
    return _TRUTH[gate](a, b)


#: ``CODE_TRUTH[code]`` — the gate's truth table, bit ``2*a + b`` holding
#: its output on ``(a, b)``; 0 for the multi-bit ops.
CODE_TRUTH = np.zeros(NUM_CODES, dtype=np.int64)
for _gate, _fn in _TRUTH.items():
    CODE_TRUTH[_gate] = sum(
        _fn(a, b) << (2 * a + b) for a in (0, 1) for b in (0, 1)
    )


#: ``CODE_LINEAR_FORM[code] = (ka, kb, eighths)`` for every bootstrapped
#: op: it decides the sign of ``ka*in0 + kb*in1 + eighths/8`` over its
#: operands' ``±1/8`` phases.  A table op (LUT/B2D/D2B) and a cell's SIGN
#: rotate their one operand as is: ``(1, 0, 0)``.
CODE_LINEAR_FORM = np.zeros((NUM_CODES, 3), dtype=np.int64)
CODE_LINEAR_FORM[[*TABLE_OPS, OP_SIGN]] = (1, 0, 0)
CODE_LINEAR_FORM[
    [Gate.AND, Gate.NAND, Gate.OR, Gate.NOR, Gate.XOR, Gate.XNOR,
     Gate.ANDNY, Gate.ANDYN, Gate.ORNY, Gate.ORYN]
] = [
    (1, 1, -1), (-1, -1, 1), (1, 1, 1), (-1, -1, -1), (2, 2, 2),
    (-2, -2, -2), (-1, 1, -1), (1, -1, -1), (-1, 1, 1), (1, -1, 1),
]


#: Gate obtained by complementing the *output* of each gate.
COMPLEMENT: Dict[Gate, Gate] = {
    Gate.AND: Gate.NAND,
    Gate.NAND: Gate.AND,
    Gate.OR: Gate.NOR,
    Gate.NOR: Gate.OR,
    Gate.XOR: Gate.XNOR,
    Gate.XNOR: Gate.XOR,
    Gate.BUF: Gate.NOT,
    Gate.NOT: Gate.BUF,
    Gate.ANDNY: Gate.ORYN,
    Gate.ANDYN: Gate.ORNY,
    Gate.ORNY: Gate.ANDYN,
    Gate.ORYN: Gate.ANDNY,
    Gate.CONST0: Gate.CONST1,
    Gate.CONST1: Gate.CONST0,
}

#: Gate obtained by complementing the *first input* of a two-input gate.
INVERT_A: Dict[Gate, Gate] = {
    Gate.AND: Gate.ANDNY,
    Gate.ANDNY: Gate.AND,
    Gate.ANDYN: Gate.NOR,
    Gate.NAND: Gate.ORYN,
    Gate.OR: Gate.ORNY,
    Gate.ORNY: Gate.OR,
    Gate.ORYN: Gate.NAND,
    Gate.NOR: Gate.ANDYN,
    Gate.XOR: Gate.XNOR,
    Gate.XNOR: Gate.XOR,
}

#: Gate obtained by complementing the *second input* of a two-input gate.
INVERT_B: Dict[Gate, Gate] = {
    Gate.AND: Gate.ANDYN,
    Gate.ANDYN: Gate.AND,
    Gate.ANDNY: Gate.NOR,
    Gate.NAND: Gate.ORNY,
    Gate.OR: Gate.ORYN,
    Gate.ORYN: Gate.OR,
    Gate.ORNY: Gate.NAND,
    Gate.NOR: Gate.ANDNY,
    Gate.XOR: Gate.XNOR,
    Gate.XNOR: Gate.XOR,
}

#: Gate obtained by swapping the two inputs.
SWAP: Dict[Gate, Gate] = {
    Gate.AND: Gate.AND,
    Gate.NAND: Gate.NAND,
    Gate.OR: Gate.OR,
    Gate.NOR: Gate.NOR,
    Gate.XOR: Gate.XOR,
    Gate.XNOR: Gate.XNOR,
    Gate.ANDNY: Gate.ANDYN,
    Gate.ANDYN: Gate.ANDNY,
    Gate.ORNY: Gate.ORYN,
    Gate.ORYN: Gate.ORNY,
}

#: Symmetric (commutative) two-input gates.
COMMUTATIVE = frozenset(
    (Gate.AND, Gate.NAND, Gate.OR, Gate.NOR, Gate.XOR, Gate.XNOR)
)


def _spec(code: int) -> Tuple[int, bool]:
    try:
        return _OP_SPEC[code]
    except KeyError:
        raise ValueError(f"{code:#x} is not a valid op code") from None


def op_arity(code: int) -> int:
    """Arity of any op code — boolean gate or multi-bit op."""
    return _spec(code)[0]


def op_needs_bootstrap(code: int) -> bool:
    """Whether homomorphic evaluation of ``code`` bootstraps.

    LIN is the one free multi-bit op; LUT/B2D/D2B all blind-rotate.
    """
    return _spec(code)[1]


def op_name(code: int) -> str:
    """Display name of any op code (``Gate`` name or LIN/LUT/B2D/D2B)."""
    if code in _MB_NAMES:
        return _MB_NAMES[code]
    try:
        return Gate(code).name
    except ValueError:
        return f"OP_{code:#x}"
