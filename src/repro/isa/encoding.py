"""The PyTFHE binary instruction encoding (paper Fig. 5) — the one codec.

Every instruction is 128 bits, serialized little-endian:

* bits ``[3:0]``    — type nibble (gate type, or a marker),
* bits ``[65:4]``   — 62-bit field 1 (input-1 index / total gates /
  output gate index),
* bits ``[127:66]`` — 62-bit field 0 (input-0 index).

:func:`encode_words` / :func:`decode_words` convert whole streams
between bytes and ``(field0, field1, nibble)`` columns; every reader
and writer in the tree (assembler, disassembler, listing, stream
lints) goes through them.

**Format 0** (the paper's format; every boolean program):

* **header** — first instruction of every binary; field 1 holds the
  total number of gates, everything else 0.
* **input**  — all fields set to ones (marker nibble ``0xF``); the
  input's index is implied by its position, indices are assigned
  sequentially starting at 1 (Fig. 6 numbers input A as 1).
* **gate**   — field 0 / field 1 are the producing node indices of the
  two operands; the nibble is the :class:`~repro.gatetypes.Gate` code.
  Unused operands (NOT/BUF/CONST) carry the all-ones marker.
* **output** — field 0 all ones, nibble ``0x3``, field 1 names the node
  whose value is the output.

Decoding is unambiguous: a real operand index is always
``<= total nodes < 2**62 - 1``, so an all-ones field 0 can only mean an
input (nibble ``0xF``) or output (nibble ``0x3``) instruction.

**Format 1** is a strict superset, written only for circuits with a
digit wire, a multi-bit op or a table.  Boolean binaries spend only 14
of the 16 nibble codes on gates, and the two markers are only
unambiguous together with an all-ones field 0; format 1 claims the
*reserved combinations*:

* **header** — field 0 = ``1``, the format marker (format 0 carries 0).
* **input** — field 1 packs the wire's precision (``0`` = boolean, else
  the digit modulus ``p``) in the low 10 bits and the wire's declared
  value bound (the largest message the client contract may place on
  it) above — the bound is what keeps the MB001 interval analysis
  exact for grouped digits that carry fewer than ``log2(p)`` bits.
* **boolean gate**, **output** — unchanged.
* **multi-bit gate** — nibble ``0x3`` with a *real* operand in field 0
  (``in0 + 1``, never all-ones — which is what keeps output words
  unambiguous).  Field 1 packs, LSB first::

      [ 1: 0] subop        0=LIN 1=LUT 2=B2D 3=D2B
      [10: 2] precision    output modulus p (9 bits)
      [18:11] kx + 128     LIN x-coefficient (8 bits)
      [26:19] ky + 128     LIN y-coefficient (8 bits)
      [42:27] kconst + 2^15  LIN constant — or the table id for
                             LUT/B2D/D2B (16 bits)
      [61:43] in1 + 1      second operand, 0 = none (19 bits)

* **table segment** — after the outputs: per table one header word
  (nibble ``0xF``, field 0 = ``table_id + 1`` — a real value, never
  all-ones — field 1 = entry count) followed by data words (nibble
  ``0xF``, six 10-bit entries packed per field, twelve per word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..gatetypes import OP_LIN, Gate

INSTRUCTION_BYTES = 16
FIELD_BITS = 62
FIELD_ALL_ONES = (1 << FIELD_BITS) - 1
TYPE_MASK = 0xF
INPUT_MARKER = 0xF
OUTPUT_MARKER = 0x3
#: Nibble of a format-1 multi-bit gate word (with a real field 0).
EXT_MARKER = OUTPUT_MARKER

#: Largest node index representable (the paper's 2^62 gate ceiling).
MAX_NODE_INDEX = FIELD_ALL_ONES - 1

#: Field-0 value of a format-1 header word (format 0 carries 0).
MB_FORMAT_VERSION = 1
#: Precision slice of a format-1 input word's field 1.
INPUT_PREC_BITS = 10
#: Table entries are 10-bit, six per field, twelve per data word.
ENTRY_BITS = 10
ENTRIES_PER_WORD = 2 * (FIELD_BITS // ENTRY_BITS)

_PREC_BITS = 9
_COEFF_BITS = 8
_CONST_BITS = 16
_IN1_BITS = 19
_COEFF_BIAS = 1 << (_COEFF_BITS - 1)
_CONST_BIAS = 1 << (_CONST_BITS - 1)


# ----------------------------------------------------------------------
# The 128-bit word <-> (field0, field1, nibble)
# ----------------------------------------------------------------------
def encode_words(field0, field1, nibble) -> bytes:
    """Pack ``(field0, field1, nibble)`` columns into 128-bit words."""
    f0 = np.asarray(field0, dtype=np.uint64)
    f1 = np.asarray(field1, dtype=np.uint64)
    nib = np.asarray(nibble, dtype=np.uint64)
    if f0.size and max(int(f0.max()), int(f1.max())) > FIELD_ALL_ONES:
        raise ValueError("field out of 62-bit range")
    halves = np.empty((f0.size, 2), dtype="<u8")
    halves[:, 0] = (f1 << np.uint64(4)) | (nib & np.uint64(TYPE_MASK))
    halves[:, 1] = (f1 >> np.uint64(60)) | (f0 << np.uint64(2))
    return halves.tobytes()


def decode_words(data: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack a word stream into int64 ``(field0, field1, nibble)``."""
    if len(data) % INSTRUCTION_BYTES:
        raise ValueError(
            f"binary length {len(data)} is not a multiple of "
            f"{INSTRUCTION_BYTES} bytes"
        )
    halves = np.frombuffer(data, dtype="<u8").reshape(-1, 2)
    lo, hi = halves[:, 0], halves[:, 1]
    field1 = (lo >> np.uint64(4)) | ((hi & np.uint64(0x3)) << np.uint64(60))
    return (
        (hi >> np.uint64(2)).astype(np.int64),
        field1.astype(np.int64),
        (lo & np.uint64(TYPE_MASK)).astype(np.int64),
    )


def is_mb_binary(data: bytes) -> bool:
    """True when ``data`` starts with a format-1 header word."""
    if len(data) < INSTRUCTION_BYTES:
        return False
    field0, _, nibble = decode_words(data[:INSTRUCTION_BYTES])
    return nibble[0] == 0 and field0[0] == MB_FORMAT_VERSION


# ----------------------------------------------------------------------
# Format-1 multi-bit gate words: field 1 <-> the LIN/LUT columns
# ----------------------------------------------------------------------
#: Field 1 of a multi-bit gate word, LSB first: ``(label, bits)``.
_EXT_LAYOUT = (
    ("subop", 2),
    ("precision", _PREC_BITS),
    ("LIN coefficient kx", _COEFF_BITS),
    ("LIN coefficient ky", _COEFF_BITS),
    ("LIN constant / table id", _CONST_BITS),
    ("second operand", _IN1_BITS),
)
_EXT_WIDTHS = np.array([[bits] for _, bits in _EXT_LAYOUT], dtype=np.int64)
_EXT_SHIFTS = np.cumsum(_EXT_WIDTHS, axis=0) - _EXT_WIDTHS


def check_range(label: str, values: np.ndarray, lo: int, hi: int) -> None:
    """Raise unless every value fits the format-1 field ``[lo, hi)``."""
    if values.size and not (lo <= values.min() and values.max() < hi):
        raise ValueError(
            f"{label} outside the format-1 field range [{lo}, {hi}): "
            f"values span [{int(values.min())}, {int(values.max())}]"
        )


def encode_ext_field1(ops, prec, kx, ky, kconst, table_id, in1) -> np.ndarray:
    """Field 1 of multi-bit gate words from their netlist columns."""
    ops = np.asarray(ops, dtype=np.int64)
    fields = np.stack(
        (
            ops - OP_LIN,
            prec,
            np.asarray(kx, dtype=np.int64) + _COEFF_BIAS,
            np.asarray(ky, dtype=np.int64) + _COEFF_BIAS,
            np.where(ops == OP_LIN, kconst + _CONST_BIAS, table_id),
            np.asarray(in1, dtype=np.int64) + 1,
        )
    ).astype(np.int64)
    overflow = (fields < 0) | (fields >> _EXT_WIDTHS != 0)
    if overflow.any():
        row, at = (int(i[0]) for i in np.nonzero(overflow))
        label, bits = _EXT_LAYOUT[row]
        raise ValueError(
            f"{label} of multi-bit gate {at} does not fit its {bits}-bit "
            f"format-1 field (biased value {int(fields[row, at])})"
        )
    return np.bitwise_or.reduce(fields << _EXT_SHIFTS, axis=0)


def decode_ext_field1(field1: np.ndarray):
    """Inverse of :func:`encode_ext_field1`.

    Returns the ``(ops, prec, kx, ky, kconst, table_id, in1)`` columns;
    ``kconst`` is 0 on table ops and ``table_id`` -1 on LIN.
    """
    field1 = np.asarray(field1, dtype=np.int64)
    subop, prec, kx, ky, payload, in1 = (field1 >> _EXT_SHIFTS) & (
        (1 << _EXT_WIDTHS) - 1
    )
    ops = subop + OP_LIN
    is_lin = ops == OP_LIN
    return (
        ops,
        prec,
        kx - _COEFF_BIAS,
        ky - _COEFF_BIAS,
        np.where(is_lin, payload - _CONST_BIAS, 0),
        np.where(is_lin, -1, payload),
        in1 - 1,
    )


# ----------------------------------------------------------------------
# One-word helpers (the Fig. 5/6 conformance surface)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instruction:
    """One decoded 128-bit instruction."""

    kind: str  # "header" | "input" | "gate" | "output"
    gate: Optional[Gate] = None
    field0: int = 0
    field1: int = 0

    @property
    def total_gates(self) -> int:
        if self.kind != "header":
            raise TypeError("total_gates is only defined on headers")
        return self.field1

    @property
    def operands(self) -> "tuple[int, int]":
        if self.kind != "gate":
            raise TypeError("operands are only defined on gate instructions")
        return self.field0, self.field1

    @property
    def output_node(self) -> int:
        if self.kind != "output":
            raise TypeError("output_node is only defined on outputs")
        return self.field1


def encode_header(total_gates: int) -> bytes:
    if total_gates > MAX_NODE_INDEX:
        raise ValueError("too many gates for the 62-bit index space")
    return encode_words([0], [total_gates], [0])


def encode_input() -> bytes:
    return encode_words([FIELD_ALL_ONES], [FIELD_ALL_ONES], [INPUT_MARKER])


def encode_gate(gate: Gate, in0: Optional[int], in1: Optional[int]) -> bytes:
    for operand in (in0, in1):
        if operand is not None and not (0 <= operand <= MAX_NODE_INDEX):
            raise ValueError("operand index out of range")
    f0 = FIELD_ALL_ONES if in0 is None else in0
    f1 = FIELD_ALL_ONES if in1 is None else in1
    return encode_words([f0], [f1], [int(Gate(gate))])


def encode_output(node: int) -> bytes:
    if node > MAX_NODE_INDEX:
        raise ValueError("output index out of range")
    return encode_words([FIELD_ALL_ONES], [node], [OUTPUT_MARKER])


def decode_instruction(raw: bytes, is_first: bool = False) -> Instruction:
    if len(raw) != INSTRUCTION_BYTES:
        raise ValueError(f"instruction must be {INSTRUCTION_BYTES} bytes")
    field0, field1, nibble = (int(col[0]) for col in decode_words(raw))
    if is_first:
        if field0 != 0 or nibble != 0:
            raise ValueError("malformed header instruction")
        return Instruction(kind="header", field1=field1)
    if field0 == FIELD_ALL_ONES and nibble == INPUT_MARKER:
        return Instruction(kind="input", field0=field0, field1=field1)
    if field0 == FIELD_ALL_ONES and nibble == OUTPUT_MARKER:
        return Instruction(kind="output", field0=field0, field1=field1)
    try:
        gate = Gate(nibble)
    except ValueError as exc:
        raise ValueError(f"unknown gate nibble {nibble:#x}") from exc
    return Instruction(kind="gate", gate=gate, field0=field0, field1=field1)


def iter_instructions(data: bytes) -> Iterator[Instruction]:
    if len(data) % INSTRUCTION_BYTES:
        raise ValueError("binary length is not a multiple of 16 bytes")
    for offset in range(0, len(data), INSTRUCTION_BYTES):
        yield decode_instruction(
            data[offset : offset + INSTRUCTION_BYTES], is_first=offset == 0
        )
