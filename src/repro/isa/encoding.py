"""The PyTFHE binary instruction encoding (paper Fig. 5) — the one codec.

Every instruction is 128 bits, serialized little-endian:

* bits ``[3:0]``    — type nibble (gate type, or a marker),
* bits ``[65:4]``   — 62-bit field 1 (input-1 index / total gates /
  output gate index),
* bits ``[127:66]`` — 62-bit field 0 (input-0 index).

:func:`encode_words` / :func:`decode_words` convert whole streams
between bytes and ``(field0, field1, nibble)`` columns: the assembler
writes through the one, and the stream decoder
(:mod:`repro.isa.decoder`), which every reader is built on, reads
through the other.

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

  A cell's SIGN is the D2B subop with the all-ones table id (no table):
  the sign of its operand's phase.  A canonical word sets no field its
  op does not read: kx = ky = 0 on LUT/B2D/D2B/SIGN, and precision 0 on
  SIGN (the decoder flags the rest).  A cell's LIN is a precision-0 LIN.

* **table segment** — after the outputs: per table one header word
  (nibble ``0xF``, field 0 = ``table_id + 1`` — a real value, never
  all-ones — field 1 = entry count) followed by data words (nibble
  ``0xF``, six 10-bit entries packed per field, twelve per word).
"""

from __future__ import annotations

from typing import Optional, TypeVar

import numpy as np
from numpy.typing import ArrayLike

from ..gatetypes import OP_D2B, OP_LIN, OP_SIGN, Gate

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
#: Bit offset of each entry inside one 62-bit field.
ENTRY_SHIFTS = ENTRY_BITS * np.arange(ENTRIES_PER_WORD // 2, dtype=np.int64)

_Count = TypeVar("_Count", int, np.ndarray)
_U2, _U3, _U4, _U15, _U60 = (np.uint64(k) for k in (2, 3, 4, TYPE_MASK, 60))

_PREC_BITS = 9
_COEFF_BITS = 8
_CONST_BITS = 16
_IN1_BITS = 19
_COEFF_BIAS = 1 << (_COEFF_BITS - 1)
_CONST_BIAS = 1 << (_CONST_BITS - 1)
#: Subop and table-id field of a SIGN word: D2B with no table.
_SIGN_SUBOP = OP_D2B - OP_LIN
SIGN_TABLE_FIELD = (1 << _CONST_BITS) - 1


# ----------------------------------------------------------------------
# The 128-bit word <-> (field0, field1, nibble)
# ----------------------------------------------------------------------
def encode_words(field0: ArrayLike, field1: ArrayLike, nibble: ArrayLike) -> bytes:
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


def table_data_words(entries: _Count) -> _Count:
    """Data words a table of ``entries`` (>= 0) entries occupies."""
    return (entries + ENTRIES_PER_WORD - 1) // ENTRIES_PER_WORD


def decode_words(data: bytes) -> np.ndarray:
    """Unpack a word stream into the int64 rows ``(field0, field1, nibble)``."""
    if len(data) % INSTRUCTION_BYTES:
        raise ValueError(
            f"binary length {len(data)} is not a multiple of "
            f"{INSTRUCTION_BYTES} bytes"
        )
    lo, hi = np.frombuffer(data, dtype="<u8").reshape(-1, 2).T
    rows = np.empty((3, len(lo)), dtype=np.uint64)
    np.right_shift(hi, _U2, out=rows[0])
    np.right_shift(lo, _U4, out=rows[1])
    rows[1] |= (hi & _U3) << _U60
    np.bitwise_and(lo, _U15, out=rows[2])
    # Every field is below 2**62, so the int64 view is exact.
    return rows.view(np.int64)


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
_EXT_MASKS = (1 << _EXT_WIDTHS) - 1
#: The unpacked fields behind each decoded column (the payload is the
#: LIN constant and the table id), and the offsets that turn them into
#: op codes, signed coefficients and 0-based operands.
_EXT_ROWS = [0, 1, 2, 3, 4, 4, 5]
_EXT_OFFSETS = np.array(
    [[OP_LIN], [0], [-_COEFF_BIAS], [-_COEFF_BIAS], [-_CONST_BIAS], [0], [-1]]
)


def check_range(label: str, values: np.ndarray, lo: int, hi: int) -> None:
    """Raise unless every value fits the format-1 field ``[lo, hi)``."""
    if values.size and not (lo <= values.min() and values.max() < hi):
        raise ValueError(
            f"{label} outside the format-1 field range [{lo}, {hi}): "
            f"values span [{int(values.min())}, {int(values.max())}]"
        )


def encode_ext_field1(
    ops: ArrayLike,
    prec: np.ndarray,
    kx: ArrayLike,
    ky: ArrayLike,
    kconst: np.ndarray,
    table_id: np.ndarray,
    in1: ArrayLike,
) -> np.ndarray:
    """Field 1 of multi-bit gate words from their netlist columns."""
    ops = np.asarray(ops, dtype=np.int64)
    sign = ops == OP_SIGN
    fields = (
        np.where(sign, _SIGN_SUBOP, ops - OP_LIN),
        prec,
        np.asarray(kx, dtype=np.int64) + _COEFF_BIAS,
        np.asarray(ky, dtype=np.int64) + _COEFF_BIAS,
        np.where(
            ops == OP_LIN,
            kconst + _CONST_BIAS,
            np.where(sign, SIGN_TABLE_FIELD, table_id),
        ),
        np.asarray(in1, dtype=np.int64) + 1,
    )
    packed = np.zeros(len(ops), dtype=np.int64)
    for (label, bits), shift, field in zip(
        _EXT_LAYOUT, _EXT_SHIFTS[:, 0].tolist(), fields
    ):
        field = np.asarray(field, dtype=np.int64)
        if field.size and (field.min() < 0 or field.max() >> bits):
            at = int(np.argmax((field < 0) | (field >> bits != 0)))
            raise ValueError(
                f"{label} of multi-bit gate {at} does not fit its {bits}-bit "
                f"format-1 field (biased value {int(field[at])})"
            )
        packed |= field << shift
    return packed


def decode_ext_field1(field1: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_ext_field1`.

    Returns the ``(ops, prec, kx, ky, kconst, table_id, in1)`` columns
    as the rows of one array; ``kconst`` is 0 on table ops and SIGN, and
    ``table_id`` -1 on LIN and SIGN.
    """
    field1 = np.asarray(field1, dtype=np.int64)
    out = np.empty((7, field1.size), dtype=np.int64)
    for row, (field, offset) in enumerate(zip(_EXT_ROWS, _EXT_OFFSETS[:, 0])):
        np.right_shift(field1, int(_EXT_SHIFTS[field, 0]), out=out[row])
        out[row] &= int(_EXT_MASKS[field, 0])
        out[row] += int(offset)
    subop = out[0] - OP_LIN
    is_lin = subop == 0
    sign = (subop == _SIGN_SUBOP) & (out[5] == SIGN_TABLE_FIELD)
    out[4] *= is_lin
    out[0][sign] = OP_SIGN
    out[5][is_lin | sign] = -1
    return out


# ----------------------------------------------------------------------
# One-word encoders (the Fig. 5/6 conformance surface)
# ----------------------------------------------------------------------
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
