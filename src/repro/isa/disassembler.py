"""Textual disassembly of PyTFHE binaries (objdump-style listing)."""

from __future__ import annotations

from ..gatetypes import OP_LIN, OP_SIGN, op_name
from .decoder import Instruction, decode
from .encoding import INSTRUCTION_BYTES, MB_FORMAT_VERSION


def _text(row: Instruction, fmt: int) -> str:
    """The listing text of one decoded row."""
    word = f".word {(row.field0 << 66) | (row.field1 << 4) | row.nibble:#034x}"
    if row.kind == "header":
        if row.nibble:
            return f"{word}  ; malformed header (nibble {row.nibble:#x})"
        if row.field0 not in (0, MB_FORMAT_VERSION):
            return f"{word}  ; unknown format marker {row.field0}"
        mb = "mb-format=1 " if row.field0 else ""
        return f"header  {mb}total_gates={row.field1}"
    if row.kind == "input" and fmt:
        kind = f"digit p={row.prec} bound={row.bound}" if row.prec else "bool"
        return f"input   {kind}"
    if row.kind == "gate" and row.gate is not None:
        a, b = ("-" if x is None else x for x in row.operands)
        return f"gate    {row.gate.name:6s} in0={a} in1={b}"
    if row.kind == "gate" and row.op == OP_SIGN:
        return f"gate    sign   in0={row.in0}"
    if row.kind == "gate" and row.op is not None:
        detail = f"p={row.prec} in0={row.in0}"
        if row.in1 is not None:
            detail += f" in1={row.in1}"
        if row.op == OP_LIN:
            detail += f" kx={row.kx} ky={row.ky} const={row.kconst}"
        else:
            detail += f" table={row.table_id}"
        return f"gate    {op_name(row.op).lower():6s} {detail}"
    if row.kind == "output":
        return f"output  node={row.field1}"
    if row.kind == "table":
        return f"table   id={row.field0 - 1} entries={row.field1}"
    if row.kind == "table-data":
        return f"table   data={(row.field0 << 62) | row.field1:#x}"
    if row.kind == "input":
        return "input"
    return (
        f"{word}  ; reserved nibble {row.nibble:#x} with operand field at "
        f"offset {row.offset:#x}"
    )


def format_program(data: bytes, max_rows: int = 0) -> str:
    """Human-readable listing of a PyTFHE binary; never raises.

    Each row shows the byte offset, the node index the instruction
    defines (inputs and gates are numbered sequentially from 1, as in
    paper Fig. 6; operands use the same numbers), and the decoded
    instruction.  A malformed header or a reserved nibble renders as a
    ``.word`` diagnostic line carrying the raw bits and the byte offset,
    so the surrounding context stays inspectable.  ``max_rows``
    truncates long programs (0 = unlimited).
    """
    stream = decode(data)
    total = len(stream.kind)
    lines = [
        f"{row.offset:#08x}  "
        f"[{str(row.node) if row.kind in ('input', 'gate') else '-':>6s}]  "
        f"{_text(row, stream.fmt)}"
        for row in stream.rows(max_rows or None)
    ]
    if max_rows and len(lines) >= max_rows:
        lines.append(f"... ({total} instructions total)")
    elif stream.size % INSTRUCTION_BYTES:
        lines.append(
            f"{total * INSTRUCTION_BYTES:#08x}  [     -]  .word ; truncated "
            f"instruction ({stream.size % INSTRUCTION_BYTES} trailing bytes)"
        )
    return "\n".join(lines)
