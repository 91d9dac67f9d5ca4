"""Textual disassembly of PyTFHE binaries (objdump-style listing)."""

from __future__ import annotations

from typing import List

from ..gatetypes import Gate, op_name
from .encoding import (
    ENTRIES_PER_WORD,
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INPUT_PREC_BITS,
    INSTRUCTION_BYTES,
    MB_FORMAT_VERSION,
    OUTPUT_MARKER,
    decode_ext_field1,
    decode_words,
)


def _row(offset: int, index: str, text: str) -> str:
    return f"{offset:#08x}  [{index:>6s}]  {text}"


def format_program(data: bytes, max_rows: int = 0) -> str:
    """Human-readable listing of a PyTFHE binary (never raises mid-listing).

    Each row shows the byte offset, the node index the instruction
    defines (inputs and gates are numbered sequentially from 1, as in
    paper Fig. 6), and the decoded instruction.  Unknown or reserved
    type nibbles render as a ``.word`` diagnostic line carrying the raw
    bits and the byte offset — a corrupt word never aborts the listing,
    so the surrounding context stays inspectable.  Multi-bit binaries
    (format marker in the header's field 0) decode their extended gate
    words and table segments.  ``max_rows`` truncates long programs
    (0 = unlimited).
    """
    lines: List[str] = []
    next_index = 1
    is_mb = False
    table_data_left = 0
    total_words, remainder = divmod(len(data), INSTRUCTION_BYTES)
    listed = min(total_words, max_rows) if max_rows else total_words
    columns = decode_words(data[: listed * INSTRUCTION_BYTES])
    ext_columns = decode_ext_field1(columns[1])
    for position, (field0, field1, nibble) in enumerate(
        zip(*(col.tolist() for col in columns))
    ):
        offset = position * INSTRUCTION_BYTES
        word = (field0 << 66) | (field1 << 4) | nibble

        if position == 0:
            if nibble != 0:
                lines.append(
                    _row(
                        offset, "-",
                        f".word {word:#034x}  ; malformed header "
                        f"(nibble {nibble:#x})",
                    )
                )
            elif field0 == 0:
                lines.append(
                    _row(offset, "-", f"header  total_gates={field1}")
                )
            elif field0 == MB_FORMAT_VERSION:
                is_mb = True
                lines.append(
                    _row(
                        offset, "-",
                        f"header  mb-format=1 total_gates={field1}",
                    )
                )
            else:
                lines.append(
                    _row(
                        offset, "-",
                        f".word {word:#034x}  ; unknown format marker "
                        f"{field0}",
                    )
                )
        elif table_data_left > 0:
            table_data_left -= 1
            lines.append(
                _row(offset, "-", f"table   data={word >> 4:#x}")
            )
        elif nibble == INPUT_MARKER and field0 == FIELD_ALL_ONES:
            index = str(next_index)
            next_index += 1
            if is_mb and field1 != FIELD_ALL_ONES:
                in_prec = field1 & ((1 << INPUT_PREC_BITS) - 1)
                in_bound = field1 >> INPUT_PREC_BITS
                kind = (
                    "bool"
                    if in_prec == 0
                    else f"digit p={in_prec} bound={in_bound}"
                )
                lines.append(_row(offset, index, f"input   {kind}"))
            else:
                lines.append(_row(offset, index, "input"))
        elif nibble == INPUT_MARKER and is_mb:
            # Table segment header: field0 = id + 1, field1 = entries.
            entries = field1
            table_data_left = -(-entries // ENTRIES_PER_WORD)
            lines.append(
                _row(
                    offset, "-",
                    f"table   id={field0 - 1} entries={entries}",
                )
            )
        elif nibble == OUTPUT_MARKER and field0 == FIELD_ALL_ONES:
            lines.append(_row(offset, "-", f"output  node={field1}"))
        elif nibble == OUTPUT_MARKER and is_mb:
            code, prec, kx, ky, kconst, table_id, in1 = (
                int(col[position]) for col in ext_columns
            )
            index = str(next_index)
            next_index += 1
            name = op_name(code).lower()
            detail = f"p={prec} in0={field0 - 1}"
            if in1 >= 0:
                detail += f" in1={in1}"
            if name == "lin":
                detail += f" kx={kx} ky={ky} const={kconst}"
            else:
                detail += f" table={table_id}"
            lines.append(_row(offset, index, f"gate    {name:6s} {detail}"))
        elif nibble in (OUTPUT_MARKER, INPUT_MARKER):
            # Reserved combination in a boolean binary: diagnose, move on.
            lines.append(
                _row(
                    offset, "-",
                    f".word {word:#034x}  ; reserved nibble "
                    f"{nibble:#x} with operand field at offset "
                    f"{offset:#x}",
                )
            )
        else:
            try:
                gate = Gate(nibble)
            except ValueError:
                lines.append(
                    _row(
                        offset, "-",
                        f".word {word:#034x}  ; unknown gate nibble "
                        f"{nibble:#x} at offset {offset:#x}",
                    )
                )
            else:
                index = str(next_index)
                next_index += 1
                name = gate.name
                a = "-" if field0 == FIELD_ALL_ONES else str(field0)
                b = "-" if field1 == FIELD_ALL_ONES else str(field1)
                lines.append(
                    _row(
                        offset, index,
                        f"gate    {name:6s} in0={a} in1={b}",
                    )
                )
        if max_rows and len(lines) >= max_rows:
            lines.append(f"... ({total_words} instructions total)")
            return "\n".join(lines)
    if remainder:
        lines.append(
            _row(
                total_words * INSTRUCTION_BYTES, "-",
                f".word ; truncated instruction ({remainder} trailing "
                "bytes)",
            )
        )
    return "\n".join(lines)
