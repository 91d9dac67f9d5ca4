"""Assembler / disassembler between netlists and PyTFHE binaries.

Node numbering follows paper Fig. 6: inputs take indices
``1 .. num_inputs`` in declaration order, gates continue from
``num_inputs + 1`` in topological order.  (Internally netlists are
0-based; the +1 shift exists only in the serialized form.)

The binary *is* the serialized circuit: everything a backend or a
worker needs to execute a program round-trips through
:func:`assemble` / :func:`disassemble`.  The client-side I/O map of a
synthesized multi-bit netlist is deliberately *not* serialized — the
server only ever needs wire semantics; bit packing is the client's
contract (keeping the binary free of plaintext structure hints).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..gatetypes import CODE_ARITY, KNOWN_CODE, NO_INPUT
from ..hdl.netlist import Netlist
from .encoding import (
    ENTRIES_PER_WORD,
    ENTRY_BITS,
    EXT_MARKER,
    FIELD_ALL_ONES,
    FIELD_BITS,
    INPUT_MARKER,
    INPUT_PREC_BITS,
    INSTRUCTION_BYTES,
    MAX_NODE_INDEX,
    MB_FORMAT_VERSION,
    OUTPUT_MARKER,
    TYPE_MASK,
    check_range,
    decode_ext_field1,
    decode_words,
    encode_ext_field1,
    encode_words,
)

_ENTRIES_PER_FIELD = ENTRIES_PER_WORD // 2
_ENTRY_SHIFTS = ENTRY_BITS * np.arange(_ENTRIES_PER_FIELD, dtype=np.int64)
_MAX_ENTRY = (1 << ENTRY_BITS) - 1


def _table_data_words(entries: int) -> int:
    return -(-entries // ENTRIES_PER_WORD)


def assemble(netlist: Netlist) -> bytes:
    """Serialize a netlist into the PyTFHE binary format.

    A netlist with a digit wire, a multi-bit op or a table is written
    in format 1; a plain boolean netlist produces the paper's format-0
    stream, byte for byte.
    """
    if netlist.num_nodes > MAX_NODE_INDEX:
        raise ValueError("too many gates for the 62-bit index space")
    mb = netlist.is_multibit
    total = binary_size_bytes(netlist) // INSTRUCTION_BYTES
    inputs = slice(1, 1 + netlist.num_inputs)
    gates = slice(inputs.stop, inputs.stop + netlist.num_gates)
    outputs = slice(gates.stop, gates.stop + netlist.num_outputs)
    # Input and output words keep the all-ones marker in field 0, and
    # format-0 input words in field 1 too.
    field0 = np.full(total, FIELD_ALL_ONES, dtype=np.int64)
    field1 = np.full(total, FIELD_ALL_ONES, dtype=np.int64)
    nibble = np.full(total, INPUT_MARKER, dtype=np.int64)
    field0[0], field1[0], nibble[0] = (
        MB_FORMAT_VERSION if mb else 0, netlist.num_gates, 0,
    )

    ops = netlist.ops.astype(np.int64)
    arity = CODE_ARITY[ops]
    field0[gates] = np.where(arity >= 1, netlist.in0 + 1, FIELD_ALL_ONES)
    field1[gates] = np.where(arity == 2, netlist.in1 + 1, FIELD_ALL_ONES)
    nibble[gates] = ops
    field1[outputs] = netlist.outputs + 1
    nibble[outputs] = OUTPUT_MARKER
    if mb:
        in_prec = netlist.input_prec.astype(np.int64)
        check_range("input precision", in_prec, 0, 1 << INPUT_PREC_BITS)
        check_range(
            "input bound", netlist.input_bound, 0,
            1 << (FIELD_BITS - INPUT_PREC_BITS),
        )
        field1[inputs] = in_prec | (netlist.input_bound << INPUT_PREC_BITS)
        ext = np.nonzero(ops > TYPE_MASK)[0]
        field1[gates.start + ext] = encode_ext_field1(
            ops[ext],
            netlist.prec[ext],
            netlist.kx[ext],
            netlist.ky[ext],
            netlist.kconst[ext],
            netlist.table_id[ext],
            netlist.in1[ext],
        )
        nibble[gates.start + ext] = EXT_MARKER
        pos = outputs.stop
        for table_id, entries in enumerate(netlist.tables):
            check_range(f"table {table_id} entry", entries, 0, 1 << ENTRY_BITS)
            n_data = _table_data_words(len(entries))
            packed = np.zeros(n_data * ENTRIES_PER_WORD, dtype=np.int64)
            packed[: len(entries)] = entries
            fields = (
                packed.reshape(n_data, 2, _ENTRIES_PER_FIELD) << _ENTRY_SHIFTS
            ).sum(axis=2)
            field0[pos], field1[pos] = table_id + 1, len(entries)
            data = slice(pos + 1, pos + 1 + n_data)
            field0[data], field1[data] = fields[:, 0], fields[:, 1]
            pos = data.stop
    return encode_words(field0, field1, nibble)


def disassemble(data: bytes, name: str = "binary") -> Netlist:
    """Parse a PyTFHE binary (format 0 or 1) back into a netlist.

    Raises :class:`ValueError` on anything that is not a well-formed
    program: a bad header, a word out of section order, a truncated
    table, a gate count that disagrees with the header, or operands the
    :class:`Netlist` constructor rejects.  A format-1 result has
    ``io=None``: the bit-packing contract stays with the client that
    synthesized the program.
    """
    field0, field1, nibble = decode_words(data)
    if not len(nibble) or nibble[0] != 0 or field0[0] not in (
        0, MB_FORMAT_VERSION,
    ):
        raise ValueError("binary does not start with a header instruction")
    mb = bool(field0[0] == MB_FORMAT_VERSION)

    # Section of each word, in the order sections must appear:
    # 0 header, 1 inputs, 2 gates, 3 outputs, 4 table segment (format 1).
    marked = field0 == FIELD_ALL_ONES
    section = np.full(len(nibble), 2)
    section[marked & (nibble == INPUT_MARKER)] = 1
    section[marked & (nibble == OUTPUT_MARKER)] = 3
    section[0] = 0
    if mb:
        table_words = np.nonzero(~marked & (nibble == INPUT_MARKER))[0]
        if table_words.size:
            section[table_words[0] :] = 4
    disorder = np.nonzero(section[1:] < section[:-1])[0]
    if disorder.size:
        at = int(disorder[0]) + 1
        kind = ("header", "input", "gate", "output")[int(section[at])]
        raise ValueError(
            f"{kind} instruction at offset {at * INSTRUCTION_BYTES:#x} is "
            "out of section order (inputs, gates, outputs, tables)"
        )
    first_gate, first_output, first_table = np.searchsorted(
        section, (2, 3, 4)
    ).tolist()
    gates = slice(first_gate, first_output)
    outputs = slice(first_output, first_table)

    ops = nibble[gates].copy()
    ext = ops == EXT_MARKER if mb else np.zeros(len(ops), dtype=bool)
    unknown = ~ext & ~KNOWN_CODE[ops]
    if unknown.any():
        at = int(np.argmax(unknown))
        raise ValueError(
            f"unknown gate nibble {int(ops[at]):#x} at offset "
            f"{(first_gate + at) * INSTRUCTION_BYTES:#x}"
        )
    if len(ops) != field1[0]:
        raise ValueError(
            f"header claims {int(field1[0])} gates, binary holds {len(ops)}"
        )
    in0 = np.where(marked[gates], NO_INPUT, field0[gates] - 1)
    in1 = np.where(
        field1[gates] == FIELD_ALL_ONES, NO_INPUT, field1[gates] - 1
    )
    columns = {}
    if mb:
        decoded = dict(
            zip(
                ("ops", "prec", "kx", "ky", "kconst", "table_id", "in1"),
                decode_ext_field1(field1[gates][ext]),
            )
        )
        ops[ext], in1[ext] = decoded.pop("ops"), decoded.pop("in1")
        for label, values in decoded.items():
            column = np.full(len(ops), -1 if label == "table_id" else 0)
            column[ext] = values
            columns[label] = column
        input_words = field1[1:first_gate]
        columns["input_prec"] = input_words & ((1 << INPUT_PREC_BITS) - 1)
        columns["input_bound"] = input_words >> INPUT_PREC_BITS
        columns["tables"] = _parse_tables(
            field0, field1, nibble, first_table
        )
    return Netlist(
        num_inputs=first_gate - 1,
        ops=ops,
        in0=in0,
        in1=in1,
        outputs=field1[outputs] - 1,
        name=name,
        **columns,
    )


def _parse_tables(field0, field1, nibble, pos: int) -> List[np.ndarray]:
    """The table segment from word ``pos`` on: per table a header word
    plus packed entry words."""
    tables: List[np.ndarray] = []
    while pos < len(nibble):
        offset = pos * INSTRUCTION_BYTES
        tid, count = int(field0[pos]) - 1, int(field1[pos])
        if nibble[pos] != INPUT_MARKER or field0[pos] == FIELD_ALL_ONES:
            raise ValueError(
                f"non-table word at offset {offset:#x} after tables began"
            )
        if tid != len(tables):
            raise ValueError(
                f"table segment at offset {offset:#x} declares id "
                f"{tid}, expected {len(tables)}"
            )
        n_data = _table_data_words(count)
        body = slice(pos + 1, pos + 1 + n_data)
        if body.stop > len(nibble):
            raise ValueError(
                f"table {tid} at offset {offset:#x} is truncated: "
                f"{count} entries need {n_data} data words, the binary "
                f"holds {len(nibble) - pos - 1}"
            )
        stray = nibble[body] != INPUT_MARKER
        if stray.any():
            word = int(np.argmax(stray))
            raise ValueError(
                f"table {tid} data word {word} has nibble "
                f"{int(nibble[body][word]):#x}"
            )
        entries = np.concatenate(
            (
                field0[body, None] >> _ENTRY_SHIFTS,
                field1[body, None] >> _ENTRY_SHIFTS,
            ),
            axis=1,
        )
        tables.append((entries & _MAX_ENTRY).reshape(-1)[:count])
        pos = body.stop
    return tables


def binary_size_bytes(netlist: Netlist) -> int:
    """Size of the assembled binary without materializing it."""
    words = 1 + netlist.num_inputs + netlist.num_gates + netlist.num_outputs
    for table in netlist.tables:
        words += 1 + _table_data_words(len(table))
    return words * INSTRUCTION_BYTES
