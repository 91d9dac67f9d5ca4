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

import numpy as np

from ..gatetypes import CODE_ARITY
from ..hdl.netlist import Netlist
from .decoder import decode
from .encoding import (
    ENTRIES_PER_WORD,
    ENTRY_BITS,
    ENTRY_SHIFTS,
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
    encode_ext_field1,
    encode_words,
    table_data_words,
)


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
            n_data = table_data_words(len(entries))
            packed = np.zeros(n_data * ENTRIES_PER_WORD, dtype=np.int64)
            packed[: len(entries)] = entries
            fields = (
                packed.reshape(n_data, 2, len(ENTRY_SHIFTS)) << ENTRY_SHIFTS
            ).sum(axis=2)
            field0[pos], field1[pos] = table_id + 1, len(entries)
            data = slice(pos + 1, pos + 1 + n_data)
            field0[data], field1[data] = fields[:, 0], fields[:, 1]
            pos = data.stop
    return encode_words(field0, field1, nibble)


def disassemble(data: bytes, name: str = "binary") -> Netlist:
    """Parse a PyTFHE binary (format 0 or 1) back into a netlist.

    Raises :class:`ValueError`, naming the first defect by offset, on
    any stream :func:`~repro.isa.decoder.decode` does not find
    canonical, so every binary this accepts re-assembles to the same
    bytes.  A format-1 result has ``io=None``.
    """
    return decode(data).netlist(name)


def binary_size_bytes(netlist: Netlist) -> int:
    """Size of the assembled binary without materializing it."""
    words = 1 + netlist.num_inputs + netlist.num_gates + netlist.num_outputs
    for table in netlist.tables:
        words += 1 + table_data_words(len(table))
    return words * INSTRUCTION_BYTES
