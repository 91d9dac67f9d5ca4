"""Multi-bit program analysis (the ``MB`` rule family).

Netlists with digit wires share the analyzer's flat-array machinery —
the hazard replay, the noise certification and the cost certification
run unchanged over the whole op vocabulary — but two things are
genuinely new:

* **MB001** — interval analysis over leveled LIN chains: a digit
  wire whose static message range escapes ``[0, p-1]`` wraps the
  half-torus encoding and every downstream LUT reads the wrong slice.
* **MB002** — table/precision coherence: each programmable-bootstrap
  table must have exactly ``p_in`` entries for its operand's modulus,
  entries inside the output modulus, and a resolvable table id.

:func:`~repro.analyze.analyze_netlist` runs these families on any
netlist whose columns carry a digit wire or a table;
:func:`check_program_mb` is the lenient format-1 stream lint
``check_program`` delegates to.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..gatetypes import (
    NO_INPUT,
    OP_B2D,
    OP_D2B,
    OP_LIN,
    TABLE_OPS,
    Gate,
    op_name,
)
from ..hdl.netlist import Netlist
from ..isa.encoding import (
    ENTRIES_PER_WORD,
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INSTRUCTION_BYTES,
    MB_FORMAT_VERSION,
    OUTPUT_MARKER,
    decode_ext_field1,
    decode_words,
)
from .findings import Collector
from .rules import RULES


# ======================================================================
# MB001 / MB002 — netlist-level multi-bit coherence
# ======================================================================
def mb_value_ranges(
    netlist: Netlist,
) -> Tuple[np.ndarray, np.ndarray]:
    """Static per-node message range ``(lo, hi)`` (interval analysis).

    Boolean wires span [0, 1]; digit inputs span their declared
    ``input_bound`` (the client contract — a grouped ``w``-bit digit
    only ever carries messages up to ``2^w - 1``, not ``p - 1``); LIN
    propagates interval arithmetic; table ops span their entry range.
    The MB001 check compares these against each wire's modulus.
    """
    n_in = netlist.num_inputs
    lo = np.zeros(netlist.num_nodes, dtype=np.int64)
    hi = np.zeros(netlist.num_nodes, dtype=np.int64)
    for i in range(n_in):
        hi[i] = int(netlist.input_bound[i])
    for idx in range(netlist.num_gates):
        node = n_in + idx
        code = int(netlist.ops[idx])
        a = int(netlist.in0[idx])
        b = int(netlist.in1[idx])
        if code == OP_LIN:
            kx, ky = int(netlist.kx[idx]), int(netlist.ky[idx])
            c = int(netlist.kconst[idx])
            ends = [kx * lo[a], kx * hi[a]]
            lo_v, hi_v = min(ends), max(ends)
            if b != NO_INPUT:
                ends = [ky * lo[b], ky * hi[b]]
                lo_v, hi_v = lo_v + min(ends), hi_v + max(ends)
            lo[node], hi[node] = lo_v + c, hi_v + c
        elif code in TABLE_OPS:
            table = netlist.tables[int(netlist.table_id[idx])]
            lo[node] = int(table.min()) if len(table) else 0
            hi[node] = int(table.max()) if len(table) else 0
        else:
            hi[node] = 1
    return lo, hi


def check_mb(
    netlist: Netlist, collector: Optional[Collector] = None
) -> Collector:
    """Run the MB family over a multi-bit netlist."""
    col = collector if collector is not None else Collector()
    n_in = netlist.num_inputs
    precs = netlist.node_precisions()
    lo, hi = mb_value_ranges(netlist)

    # MB001 — a digit wire's static range escapes [0, p-1].
    digit = precs > 0
    over = digit & ((hi >= np.maximum(precs, 1)) | (lo < 0))
    bad = np.nonzero(over)[0]
    keep = col.admit(RULES["MB001"], len(bad))
    for node in bad[:keep]:
        node = int(node)
        what = (
            "input"
            if node < n_in
            else op_name(int(netlist.ops[node - n_in]))
        )
        col.add(
            RULES["MB001"],
            f"node {node} ({what}) spans messages "
            f"[{int(lo[node])}, {int(hi[node])}] but its modulus is "
            f"p={int(precs[node])}; the leveled chain overflows the "
            "half-torus encoding",
            node=node,
            fix_hint="insert a LUT reduction earlier in the LIN chain "
            "or raise the digit modulus",
        )

    # MB002 — table/precision coherence, one pass over the gates.
    num_tables = len(netlist.tables)
    for idx in range(netlist.num_gates):
        code = int(netlist.ops[idx])
        node = n_in + idx
        out_p = int(netlist.prec[idx])
        if code == OP_LIN:
            for operand in (int(netlist.in0[idx]), int(netlist.in1[idx])):
                if operand == NO_INPUT:
                    continue
                in_p = int(precs[operand])
                if in_p != out_p:
                    col.add(
                        RULES["MB002"],
                        f"LIN gate {node} mixes modulus p={out_p} with "
                        f"operand {operand} of modulus p={in_p}; the "
                        "re-centering correction assumes one modulus",
                        node=node,
                    )
            continue
        if code not in TABLE_OPS:
            continue
        tid = int(netlist.table_id[idx])
        if not (0 <= tid < num_tables):
            col.add(
                RULES["MB002"],
                f"{op_name(code)} gate {node} references table {tid}; "
                f"the program carries tables 0..{num_tables - 1}",
                node=node,
            )
            continue
        table = netlist.tables[tid]
        in_p = int(precs[int(netlist.in0[idx])])
        expect = 2 if code == OP_B2D else in_p
        operand_kind = "boolean" if code == OP_B2D else f"p={in_p} digit"
        if code != OP_B2D and in_p <= 0:
            col.add(
                RULES["MB002"],
                f"{op_name(code)} gate {node} reads a boolean wire; "
                "table ops rotate over a digit operand",
                node=node,
            )
            continue
        if code == OP_B2D and in_p != 0:
            col.add(
                RULES["MB002"],
                f"B2D gate {node} reads a p={in_p} digit wire; its "
                "operand must be boolean",
                node=node,
            )
            continue
        if len(table) != expect:
            col.add(
                RULES["MB002"],
                f"{op_name(code)} gate {node} has a {len(table)}-entry "
                f"table over a {operand_kind} operand; expected "
                f"{expect} entries",
                node=node,
                fix_hint="the table must enumerate every operand value",
            )
        out_mod = 2 if code == OP_D2B else out_p
        if out_mod > 0 and len(table):
            worst = int(np.max(table))
            if worst >= out_mod:
                col.add(
                    RULES["MB002"],
                    f"{op_name(code)} gate {node} maps to entry "
                    f"{worst}, outside its output modulus {out_mod}",
                    node=node,
                )
    return col


# ======================================================================
# Format-1 instruction-stream lint
# ======================================================================
def check_program_mb(
    data: bytes, collector: Optional[Collector] = None
) -> Collector:
    """Lenient lint of a multi-bit (format-1) packed binary.

    Mirrors the boolean stream walk — section order, operand
    back-references, arity, output targets, gate-count coherence —
    plus the format-1 specifics: table segments must be sequential and
    complete, and every table op must resolve its table id (MB002 at
    the stream level).  A corrupt stream yields findings with byte
    offsets, never a parse exception.
    """
    col = collector if collector is not None else Collector()
    if len(data) % INSTRUCTION_BYTES or not data:
        col.add(
            RULES["IS001"],
            f"binary length {len(data)} is not a multiple of "
            f"{INSTRUCTION_BYTES} bytes",
            fix_hint="the stream is truncated or padded",
        )
        return col
    columns = decode_words(data)
    ext_columns = [c.tolist() for c in decode_ext_field1(columns[1])]
    words: List[Tuple[int, int, int]] = list(
        zip(*(c.tolist() for c in columns))
    )
    header_f0, claimed_gates, header_nibble = words[0]
    if header_nibble != 0 or header_f0 != MB_FORMAT_VERSION:
        col.add(
            RULES["IS001"],
            "first instruction is not a multi-bit format header "
            f"(nibble={header_nibble:#x}, field0={header_f0})",
            offset=0,
        )

    state = "inputs"
    defined = 0  # 1-based node count defined so far
    gate_count = 0
    tables_seen = 0
    #: (offset, node, op code, table id) of table ops, checked at end.
    table_refs: List[Tuple[int, int, int, int]] = []
    pos = 1
    while pos < len(words):
        field0, field1, nibble = words[pos]
        offset = pos * INSTRUCTION_BYTES
        if nibble == INPUT_MARKER and field0 == FIELD_ALL_ONES:
            if state != "inputs":
                col.add(
                    RULES["IS003"],
                    f"input instruction after {state} began",
                    offset=offset,
                )
            defined += 1
            pos += 1
            continue
        if nibble == INPUT_MARKER:
            # Table segment: header + ceil(count/12) data words.
            if state not in ("outputs", "tables"):
                col.add(
                    RULES["IS003"],
                    "table segment before the outputs section",
                    offset=offset,
                )
            state = "tables"
            tid, count = field0 - 1, field1
            if tid != tables_seen:
                col.add(
                    RULES["IS001"],
                    f"table segment declares id {tid}, expected "
                    f"{tables_seen} (ids are sequential)",
                    offset=offset,
                )
            tables_seen += 1
            n_data = -(-count // ENTRIES_PER_WORD)
            available = len(words) - pos - 1
            if n_data > available:
                col.add(
                    RULES["IS001"],
                    f"table {tid} is truncated: {count} entries need "
                    f"{n_data} data words, stream has {available}",
                    offset=offset,
                )
                return col
            for d in range(n_data):
                if words[pos + 1 + d][2] != INPUT_MARKER:
                    col.add(
                        RULES["IS001"],
                        f"table {tid} data word {d} has nibble "
                        f"{words[pos + 1 + d][2]:#x}",
                        offset=(pos + 1 + d) * INSTRUCTION_BYTES,
                    )
            pos += 1 + n_data
            continue
        if nibble == OUTPUT_MARKER and field0 == FIELD_ALL_ONES:
            if state == "tables":
                col.add(
                    RULES["IS003"],
                    "output instruction after tables began",
                    offset=offset,
                )
            state = "outputs"
            if not (1 <= field1 <= defined):
                col.add(
                    RULES["IS006"],
                    f"output references node {field1}; the stream "
                    f"defines nodes 1..{defined}",
                    offset=offset,
                )
            pos += 1
            continue
        # A gate word: extended (0x3 + real field0) or boolean.
        if state in ("outputs", "tables"):
            col.add(
                RULES["IS003"],
                f"gate instruction after {state} began",
                offset=offset,
            )
        state = "gates"
        defined += 1
        gate_count += 1
        node = defined
        if nibble == OUTPUT_MARKER:
            code, _prec, _kx, _ky, _kc, tid, in1 = (
                c[pos] for c in ext_columns
            )
            if not (1 <= field0 < node):
                col.add(
                    RULES["IS004"],
                    f"gate {node} ({op_name(code)}) reads node {field0}, "
                    f"which is not defined before it "
                    f"(defined: 1..{node - 1})",
                    node=node,
                    offset=offset,
                )
            if in1 != NO_INPUT:
                if code != OP_LIN:
                    col.add(
                        RULES["IS005"],
                        f"gate {node} ({op_name(code)}, unary) carries "
                        f"a second operand ({in1 + 1})",
                        node=node,
                        offset=offset,
                    )
                elif not (1 <= in1 + 1 < node):
                    col.add(
                        RULES["IS004"],
                        f"gate {node} (LIN) reads node {in1 + 1}, "
                        f"which is not defined before it "
                        f"(defined: 1..{node - 1})",
                        node=node,
                        offset=offset,
                    )
            if code in TABLE_OPS:
                table_refs.append((offset, node, code, tid))
            pos += 1
            continue
        try:
            gate = Gate(nibble)
        except ValueError:
            col.add(
                RULES["IS001"],
                f"unknown instruction nibble {nibble:#x}",
                offset=offset,
            )
            pos += 1
            continue
        for slot, value in (("field0", field0), ("field1", field1)):
            required = gate.arity >= (1 if slot == "field0" else 2)
            if value == FIELD_ALL_ONES:
                if required:
                    col.add(
                        RULES["IS005"],
                        f"gate {node} ({gate.name}, arity {gate.arity}) "
                        f"carries the unused-operand marker in {slot}",
                        node=node,
                        offset=offset,
                    )
            elif not required:
                col.add(
                    RULES["IS005"],
                    f"gate {node} ({gate.name}, arity {gate.arity}) "
                    f"carries operand {value} in unused {slot}",
                    node=node,
                    offset=offset,
                )
            elif not (1 <= value < node):
                col.add(
                    RULES["IS004"],
                    f"gate {node} ({gate.name}) reads node {value}, "
                    f"which is not defined before it "
                    f"(defined: 1..{node - 1})",
                    node=node,
                    offset=offset,
                )
        pos += 1

    for offset, node, code, tid in table_refs:
        if not (0 <= tid < tables_seen):
            col.add(
                RULES["MB002"],
                f"gate {node} ({op_name(code)}) references table "
                f"{tid}; the stream carries tables 0..{tables_seen - 1}",
                node=node,
                offset=offset,
            )
    if gate_count != claimed_gates:
        col.add(
            RULES["IS002"],
            f"header claims {claimed_gates} gates, stream holds "
            f"{gate_count}",
            offset=0,
        )
    return col
