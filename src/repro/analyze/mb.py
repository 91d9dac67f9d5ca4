"""Multi-bit program analysis (the ``MB`` rule family).

Netlists with digit wires share the analyzer's flat-array machinery —
the hazard replay, the noise certification and the cost certification
run unchanged over the whole op vocabulary — but two things are
genuinely new:

* **MB001** — interval analysis over leveled LIN chains: a digit
  wire whose static message range escapes ``[0, p-1]`` wraps the
  half-torus encoding and every downstream LUT reads the wrong slice.
* **MB002** — table/precision coherence: each programmable-bootstrap
  table must have exactly ``p_in`` entries for its operand's modulus
  and entries inside the output modulus.

:func:`~repro.analyze.analyze_netlist` runs these families on any
netlist whose columns carry a digit wire or a table.  A packed binary's
table references are checked by the stream lint
(:func:`~repro.analyze.check_program`), as a defect of the decoder.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..gatetypes import NO_INPUT, OP_B2D, OP_D2B, OP_LIN, TABLE_OPS, op_name
from ..hdl.netlist import Netlist
from .findings import Collector
from .rules import RULES


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

    # MB002 — table/precision coherence, one pass over the gates (the
    # Netlist constructor already refuses an unresolvable table id).
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
        table = netlist.tables[int(netlist.table_id[idx])]
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
