"""Structural lint over the netlist DAG (the ``SL`` rule family).

The checks operate on a raw, *unvalidated* view of a circuit
(:class:`~repro.hdl.facts.FlatCircuitFacts`): flat op/operand arrays
plus the output list.  Working on raw arrays instead of
:class:`~repro.hdl.netlist.Netlist` matters because the most
interesting subjects — a mis-assembled binary, a hand-patched
instruction stream — are exactly the ones the Netlist constructor
refuses to build.

Every rule is a vectorized numpy sweep: per-rule candidate masks are
reduced wholesale and only the findings that survive the per-rule cap
are rendered to strings.  Candidates are enumerated in ascending
(gate, slot) order, the :class:`~repro.analyze.findings.Collector` cap
keeps the first N of that sequence, and the final report sort is
deterministic — the per-gate reference walk in
``tests/analyze/legacy_oracle.py`` produces bit-identical reports.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gatetypes import NO_INPUT, OP_LIN, Gate, op_name
from ..hdl.facts import FlatCircuitFacts
from .findings import Collector
from .rules import RULES

_LAST_GATE = int(max(Gate))


def check_structure(
    flat: FlatCircuitFacts, collector: Optional[Collector] = None
) -> Collector:
    """Run every ``SL`` rule over ``flat``."""
    col = collector if collector is not None else Collector()
    n_in = flat.num_inputs
    num_nodes = flat.num_nodes
    num_gates = flat.num_gates
    ops, in0, in1 = flat.ops, flat.in0, flat.in1
    known = flat.known
    arity = flat.arity
    nodes = flat.gate_nodes

    def gname(g: int) -> str:
        return op_name(int(ops[g]))

    # ------------------------------------------------------------ SL005
    unknown = np.nonzero(~known)[0]
    keep = col.admit(RULES["SL005"], len(unknown))
    for g in unknown[:keep]:
        col.add(
            RULES["SL005"],
            f"gate {n_in + g} has unknown op code {int(ops[g]):#x}",
            node=int(n_in + g),
            fix_hint="only Gate enum codes are executable",
        )

    # ---------------------------------------------------- operand rules
    req0 = known & (arity >= 1)
    # A LIN may omit its second operand (``ky`` is then ignored).
    req1 = known & (arity == 2) & (ops != OP_LIN)
    opt0 = known & ~(arity >= 1)
    opt1 = known & ~(arity == 2)
    present0 = in0 != NO_INPUT
    present1 = in1 != NO_INPUT
    range0 = (in0 >= 0) & (in0 < num_nodes)
    range1 = (in1 >= 0) & (in1 < num_nodes)

    missing0 = req0 & ~present0
    missing1 = req1 & ~present1
    stray0 = opt0 & present0
    stray1 = opt1 & present1

    def _sl003(g: int, slot: int) -> None:
        node = int(n_in + g)
        name = gname(g)
        ar = int(arity[g])
        label = "in0" if slot == 0 else "in1"
        missing = missing0[g] if slot == 0 else missing1[g]
        if missing:
            col.add(
                RULES["SL003"],
                f"gate {node} ({name}) is missing required operand "
                f"{label} (arity {ar})",
                node=node,
                fix_hint="wire the operand or change the gate type",
            )
        else:
            value = int(in0[g]) if slot == 0 else int(in1[g])
            col.add(
                RULES["SL003"],
                f"gate {node} ({name}, arity {ar}) carries stray "
                f"operand {label}={value} it never reads",
                node=node,
                fix_hint=f"set {label} to NO_INPUT (-1)",
            )

    col.admit_slots(
        RULES["SL003"], missing0 | stray0, missing1 | stray1, _sl003
    )

    dangling0 = req0 & present0 & ~range0
    dangling1 = req1 & present1 & ~range1

    def _sl002(g: int, slot: int) -> None:
        node = int(n_in + g)
        label = "in0" if slot == 0 else "in1"
        value = int(in0[g]) if slot == 0 else int(in1[g])
        col.add(
            RULES["SL002"],
            f"gate {node} ({gname(g)}) operand {label}={value} is outside "
            f"the node space [0, {num_nodes})",
            node=node,
            fix_hint="the wire is undriven; connect it to a real node",
        )

    col.admit_slots(RULES["SL002"], dangling0, dangling1, _sl002)

    loop0 = req0 & present0 & range0 & (in0 >= nodes)
    loop1 = req1 & present1 & range1 & (in1 >= nodes)

    def _sl001(g: int, slot: int) -> None:
        node = int(n_in + g)
        label = "in0" if slot == 0 else "in1"
        value = int(in0[g]) if slot == 0 else int(in1[g])
        kind = "itself" if value == node else f"later node {value}"
        col.add(
            RULES["SL001"],
            f"gate {node} ({gname(g)}) operand {label} reads {kind} — "
            "combinational loop / non-topological edge",
            node=node,
            fix_hint="re-topologize the netlist; gates must read strictly "
            "earlier nodes",
        )

    col.admit_slots(RULES["SL001"], loop0, loop1, _sl001)

    # ------------------------------------------------------------ SL102
    # Boolean gates only: a cell's LINs read the same operands with
    # different coefficients, which this view does not see.
    boolean = known & (ops <= _LAST_GATE)
    usable_count = flat.usable0.astype(np.int8) + flat.usable1
    eligible = np.nonzero(boolean & (usable_count == arity))[0]
    if eligible.size:
        # Group identical (op, in0, in1) rows with a stable lexsort —
        # far cheaper than np.unique(axis=0)'s structured-array sort.
        # Stability makes the first element of each equal-row run the
        # earliest original occurrence, which SL102 names as `prior`.
        e_ops, e_in0, e_in1 = (
            ops[eligible],
            in0[eligible],
            in1[eligible],
        )
        order = np.lexsort((e_in1, e_in0, e_ops))
        s_ops, s_in0, s_in1 = e_ops[order], e_in0[order], e_in1[order]
        new_group = np.empty(eligible.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = (
            (s_ops[1:] != s_ops[:-1])
            | (s_in0[1:] != s_in0[:-1])
            | (s_in1[1:] != s_in1[:-1])
        )
        group_first = order[new_group]
        prior_pos = np.empty(eligible.size, dtype=np.int64)
        prior_pos[order] = group_first[np.cumsum(new_group) - 1]
        dup_pos = np.nonzero(prior_pos != np.arange(eligible.size))[0]
        keep = col.admit(RULES["SL102"], len(dup_pos))
        for k in dup_pos[:keep]:
            g = int(eligible[k])
            prior = int(n_in + eligible[prior_pos[k]])
            col.add(
                RULES["SL102"],
                f"gate {n_in + g} duplicates gate {prior} "
                f"({gname(g)} {int(in0[g])},{int(in1[g])}) — CSE residue",
                node=int(n_in + g),
                fix_hint="run synth.structural_hash / optimize",
            )

    # ------------------------------------------------------------ SL103
    # Driver op code of each operand when it names a gate, else -1.
    def driver_ops(values: np.ndarray, in_range: np.ndarray) -> np.ndarray:
        from_gate = in_range & (values >= n_in)
        out = np.full(num_gates, -1, dtype=np.int64)
        out[from_gate] = ops[values[from_gate] - n_in]
        return out

    drv0 = driver_ops(in0, range0)
    drv1 = driver_ops(in1, range1)
    const_codes = (int(Gate.CONST0), int(Gate.CONST1))
    const0 = (drv0 == const_codes[0]) | (drv0 == const_codes[1])
    const1 = (drv1 == const_codes[0]) | (drv1 == const_codes[1])

    is_buf = known & (ops == int(Gate.BUF))
    notnot = (
        known & (ops == int(Gate.NOT)) & range0 & (drv0 == int(Gate.NOT))
    )
    binary = boolean & (arity == 2) & range0 & range1
    same = binary & (in0 == in1)
    with_const = binary & ~same & (const0 | const1)
    foldable = np.nonzero(is_buf | notnot | same | with_const)[0]
    keep = col.admit(RULES["SL103"], len(foldable))
    for g in foldable[:keep]:
        node = int(n_in + g)
        a, b = int(in0[g]), int(in1[g])
        if is_buf[g]:
            col.add(
                RULES["SL103"],
                f"gate {node} is a bare BUF of node {a}",
                node=node,
                fix_hint="forward the driver; BUF adds no logic",
            )
        elif notnot[g]:
            col.add(
                RULES["SL103"],
                f"gate {node} is NOT(NOT(...)) via node {a} — double "
                "negation",
                node=node,
                fix_hint="forward the inner driver",
            )
        elif same[g]:
            col.add(
                RULES["SL103"],
                f"gate {node} ({gname(g)}) reads node {a} on both "
                "operands; its value is a unary function of one node",
                node=node,
                fix_hint="fold to the residual BUF/NOT/constant",
            )
        else:
            slots = [
                s
                for s, flag in (("in0", const0[g]), ("in1", const1[g]))
                if flag
            ]
            col.add(
                RULES["SL103"],
                f"gate {node} ({gname(g)}) has constant operand(s) "
                f"{'/'.join(slots)}",
                node=node,
                fix_hint="constant-fold with synth.optimize",
            )

    # ------------------------------------------------------------ SL004
    outs = flat.outputs
    bad_out = np.nonzero(~((outs >= 0) & (outs < num_nodes)))[0]
    if bad_out.size:
        names = flat.output_names or [
            f"out{i}" for i in range(len(outs))
        ]
        keep = col.admit(RULES["SL004"], len(bad_out))
        for pos in bad_out[:keep]:
            out = int(outs[pos])
            col.add(
                RULES["SL004"],
                f"output {pos} ({names[pos]!r}) references node {out}, "
                f"valid range is [0, {num_nodes})",
                node=out,
                fix_hint="point the output at an existing node",
            )

    # ---------------------------------------------------- SL101 / SL104
    mask = flat.output_reachable()
    dead = np.nonzero(~mask[n_in:])[0]
    keep = col.admit(RULES["SL101"], len(dead))
    for g in dead[:keep]:
        label = gname(int(g)) if known[g] else f"op {int(ops[g]):#x}"
        col.add(
            RULES["SL101"],
            f"gate {n_in + g} ({label}) is unreachable from every "
            "output",
            node=int(n_in + g),
            fix_hint="run synth.dead_gate_elimination",
        )
    unused = np.nonzero(~mask[:n_in])[0]
    if unused.size:
        in_names = flat.input_names or [f"in{i}" for i in range(n_in)]
        keep = col.admit(RULES["SL104"], len(unused))
        for i in unused[:keep]:
            col.add(
                RULES["SL104"],
                f"input {i} ({in_names[i]!r}) drives no output-reachable "
                "logic",
                node=int(i),
            )
    return col
