"""Reference netlist semantics: the per-gate loops the array code replaced.

Per-node bootstrap levels and plaintext evaluation, one gate at a time
over the whole op vocabulary (boolean gates and LIN/LUT/B2D/D2B), so
``Netlist.bootstrap_levels`` and ``Netlist.evaluate`` — dependency
rounds of numpy transforms — have something independent to be compared
with.  Test-only; never fast.
"""

from typing import List

import numpy as np

from repro.gatetypes import (
    OP_B2D,
    OP_LIN,
    TABLE_OPS,
    Gate,
    evaluate_plain,
    op_arity,
    op_needs_bootstrap,
)
from repro.hdl.netlist import NO_INPUT, Netlist


def bootstrap_levels_reference(netlist: Netlist) -> List[int]:
    """Per-node bootstrap level, one gate at a time."""
    n_in = netlist.num_inputs
    levels = [0] * netlist.num_nodes
    for idx in range(netlist.num_gates):
        code = int(netlist.ops[idx])
        operands = [int(netlist.in0[idx]), int(netlist.in1[idx])]
        base = max(
            [levels[x] for x in operands[: op_arity(code)] if x != NO_INPUT],
            default=0,
        )
        levels[n_in + idx] = base + op_needs_bootstrap(code)
    return levels


def evaluate_reference(netlist: Netlist, vector) -> List[int]:
    """Output messages for one input vector, one gate at a time."""
    values = [int(v) for v in vector]
    for idx in range(netlist.num_gates):
        code = int(netlist.ops[idx])
        a, b = (
            values[x] if x != NO_INPUT else 0
            for x in (int(netlist.in0[idx]), int(netlist.in1[idx]))
        )
        if code == OP_LIN:
            value = (
                int(netlist.kx[idx]) * a
                + int(netlist.ky[idx]) * b
                + int(netlist.kconst[idx])
            )
        elif code in TABLE_OPS:
            table = netlist.tables[int(netlist.table_id[idx])]
            value = int(table[int(a != 0) if code == OP_B2D else a % len(table)])
        else:
            value = int(evaluate_plain(Gate(code), a & 1, b & 1))
        values.append(value)
    return [values[int(out)] for out in netlist.outputs]


def evaluate_reference_batch(netlist: Netlist, vectors) -> np.ndarray:
    return np.array([evaluate_reference(netlist, row) for row in vectors])
