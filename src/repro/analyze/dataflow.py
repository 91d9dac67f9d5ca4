"""Abstract interpretation over the gate DAG (``DF``/``SC`` families).

One forward sweep over :class:`~repro.hdl.facts.FlatCircuitFacts`
round buckets propagates the three-point lattice ``{0, 1, ⊤}`` through
every gate: circuit inputs start at ⊤ (:data:`UNKNOWN`), constants
inject 0/1, and each gate applies a truth-table transfer function
precomputed from :func:`repro.gatetypes.evaluate_plain`.  Because the
inputs are the *only* unknowns, a node whose abstract value is concrete
is exactly a node whose plaintext the evaluating server can derive from
public information — so the same sweep powers both rule families:

* ``DF`` — compile-time constants: gates whose output is the same bit
  for every circuit input (DF001), and bootstrapped gates that collapse
  to a free BUF/NOT because one operand is a propagated constant
  (DF002).
* ``SC`` — transparency taint: circuit outputs derivable purely from
  public constants (SC001), and bootstraps spent on operands the
  server already knows (SC002).

The sweep is ``O(V)`` numpy work per dependency round and is only run
on validated netlists (the structural families own malformed subjects).
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

import numpy as np

from ..gatetypes import NUM_CODES, Gate, evaluate_plain
from ..hdl.facts import FlatCircuitFacts
from .findings import Collector
from .rules import RULES

#: Lattice top — the node's bit depends on at least one circuit input.
UNKNOWN = 2


def _build_transfer() -> np.ndarray:
    """``table[op, a, b]`` — abstract value of ``op`` on lattice values.

    An abstract operand of :data:`UNKNOWN` ranges over {0, 1}; if every
    concretization agrees the result is that bit, else UNKNOWN.  Ops
    outside the Gate vocabulary map everything to UNKNOWN (they never
    reach the sweep on validated netlists anyway).
    """
    table = np.full((NUM_CODES, 3, 3), UNKNOWN, dtype=np.int8)
    for gate in Gate:
        for av, bv in product(range(3), range(3)):
            a_bits = (0, 1) if av == UNKNOWN else (av,)
            b_bits = (0, 1) if bv == UNKNOWN else (bv,)
            results = {
                evaluate_plain(gate, a, b)
                for a in a_bits
                for b in b_bits
            }
            if len(results) == 1:
                table[int(gate), av, bv] = results.pop()
    return table


_TRANSFER = _build_transfer()


def propagate_constants(flat: FlatCircuitFacts) -> np.ndarray:
    """Per-node abstract value (int8: 0, 1, or :data:`UNKNOWN`)."""
    values = np.full(flat.num_nodes, UNKNOWN, dtype=np.int8)
    n_in = flat.num_inputs
    ops = flat.ops
    known = flat.known
    in0, in1 = flat.in0, flat.in1
    u0, u1 = flat.usable0, flat.usable1
    for bucket in flat.rounds:
        av = np.where(
            u0[bucket], values[np.where(u0[bucket], in0[bucket], 0)], UNKNOWN
        )
        bv = np.where(
            u1[bucket], values[np.where(u1[bucket], in1[bucket], 0)], UNKNOWN
        )
        codes = np.where(known[bucket], ops[bucket], 0)
        values[n_in + bucket] = np.where(
            known[bucket], _TRANSFER[codes, av, bv], UNKNOWN
        )
    return values


def _residual_ops(values: np.ndarray, flat: FlatCircuitFacts) -> Tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """DF002 helper: bootstrapped binary gates with exactly one known
    operand whose residual unary function is BUF or NOT.

    Returns ``(mask, known_slot, residual_is_not)`` aligned to gates.
    """
    ops = flat.ops
    av = np.where(flat.usable0, values[np.where(flat.usable0, flat.in0, 0)],
                  UNKNOWN)
    bv = np.where(flat.usable1, values[np.where(flat.usable1, flat.in1, 0)],
                  UNKNOWN)
    binary = flat.known & (flat.arity == 2)
    one_known = binary & ((av == UNKNOWN) != (bv == UNKNOWN))
    still_unknown = values[flat.gate_nodes] == UNKNOWN
    candidates = flat.needs_bootstrap & one_known & still_unknown
    # Residual function of the unknown operand x: evaluate the transfer
    # table at x=0 and x=1 with the known operand pinned.
    known_slot = np.where(av != UNKNOWN, 0, 1)
    pinned = np.where(av != UNKNOWN, av, bv).astype(np.int64)
    f0 = np.where(
        known_slot == 0,
        _TRANSFER[ops % NUM_CODES, pinned, 0],
        _TRANSFER[ops % NUM_CODES, 0, pinned],
    )
    f1 = np.where(
        known_slot == 0,
        _TRANSFER[ops % NUM_CODES, pinned, 1],
        _TRANSFER[ops % NUM_CODES, 1, pinned],
    )
    is_buf = (f0 == 0) & (f1 == 1)
    is_not = (f0 == 1) & (f1 == 0)
    mask = candidates & (is_buf | is_not)
    return mask, known_slot, is_not


def check_dataflow(
    flat: FlatCircuitFacts,
    collector: Optional[Collector] = None,
    values: Optional[np.ndarray] = None,
) -> Collector:
    """Run the ``DF`` and ``SC`` rules over a validated netlist view."""
    col = collector if collector is not None else Collector()
    if values is None:
        values = propagate_constants(flat)
    n_in = flat.num_inputs
    ops = flat.ops
    gate_values = values[flat.gate_nodes]

    def gname(g: int) -> str:
        return Gate(int(ops[g])).name

    # ------------------------------------------------------------ DF001
    is_const_op = (ops == int(Gate.CONST0)) | (ops == int(Gate.CONST1))
    const_gates = np.nonzero(
        flat.known & ~is_const_op & (gate_values != UNKNOWN)
    )[0]
    keep = col.admit(RULES["DF001"], len(const_gates))
    for g in const_gates[:keep]:
        node = int(n_in + g)
        col.add(
            RULES["DF001"],
            f"gate {node} ({gname(int(g))}) always evaluates to "
            f"{int(gate_values[g])} regardless of the circuit inputs",
            node=node,
            fix_hint="constant-fold with synth.optimize",
        )

    # ------------------------------------------------------------ DF002
    mask, known_slot, is_not = _residual_ops(values, flat)
    reducible = np.nonzero(mask)[0]
    keep = col.admit(RULES["DF002"], len(reducible))
    for g in reducible[:keep]:
        node = int(n_in + g)
        slot = "in0" if known_slot[g] == 0 else "in1"
        other = "in1" if known_slot[g] == 0 else "in0"
        residual = "NOT" if is_not[g] else "BUF"
        col.add(
            RULES["DF002"],
            f"gate {node} ({gname(int(g))}) has a known {slot}; it "
            f"reduces to {residual}({other}) — a free operation, not a "
            "bootstrap",
            node=node,
            fix_hint="strength-reduce with synth.optimize",
        )

    # ------------------------------------------------------------ SC001
    outs = flat.outputs
    names = flat.output_names or [f"out{i}" for i in range(len(outs))]
    transparent = np.nonzero(values[outs] != UNKNOWN)[0]
    keep = col.admit(RULES["SC001"], len(transparent))
    for pos in transparent[:keep]:
        p = int(pos)
        out = int(outs[p])
        col.add(
            RULES["SC001"],
            f"output {p} ({names[p]!r}) is transparent: node {out} "
            f"always decrypts to {int(values[out])}, derivable without "
            "the secret key",
            node=out,
            fix_hint="drop the output or tie it to an encrypted input",
        )

    # ------------------------------------------------------------ SC002
    # A bootstrapped gate whose required operands are all transparent.
    av = np.where(flat.usable0, values[np.where(flat.usable0, flat.in0, 0)],
                  UNKNOWN)
    bv = np.where(flat.usable1, values[np.where(flat.usable1, flat.in1, 0)],
                  UNKNOWN)
    opaque0 = flat.usable0 & (av == UNKNOWN)
    opaque1 = flat.usable1 & (bv == UNKNOWN)
    wasted = np.nonzero(
        flat.needs_bootstrap & (flat.arity > 0) & ~opaque0 & ~opaque1
    )[0]
    keep = col.admit(RULES["SC002"], len(wasted))
    for g in wasted[:keep]:
        node = int(n_in + g)
        col.add(
            RULES["SC002"],
            f"gate {node} ({gname(int(g))}) bootstraps over transparent "
            "operands only; the server already knows the result",
            node=node,
            fix_hint="fold the cone with synth.optimize",
        )
    return col


def reference_propagate(flat: FlatCircuitFacts) -> np.ndarray:
    """Pure-Python oracle for :func:`propagate_constants` (tests)."""
    values = [UNKNOWN] * flat.num_nodes
    n_in = flat.num_inputs
    for g in range(flat.num_gates):
        if not flat.known[g]:
            continue
        a = int(flat.in0[g]) if flat.usable0[g] else None
        b = int(flat.in1[g]) if flat.usable1[g] else None
        av = values[a] if a is not None else UNKNOWN
        bv = values[b] if b is not None else UNKNOWN
        values[n_in + g] = int(_TRANSFER[int(flat.ops[g]), av, bv])
    return np.asarray(values, dtype=np.int8)
