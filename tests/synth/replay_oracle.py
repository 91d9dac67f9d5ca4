"""Reference synthesis: the per-gate replay the column passes replaced.

``ReplayBuilder`` is the enum-per-gate ``CircuitBuilder`` gate path,
and ``replay`` re-emits every output-reachable gate of a netlist
through one, in gate order, so the builder's local rules (folding,
NOT/BUF collapse, inverter absorption, operand canonicalization,
hash-consing) decide what each gate becomes.  ``optimize_reference``
is the old ``optimize``: a replay with the requested switches, then a
replay with every switch off to sweep what the rewrite orphaned.

``CircuitBuilder`` and ``repro.synth.passes`` must agree with this
module column for column and node id for node id.  Test-only; never
fast.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gatetypes import (
    COMMUTATIVE,
    INVERT_A,
    INVERT_B,
    SWAP,
    Gate,
    evaluate_plain,
    op_arity,
)
from repro.hdl.netlist import NO_INPUT, Netlist


class ReplayBuilder:
    """The builder's gate path, one ``Gate`` lookup per request."""

    def __init__(self, hash_cons=True, fold_constants=True,
                 absorb_inverters=True, name="netlist"):
        self.name = name
        self.hash_cons = hash_cons
        self.fold_constants = fold_constants
        self.absorb_inverters = absorb_inverters
        self._num_inputs = 0
        self._input_names: List[str] = []
        self._ops: List[int] = []
        self._in0: List[int] = []
        self._in1: List[int] = []
        self._outputs: List[int] = []
        self._output_names: List[str] = []
        self._cache: Dict[Tuple[int, int, int], int] = {}
        self._const_nodes: Dict[bool, int] = {}
        self.cse_hits = 0

    def input(self, name: Optional[str] = None) -> int:
        node = self._num_inputs
        self._num_inputs += 1
        self._input_names.append(name or f"in{node}")
        return node

    def const(self, value: bool) -> int:
        value = bool(value)
        node = self._const_nodes.get(value)
        if node is None:
            node = self._append(
                Gate.CONST1 if value else Gate.CONST0, NO_INPUT, NO_INPUT
            )
            self._const_nodes[value] = node
        return node

    def const_value(self, node: int) -> Optional[bool]:
        idx = node - self._num_inputs
        if idx < 0:
            return None
        op = self._ops[idx]
        if op == int(Gate.CONST0):
            return False
        if op == int(Gate.CONST1):
            return True
        return None

    def _op_of(self, node: int) -> Optional[int]:
        idx = node - self._num_inputs
        return self._ops[idx] if idx >= 0 else None

    def _append(self, gate: Gate, a: int, b: int) -> int:
        key = (int(gate), a, b)
        if self.hash_cons:
            cached = self._cache.get(key)
            if cached is not None:
                self.cse_hits += 1
                return cached
        self._ops.append(int(gate))
        self._in0.append(a)
        self._in1.append(b)
        node = self._num_inputs + len(self._ops) - 1
        if self.hash_cons:
            self._cache[key] = node
        return node

    def gate(self, gate: Gate, a: int = NO_INPUT, b: int = NO_INPUT) -> int:
        gate = Gate(gate)
        if gate.arity == 0:
            return self.const(gate is Gate.CONST1)
        if gate is Gate.BUF:
            return a if self.fold_constants else self._append(gate, a, NO_INPUT)
        if gate is Gate.NOT:
            return self._not(a)
        return self._gate2(gate, a, b)

    def _not(self, a: int) -> int:
        if self.fold_constants:
            cv = self.const_value(a)
            if cv is not None:
                return self.const(not cv)
            if self._op_of(a) == int(Gate.NOT):
                return self._in0[a - self._num_inputs]
        return self._append(Gate.NOT, a, NO_INPUT)

    def _gate2(self, gate: Gate, a: int, b: int) -> int:
        if a < 0 or b < 0:
            raise ValueError(f"{gate.name} requires two inputs")
        if self.fold_constants:
            ca, cb = self.const_value(a), self.const_value(b)
            if ca is not None and cb is not None:
                return self.const(bool(evaluate_plain(gate, ca, cb)))
            if ca is not None:
                return self._shape_result(
                    evaluate_plain(gate, int(ca), 0),
                    evaluate_plain(gate, int(ca), 1),
                    b,
                )
            if cb is not None:
                return self._shape_result(
                    evaluate_plain(gate, 0, int(cb)),
                    evaluate_plain(gate, 1, int(cb)),
                    a,
                )
            if a == b:
                return self._shape_result(
                    evaluate_plain(gate, 0, 0), evaluate_plain(gate, 1, 1), a
                )
        if self.absorb_inverters:
            if self._op_of(a) == int(Gate.NOT) and gate in INVERT_A:
                return self._gate2(
                    INVERT_A[gate], self._in0[a - self._num_inputs], b
                )
            if self._op_of(b) == int(Gate.NOT) and gate in INVERT_B:
                return self._gate2(
                    INVERT_B[gate], a, self._in0[b - self._num_inputs]
                )
        if self.hash_cons and a > b:
            if gate in COMMUTATIVE:
                a, b = b, a
            elif gate in SWAP:
                gate, a, b = SWAP[gate], b, a
        return self._append(gate, a, b)

    def _shape_result(self, value_at_0: int, value_at_1: int, x: int) -> int:
        if value_at_0 == value_at_1:
            return self.const(bool(value_at_0))
        if (value_at_0, value_at_1) == (0, 1):
            return x
        return self._not(x)

    def output(self, node: int, name: Optional[str] = None) -> None:
        self._outputs.append(node)
        self._output_names.append(name or f"out{len(self._outputs) - 1}")

    def build(self) -> Netlist:
        return Netlist(
            num_inputs=self._num_inputs,
            ops=self._ops,
            in0=self._in0,
            in1=self._in1,
            outputs=self._outputs,
            input_names=list(self._input_names),
            output_names=list(self._output_names),
            name=self.name,
        )


def reachable_mask_reference(netlist: Netlist) -> np.ndarray:
    """Nodes reachable backward from the outputs, one gate at a time.

    Follows every slot that is not ``NO_INPUT``, including one its op
    does not read: compare on :func:`without_unused_slots` netlists.
    """
    mask = np.zeros(netlist.num_nodes, dtype=bool)
    mask[netlist.outputs] = True
    n_in = netlist.num_inputs
    in0 = netlist.in0
    in1 = netlist.in1
    for idx in range(netlist.num_gates - 1, -1, -1):
        if mask[n_in + idx]:
            if in0[idx] != NO_INPUT:
                mask[in0[idx]] = True
            if in1[idx] != NO_INPUT:
                mask[in1[idx]] = True
    return mask


def without_unused_slots(netlist: Netlist) -> Netlist:
    """``netlist`` with every operand slot its op does not read set to
    ``NO_INPUT``."""
    arity = np.array(
        [op_arity(int(code)) for code in netlist.ops], dtype=np.int64
    )
    return Netlist(
        netlist.num_inputs,
        netlist.ops,
        np.where(arity >= 1, netlist.in0, NO_INPUT),
        np.where(arity == 2, netlist.in1, NO_INPUT),
        netlist.outputs,
        input_names=list(netlist.input_names),
        output_names=list(netlist.output_names),
        name=netlist.name,
    )


def replay(netlist: Netlist, builder: ReplayBuilder) -> Netlist:
    """Re-emit the output-reachable gates of ``netlist`` through
    ``builder``, in gate order."""
    mask = reachable_mask_reference(netlist)
    mapping: List[int] = [0] * netlist.num_nodes
    for i in range(netlist.num_inputs):
        mapping[i] = builder.input(netlist.input_names[i])
    n_in = netlist.num_inputs
    for idx in range(netlist.num_gates):
        node = n_in + idx
        if not mask[node]:
            continue
        a = int(netlist.in0[idx])
        b = int(netlist.in1[idx])
        mapping[node] = builder.gate(
            Gate(int(netlist.ops[idx])),
            mapping[a] if a != NO_INPUT else NO_INPUT,
            mapping[b] if b != NO_INPUT else NO_INPUT,
        )
    for out, name in zip(netlist.outputs, netlist.output_names):
        builder.output(mapping[int(out)], name)
    return builder.build()


def dead_gate_elimination_reference(netlist: Netlist) -> Netlist:
    return replay(
        netlist,
        ReplayBuilder(False, False, False, name=netlist.name),
    )


def optimize_reference(
    netlist: Netlist,
    fold_constants: bool = True,
    share_structure: bool = True,
    absorb_inverters: bool = True,
) -> Tuple[Netlist, int]:
    """The replay pipeline: ``(optimized netlist, cse_hits)``."""
    builder = ReplayBuilder(
        hash_cons=share_structure,
        fold_constants=fold_constants,
        absorb_inverters=absorb_inverters,
        name=netlist.name,
    )
    rewritten = replay(netlist, builder)
    return dead_gate_elimination_reference(rewritten), builder.cse_hits
