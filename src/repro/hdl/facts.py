"""Flat structure-of-arrays circuit facts: the derived columns of a circuit.

:class:`FlatCircuitFacts` views a circuit's ``ops/in0/in1/outputs``
columns (a :class:`~repro.hdl.netlist.Netlist`'s own arrays, borrowed,
or raw and possibly corrupt ones) and derives numpy int/bool columns
from them — decoded-op validity, arity, bootstrap class, per-slot
operand usability, a fanout CSR, dependency-round buckets, and BFS
bootstrap levels — so every consumer (netlist validation, levels and
statistics, plaintext evaluation, the scheduler, structural lint,
hazard replay, constant propagation, cost certification) is a handful
of array transforms instead of a million-iteration interpreter loop.
A validated netlist builds its facts once and caches them
(:attr:`Netlist.facts <repro.hdl.netlist.Netlist.facts>`).

The facts layer is deliberately *unvalidated*: the most interesting
analysis subjects — a mis-assembled binary, a hand-patched instruction
stream — are exactly the ones the netlist constructor refuses to
build.  A per-slot ``usable`` mask (operand present, in range, strictly
backward) marks the edges every derived structure is built from, so
cyclic or dangling inputs degrade into findings rather than exceptions.

Dependency rounds are computed with a vectorized Kahn traversal: each
round finalizes every gate whose usable gate-fanins are all final, so
total work is ``O(V + E)`` in numpy operations and the Python-level
loop runs once per *round* (circuit depth), not once per gate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..gatetypes import (
    CODE_ARITY,
    CODE_BOOTSTRAPS,
    KNOWN_CODE,
    NUM_CODES,
    UNKNOWN_ARITY,
)

# The op-code tables with one spare slot: every code outside the
# vocabulary is looked up there, so corrupt codes need no masking.
_KNOWN = np.append(KNOWN_CODE, False)
_ARITY = np.append(CODE_ARITY, UNKNOWN_ARITY)
_BOOTSTRAPS = np.append(CODE_BOOTSTRAPS, False)


class FlatCircuitFacts:
    """A raw circuit as flat numpy arrays, plus derived analysis views.

    Node ids follow the netlist convention: ``0 .. num_inputs-1`` are
    inputs, gate ``j`` is node ``num_inputs + j``.  Integer arrays are
    borrowed, not copied; all derived views are computed lazily and
    cached on the instance.
    """

    def __init__(
        self,
        name: str,
        num_inputs: int,
        ops: np.ndarray,
        in0: np.ndarray,
        in1: np.ndarray,
        outputs: np.ndarray,
        input_names: Optional[List[str]] = None,
        output_names: Optional[List[str]] = None,
    ):
        self.name = name
        self.num_inputs = int(num_inputs)
        self.ops = np.asarray(ops)
        if self.ops.dtype.kind not in "iu":
            self.ops = self.ops.astype(np.int64)
        self.in0 = np.asarray(in0, dtype=np.int64)
        self.in1 = np.asarray(in1, dtype=np.int64)
        self.outputs = np.asarray(outputs, dtype=np.int64)
        self.input_names = input_names
        self.output_names = output_names
        if not (len(self.ops) == len(self.in0) == len(self.in1)):
            raise ValueError("ops/in0/in1 length mismatch")
        self._codes: Optional[np.ndarray] = None
        self._usable0: Optional[np.ndarray] = None
        self._usable1: Optional[np.ndarray] = None
        self._rounds: Optional[List[np.ndarray]] = None
        self._node_levels: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_nodes(self) -> int:
        return self.num_inputs + len(self.ops)

    @property
    def gate_nodes(self) -> np.ndarray:
        """Node id of each gate (``num_inputs + arange``)."""
        return self.num_inputs + np.arange(self.num_gates, dtype=np.int64)

    # ------------------------------------------------------------------
    # Decoded-gate columns
    # ------------------------------------------------------------------
    @property
    def _table_index(self) -> np.ndarray:
        """Op codes, with everything outside the vocabulary on the
        lookup tables' spare slot."""
        if self._codes is None:
            ops = self.ops
            self._codes = np.where(
                (ops >= 0) & (ops < NUM_CODES), ops, NUM_CODES
            ).astype(np.uint8)
        return self._codes

    @property
    def known(self) -> np.ndarray:
        """Per-gate bool: op code is a gate or a multi-bit op."""
        return _KNOWN[self._table_index]

    @property
    def arity(self) -> np.ndarray:
        """Per-gate int8 arity; :data:`UNKNOWN_ARITY` for unknown ops."""
        return _ARITY[self._table_index]

    @property
    def needs_bootstrap(self) -> np.ndarray:
        """Per-gate bool: homomorphic evaluation bootstraps."""
        return _BOOTSTRAPS[self._table_index]

    # ------------------------------------------------------------------
    # Operand usability (the validated backward edges)
    # ------------------------------------------------------------------
    def _usable(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._usable0 is None:
            # Present (NO_INPUT is negative), in range and strictly
            # backward: an earlier node is below num_nodes by construction.
            nodes, arity = self.gate_nodes, self.arity
            self._usable0 = (arity >= 1) & (self.in0 >= 0) & (self.in0 < nodes)
            self._usable1 = (arity == 2) & (self.in1 >= 0) & (self.in1 < nodes)
        return self._usable0, self._usable1

    @property
    def usable0(self) -> np.ndarray:
        """Slot-0 edges that are present, in range, and backward."""
        return self._usable()[0]

    @property
    def usable1(self) -> np.ndarray:
        """Slot-1 edges that are present, in range, and backward."""
        return self._usable()[1]

    # ------------------------------------------------------------------
    # Fanout CSR over usable edges
    # ------------------------------------------------------------------
    def fanout(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, gate_indices)``: gates reading each node.

        ``gate_indices[indptr[n]:indptr[n+1]]`` lists, in ascending
        order, the gate indices with a usable edge from node ``n``.
        Not cached: its one consumer is the traversal below, whose
        results are, and at ~24 bytes per gate it would be most of what
        a netlist keeps alive (``mnist_s_compile`` peak RSS +13 %).
        """
        gates = np.arange(self.num_gates, dtype=np.int64)
        heads = np.concatenate(
            (self.in0[self.usable0], self.in1[self.usable1])
        )
        readers = np.concatenate((gates[self.usable0], gates[self.usable1]))
        order = np.argsort(heads, kind="stable")
        counts = np.bincount(heads, minlength=self.num_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return indptr, readers[order]

    # ------------------------------------------------------------------
    # Dependency rounds + bootstrap levels (vectorized Kahn)
    # ------------------------------------------------------------------
    def _traverse(self) -> None:
        n_in = self.num_inputs
        u0, u1 = self.usable0, self.usable1
        indptr, readers = self.fanout()
        # A gate is ready once its usable *gate* fanins are all final;
        # input fanins are final from the start.
        indeg = (u0 & (self.in0 >= n_in)).astype(np.int64)
        indeg += u1 & (self.in1 >= n_in)
        rounds: List[np.ndarray] = []
        ready = np.nonzero(indeg == 0)[0]
        while ready.size:
            rounds.append(ready)
            nodes = n_in + ready
            # Concatenate the CSR ranges of this round's nodes: arange
            # shifted by each range's start minus its output position.
            starts = indptr[nodes]
            counts = indptr[nodes + 1] - starts
            ends = counts.cumsum()
            total = int(ends[-1])
            if not total:
                break
            consumers = readers[
                (starts - ends + counts).repeat(counts) + np.arange(total)
            ]
            np.subtract.at(indeg, consumers, 1)
            # Ascending and once each (a gate may be reached twice).
            ready = consumers[indeg[consumers] == 0]
            ready.sort()
            first = np.empty(len(ready), dtype=bool)
            first[:1] = True
            first[1:] = ready[1:] != ready[:-1]
            ready = ready[first]
        self._rounds = rounds

    @property
    def rounds(self) -> List[np.ndarray]:
        """Gate indices bucketed by dependency round.

        Within a round no gate reads another (over usable edges), and
        every usable fanin of a round-``r`` gate was finalized in a
        round ``< r`` — the invariant forward dataflow sweeps and the
        reverse reachability sweep rely on.  Usable edges point
        strictly backward, so every gate lands in exactly one round.
        """
        if self._rounds is None:
            self._traverse()
        assert self._rounds is not None
        return self._rounds

    @property
    def node_levels(self) -> np.ndarray:
        """Per-node BFS bootstrap level over usable edges.

        Inputs sit at level 0.  A bootstrapped gate sits one level above
        the max of its inputs; free gates (NOT/BUF/CONST/LIN) inherit
        the max of their inputs.  The level of a gate is the earliest
        BFS round (Algorithm 1 of the paper) in which it can execute.
        """
        if self._node_levels is None:
            num_nodes = self.num_nodes
            # An unusable slot reads a spare node past the end: level 0.
            src0 = np.where(self.usable0, self.in0, num_nodes)
            src1 = np.where(self.usable1, self.in1, num_nodes)
            levels = np.zeros(num_nodes + 1, dtype=np.int64)
            bootstraps = self.needs_bootstrap
            for ready in self.rounds:
                levels[self.num_inputs + ready] = (
                    np.maximum(levels[src0[ready]], levels[src1[ready]])
                    + bootstraps[ready]
                )
            self._node_levels = levels[:num_nodes]
        return self._node_levels

    # ------------------------------------------------------------------
    # Reverse reachability
    # ------------------------------------------------------------------
    def output_reachable(self) -> np.ndarray:
        """Per-node bool: node reaches some in-range output backward.

        A breadth-first walk back from the outputs over usable edges:
        each step reads the operands of the gates it reached last, so it
        needs neither the fanout nor the dependency rounds.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        outs = self.outputs
        frontier = outs[(outs >= 0) & (outs < self.num_nodes)]
        mask[frontier] = True
        n_in = self.num_inputs
        in0, in1 = self.in0, self.in1
        u0, u1 = self.usable0, self.usable1
        frontier = frontier[frontier >= n_in] - n_in
        while frontier.size:
            reached = np.concatenate(
                (in0[frontier[u0[frontier]]], in1[frontier[u1[frontier]]])
            )
            reached = reached[~mask[reached]]
            mask[reached] = True
            # Once each (two gates may read one node): sorted, deduped.
            frontier = np.sort(reached[reached >= n_in])
            first = np.empty(len(frontier), dtype=bool)
            first[:1] = True
            first[1:] = frontier[1:] != frontier[:-1]
            frontier = frontier[first] - n_in
        return mask

    def __repr__(self) -> str:
        return (
            f"FlatCircuitFacts({self.name!r}, inputs={self.num_inputs}, "
            f"gates={self.num_gates}, outputs={len(self.outputs)})"
        )
