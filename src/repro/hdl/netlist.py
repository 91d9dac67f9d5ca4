"""The netlist intermediate representation: the one circuit object.

A :class:`Netlist` is the common currency of the toolchain: ChiselTorch
elaboration produces one, the synthesis passes (boolean and multi-bit)
rewrite one, the assembler serializes one, the analyzer certifies one,
and every backend executes one.

Nodes are integers.  Node ids ``0 .. num_inputs-1`` are the circuit
inputs; gate ``j`` has node id ``num_inputs + j``.  Gates are stored in
topological order (producers before consumers) in flat columns, which
keeps multi-million-gate MNIST netlists cheap to hold and traverse:

==============  =======  =============================================
column          dtype    meaning (which ops read it)
==============  =======  =============================================
``ops``         uint8    op code per gate: a :class:`Gate` nibble or
                         LIN/LUT/B2D/D2B (all)
``in0``/``in1`` int64    operand node ids, ``NO_INPUT`` when unused
                         (by arity; LIN may omit ``in1``)
``outputs``     int64    node id of each circuit output
``input_prec``  int32    per input wire: 0 = boolean, else digit
                         modulus ``p`` (client encoding, LIN/LUT/D2B)
``input_bound`` int64    largest message the client contract places
                         on an input wire (MB001 interval analysis)
``prec``        int32    per gate output wire, same convention
                         (LIN/LUT/B2D write it; readers' tables)
``kx``/``ky``   int32    LIN coefficients (LIN)
``kconst``      int64    LIN constant (LIN)
``table_id``    int32    index into ``tables``, -1 = none (LUT/B2D/D2B)
``tables``      int64[]  the lookup-table segment (LUT/B2D/D2B)
==============  =======  =============================================

A boolean netlist is the degenerate case — no tables, every precision
zero — and pays nothing for the columns it does not use: they are
zero-stride read-only views of one scalar.

Construction validates **structure** only (known op codes, operand
direction, column lengths, table existence).  Semantic soundness —
noise margins, digit ranges staying inside the modulus, tables agreeing
with their operand's precision — is the analyzer's job
(:mod:`repro.analyze`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gatetypes import (
    CODE_TRUTH,
    CODE_USES_TABLE,
    KNOWN_CODE,
    NO_INPUT,
    NUM_CODES,
    OP_B2D,
    OP_LIN,
    Gate,
    op_name,
)
from .facts import FlatCircuitFacts

#: Largest ``(nodes x vectors)`` value plane :meth:`Netlist.evaluate`
#: holds at once; bigger batches are evaluated in slices.
_EVALUATE_PLANE_ELEMENTS = 1 << 22

#: Op codes above this are multi-bit ops.
_LAST_GATE_CODE = int(max(Gate))

_ZERO32, _NONE32 = np.int32(0), np.int32(-1)
_ZERO64, _ONE64 = np.int64(0), np.int64(1)
_FILL_BYTES = {
    fill: fill.tobytes() for fill in (_ZERO32, _NONE32, _ZERO64, _ONE64)
}


@dataclass
class NetlistStats:
    """Summary statistics of a netlist (paper Figs. 10/14 use these)."""

    num_inputs: int
    num_outputs: int
    num_gates: int
    num_bootstrapped_gates: int
    gate_histogram: Dict[str, int]
    bootstrap_depth: int
    max_level_width: int
    mean_level_width: float

    def __str__(self) -> str:
        lines = [
            f"inputs={self.num_inputs} outputs={self.num_outputs} "
            f"gates={self.num_gates} bootstrapped={self.num_bootstrapped_gates}",
            f"bootstrap depth={self.bootstrap_depth} "
            f"max width={self.max_level_width} "
            f"mean width={self.mean_level_width:.1f}",
        ]
        hist = ", ".join(
            f"{k}:{v}" for k, v in sorted(self.gate_histogram.items())
        )
        lines.append(f"histogram: {hist}")
        return "\n".join(lines)


def _column(values, fill: np.generic, length: int) -> np.ndarray:
    """A per-gate/per-input column; absent means a zero-stride ``fill``
    (``np.broadcast_to`` semantics: read-only, no per-element memory)."""
    if values is None:
        return np.ndarray((length,), fill.dtype, _FILL_BYTES[fill], 0, (0,))
    return np.asarray(values, dtype=fill.dtype)


class Netlist:
    """An immutable combinational circuit: a DAG of boolean gates and
    multi-bit ops over boolean and digit wires."""

    def __init__(
        self,
        num_inputs: int,
        ops: Sequence[int],
        in0: Sequence[int],
        in1: Sequence[int],
        outputs: Sequence[int],
        input_names: Optional[List[str]] = None,
        output_names: Optional[List[str]] = None,
        name: str = "netlist",
        *,
        input_prec: Optional[Sequence[int]] = None,
        input_bound: Optional[Sequence[int]] = None,
        prec: Optional[Sequence[int]] = None,
        kx: Optional[Sequence[int]] = None,
        ky: Optional[Sequence[int]] = None,
        kconst: Optional[Sequence[int]] = None,
        table_id: Optional[Sequence[int]] = None,
        tables: Sequence[Sequence[int]] = (),
        io=None,
    ):
        self.num_inputs = n_in = int(num_inputs)
        self.name = name
        codes = np.asarray(ops)
        if codes.dtype.kind not in "iu":
            codes = codes.astype(np.int64)
        self.in0 = np.asarray(in0, dtype=np.int64)
        self.in1 = np.asarray(in1, dtype=np.int64)
        self.outputs = np.asarray(outputs, dtype=np.int64)
        n_gates = len(codes)
        self.input_prec = _column(input_prec, _ZERO32, n_in)
        self.prec = _column(prec, _ZERO32, n_gates)
        self.kx = _column(kx, _ZERO32, n_gates)
        self.ky = _column(ky, _ZERO32, n_gates)
        self.kconst = _column(kconst, _ZERO64, n_gates)
        self.table_id = _column(table_id, _NONE32, n_gates)
        self.tables = [
            np.asarray(t, dtype=np.int64).reshape(-1) for t in tables
        ]
        if input_bound is None and input_prec is not None:
            # Worst case: a digit wire may carry any message in [0, p).
            input_bound = np.maximum(
                self.input_prec.astype(np.int64) - 1, 1
            )
        self.input_bound = _column(input_bound, _ONE64, n_in)
        #: Client-side bit <-> wire contract of a synthesized netlist
        #: (:class:`repro.mblut.MbIoMap`); never serialized.
        self.io = io
        self.input_names = input_names or [f"in{i}" for i in range(n_in)]
        self.output_names = output_names or [
            f"out{i}" for i in range(len(self.outputs))
        ]
        #: The cached derived columns (levels, rounds, operand masks).
        #: Built over the full-width op codes: narrowing first would
        #: wrap 262 to XOR before it could be rejected.
        self.facts = self._validated_facts(codes)
        self.ops = self.facts.ops = codes.astype(np.uint8)
        #: True when any wire is a digit, any op is multi-bit, or a
        #: table exists: the circuit needs format-1 words and the
        #: multi-bit analysis families.  A plain boolean netlist is not.
        self.is_multibit = bool(
            self.tables
            or (input_prec is not None and self.input_prec.any())
            or (prec is not None and self.prec.any())
            or (n_gates and self.ops.max() > _LAST_GATE_CODE)
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_nodes(self) -> int:
        return self.num_inputs + self.num_gates

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def is_input(self, node: int) -> bool:
        return 0 <= node < self.num_inputs

    def gate_of(self, node: int) -> Gate:
        return Gate(int(self.ops[node - self.num_inputs]))

    def node_prec(self, node: int) -> int:
        """Precision of a wire: 0 = boolean, else digit modulus."""
        if node < self.num_inputs:
            return int(self.input_prec[node])
        return int(self.prec[node - self.num_inputs])

    def node_precisions(self) -> np.ndarray:
        """Per-node precision column (inputs then gates)."""
        return np.concatenate(
            (self.input_prec.astype(np.int64), self.prec.astype(np.int64))
        )

    def _validated_facts(self, codes: np.ndarray) -> FlatCircuitFacts:
        """Check every structural invariant; return the derived view.

        The facts view computes the op-code and per-slot ``usable``
        masks (operand present, in range, strictly backward) over the
        borrowed columns; a netlist is valid exactly when every code is
        known and every operand its ops read is usable, so the masks
        that validate it are the ones its levels, schedule and analyses
        are later derived from.
        """
        n_in, n_gates = self.num_inputs, len(codes)
        for label in ("in0", "in1", "prec", "kx", "ky", "kconst", "table_id"):
            if len(getattr(self, label)) != n_gates:
                raise ValueError(
                    f"ops/{label} length mismatch: {label} has "
                    f"{len(getattr(self, label))} entries, ops {n_gates}"
                )
        for label in ("input_prec", "input_bound", "input_names"):
            if len(getattr(self, label)) != n_in:
                raise ValueError(f"{label} length mismatch")
        if len(self.output_names) != len(self.outputs):
            raise ValueError("output_names length mismatch")
        facts = FlatCircuitFacts(
            self.name, n_in, codes, self.in0, self.in1, self.outputs,
            self.input_names, self.output_names,
        )
        known = facts.known
        if not known.all():
            idx = int(np.argmin(known))
            raise ValueError(
                f"gate index {idx} (node {n_in + idx}): unknown op code "
                f"{int(codes[idx]):#x}; valid codes are "
                f"{[hex(c) for c in np.nonzero(KNOWN_CODE)[0]]}"
            )
        arity = facts.arity
        lin_alone = (codes == OP_LIN) & (self.in1 == NO_INPUT)
        bad0 = (arity >= 1) & ~facts.usable0
        bad1 = (arity == 2) & ~facts.usable1 & ~lin_alone
        bad = bad0 | bad1
        if bad.any():
            idx = int(np.argmax(bad))
            node = n_in + idx
            slot, value = (
                ("input0", int(self.in0[idx]))
                if bad0[idx]
                else ("input1", int(self.in1[idx]))
            )
            detail = (
                "reads itself"
                if value == node
                else f"reads later node {value}"
                if value >= node
                else f"is {value}"
            )
            raise ValueError(
                f"gate index {idx} (node {node}, "
                f"{op_name(int(codes[idx]))}, arity {int(arity[idx])}) "
                f"{slot} {detail}; operands must name an existing earlier "
                f"node in [0, {node}) — inputs occupy [0, {n_in}), gates "
                f"start at {n_in}"
            )
        table_id = self.table_id
        missing = CODE_USES_TABLE[codes] & ~(
            (table_id >= 0) & (table_id < len(self.tables))
        )
        if missing.any():
            idx = int(np.argmax(missing))
            raise ValueError(
                f"gate index {idx} ({op_name(int(codes[idx]))}) "
                f"references table {int(table_id[idx])}, but only "
                f"{len(self.tables)} tables exist"
            )
        outs = self.outputs
        stray = (outs < 0) | (outs >= n_in + n_gates)
        if stray.any():
            pos = int(np.argmax(stray))
            raise ValueError(
                f"output {pos} ({self.output_names[pos]!r}) references "
                f"node {int(outs[pos])}, but this netlist only has nodes "
                f"[0, {n_in + n_gates}) ({n_in} inputs + {n_gates} gates)"
            )
        return facts

    # ------------------------------------------------------------------
    # Levels / statistics
    # ------------------------------------------------------------------
    def bootstrap_levels(self) -> np.ndarray:
        """Per-node bootstrap level (see ``FlatCircuitFacts.node_levels``)."""
        return self.facts.node_levels

    @property
    def needs_bootstrap(self) -> np.ndarray:
        """Per-gate bool: homomorphic evaluation bootstraps the gate."""
        return self.facts.needs_bootstrap

    @property
    def num_lut_bootstraps(self) -> int:
        """Bootstraps that blind-rotate a programmable table."""
        return int(CODE_USES_TABLE[self.ops].sum())

    def stats(self) -> NetlistStats:
        counts = np.bincount(self.ops, minlength=NUM_CODES)
        histogram = {
            op_name(code): int(count)
            for code, count in enumerate(counts)
            if count
        }
        needs = self.needs_bootstrap
        num_bs = int(needs.sum())
        depth, max_width, mean_width = 0, 0, 0.0
        if num_bs:
            gate_levels = self.bootstrap_levels()[self.num_inputs :][needs]
            __, widths = np.unique(gate_levels, return_counts=True)
            depth = int(gate_levels.max())
            max_width = int(widths.max())
            mean_width = float(widths.mean())
        return NetlistStats(
            num_inputs=self.num_inputs,
            num_outputs=self.num_outputs,
            num_gates=self.num_gates,
            num_bootstrapped_gates=num_bs,
            gate_histogram=histogram,
            bootstrap_depth=depth,
            max_level_width=max_width,
            mean_level_width=mean_width,
        )

    # ------------------------------------------------------------------
    # Plaintext evaluation (reference semantics)
    # ------------------------------------------------------------------
    def evaluate(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate on plaintext input vectors.

        ``inputs`` has shape ``(num_inputs,)`` or ``(batch, num_inputs)``;
        the result has shape ``(num_outputs,)`` or ``(batch, num_outputs)``.
        A boolean netlist takes and returns bools.  A multi-bit netlist
        takes per-wire integer messages — boolean wires carry 0/1, digit
        wires their message in ``[0, p)`` — and returns one integer per
        output wire; LUT indices are reduced modulo the table length,
        the torus wraparound an uncertified circuit would hit (certified
        circuits, MB001 clean, never rely on it).  This is the reference
        semantics every backend must agree with.
        """
        arr = np.asarray(inputs)
        if not self.is_multibit:
            arr = arr.astype(bool)
        arr = arr.astype(np.int64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {arr.shape[1]}"
            )
        step = max(1, _EVALUATE_PLANE_ELEMENTS // max(self.num_nodes, 1))
        out = np.concatenate(
            [
                self._evaluate_plane(arr[start : start + step])
                for start in range(0, max(len(arr), 1), step)
            ]
        )
        if not self.is_multibit:
            out = out.astype(bool)
        return out[0] if single else out

    def _evaluate_plane(self, arr: np.ndarray) -> np.ndarray:
        """One dependency round at a time over a ``(nodes, batch)`` plane."""
        n_in = self.num_inputs
        values = np.zeros((self.num_nodes, len(arr)), dtype=np.int64)
        values[:n_in] = arr.T
        if self.tables:
            flat_tables = np.concatenate(self.tables)
            sizes = np.array([len(t) for t in self.tables], dtype=np.int64)
            starts = np.cumsum(sizes) - sizes
        for ids in self.facts.rounds:
            codes = self.ops[ids]
            # An unused operand (NO_INPUT = -1) gathers the last row;
            # no op reads the slot it leaves unused.
            a = values[self.in0[ids]]
            b = values[self.in1[ids]]
            out = (
                CODE_TRUTH[codes][:, None] >> (((a & 1) << 1) | (b & 1))
            ) & 1
            if self.is_multibit:
                lin = np.nonzero(codes == OP_LIN)[0]
                if lin.size:
                    g = ids[lin]
                    paired = (self.in1[g] != NO_INPUT)[:, None]
                    out[lin] = (
                        self.kx[g, None] * a[lin]
                        + self.ky[g, None] * (b[lin] * paired)
                        + self.kconst[g, None]
                    )
                tab = np.nonzero(CODE_USES_TABLE[codes])[0]
                if tab.size:
                    tid = self.table_id[ids[tab]]
                    index = np.where(
                        (codes[tab] == OP_B2D)[:, None],
                        a[tab] != 0,
                        a[tab] % sizes[tid, None],
                    )
                    out[tab] = flat_tables[starts[tid, None] + index]
            values[n_in + ids] = out
        return values[self.outputs].T

    def evaluate_bits(self, bits: np.ndarray) -> np.ndarray:
        """Boolean-contract evaluation through the synthesis I/O map.

        Takes/returns the *source* netlist's boolean bit vectors, so the
        result is directly comparable against the boolean oracle.
        """
        if self.io is None:
            raise ValueError(
                "this netlist carries no I/O map (e.g. it was "
                "disassembled from a binary); evaluate() on wire "
                "messages instead"
            )
        values = self.io.encode_inputs(bits, self.input_prec)
        return self.io.decode_outputs(self.evaluate(values))

    def __repr__(self) -> str:
        luts = f", luts={self.num_lut_bootstraps}" if self.is_multibit else ""
        return (
            f"Netlist({self.name!r}, inputs={self.num_inputs}, "
            f"gates={self.num_gates}, outputs={self.num_outputs}{luts})"
        )
