"""Netlist optimization passes — the augmented-Yosys stage of the flow.

All passes are rewrites from :class:`Netlist` to :class:`Netlist`.
``optimize`` is two stages.  The first — alone in its special cases
``structural_hash`` and ``dead_gate_elimination`` — returns exactly the
netlist a :class:`~repro.hdl.builder.CircuitBuilder` with the same
switches would build if every output-reachable gate were re-emitted
through it in gate order: the builder's local rules are the one
specification.  They are applied as column sweeps over the netlist's
arrays, visiting only the dependency rounds that hold a gate a rule
touches (DESIGN.md §1.4), so a netlist the builder already normalized —
every elaborated program — costs one reachability sweep and one
``cumsum`` compaction.  The second maps the result onto one-bootstrap
MAJ3/XOR3 cells (:mod:`repro.synth.cells`).  A cell's LIN and SIGN ops
pass through the first stage as they are: no rule reads or rewrites
them, only their operands are renumbered.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..gatetypes import (
    CELL_OPS,
    CODE_ARITY,
    CODE_TRUTH,
    INVERT_A,
    INVERT_B,
    NUM_CODES,
    SWAP,
    Gate,
    op_name,
)
from ..hdl.builder import CircuitBuilder
from ..hdl.facts import FlatCircuitFacts
from ..hdl.netlist import NO_INPUT, Netlist
from ..obs import get as _get_obs
from . import cells

_CONST0, _CONST1 = int(Gate.CONST0), int(Gate.CONST1)
_NOT, _BUF = int(Gate.NOT), int(Gate.BUF)
_LAST_GATE = int(max(Gate))
#: ``_IS_CELL[code]``: the op is a cell's LIN or SIGN.
_IS_CELL = np.zeros(NUM_CODES, dtype=bool)
_IS_CELL[list(CELL_OPS)] = True


def _code_map(table: Dict[Gate, Gate]) -> np.ndarray:
    """A gate -> gate map as an op-code-indexed column (-1: no entry)."""
    column = np.full(NUM_CODES, -1, dtype=np.int64)
    for key, value in table.items():
        column[key] = value
    return column


_INVERT_A = _code_map(INVERT_A)
_INVERT_B = _code_map(INVERT_B)
_SWAP = _code_map(SWAP)


def _canonical(ops: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The builder's operand order for sharing: a swappable gate reads
    its lower operand first."""
    swapped = _SWAP[ops]
    turn = (swapped >= 0) & (a > b)
    return (
        np.where(turn, swapped, ops), np.where(turn, b, a), np.where(turn, a, b)
    )


def _record_pass(
    name: str,
    source: Netlist,
    result: Netlist,
    cse_hits: int = 0,
) -> None:
    """Report one pass's gate delta to the ambient metrics registry."""
    ob = _get_obs()
    if not ob.active:
        return
    removed = source.num_gates - result.num_gates
    ob.metrics.inc("synth_pass_runs", 1, **{"pass": name})
    ob.metrics.inc("synth_gates_removed", removed, **{"pass": name})
    if cse_hits:
        ob.metrics.inc("synth_cse_hits", cse_hits, **{"pass": name})
    ob.metrics.observe("synth_gates_out", result.num_gates, **{"pass": name})


def reachable_mask(netlist: Netlist) -> np.ndarray:
    """Boolean mask over all nodes reachable backward from the outputs
    through the operand slots each op reads."""
    return netlist.facts.output_reachable()


def _compact(
    source: Netlist,
    ops: np.ndarray,
    in0: np.ndarray,
    in1: np.ndarray,
    outputs: np.ndarray,
    keep: np.ndarray,
    share: bool,
    origin: Optional[np.ndarray] = None,
) -> Netlist:
    """The ``keep`` gates of ``(ops, in0, in1)``, in order and renumbered.

    Unused operand slots must already hold ``NO_INPUT``.  With ``share``
    the swappable gates get the builder's operand order (``in0 < in1``).
    A cell op takes its coefficients from the source gate ``origin``
    names (by default the gate at its own position).
    """
    n_in, n_gates = source.num_inputs, len(ops)
    new_id = np.empty(n_in + n_gates + 1, dtype=np.int64)
    new_id[:n_in] = np.arange(n_in)
    new_id[n_in:-1] = n_in - 1 + np.cumsum(keep)
    new_id[-1] = NO_INPUT
    ops = ops[keep]
    a = new_id[in0[keep]]
    b = new_id[in1[keep]]
    if share:
        ops, a, b = _canonical(ops, a, b)
    coefficients = {}
    if source.is_multibit:
        at = np.nonzero(keep)[0] if origin is None else origin[keep]
        cell = _IS_CELL[ops]
        at = np.where(cell, at, 0)
        for column in ("kx", "ky", "kconst"):
            values = getattr(source, column)
            coefficients[column] = np.where(cell, values[at], 0).astype(
                values.dtype
            )
    return Netlist(
        n_in, ops, a, b, new_id[outputs],
        input_names=list(source.input_names),
        output_names=list(source.output_names),
        name=source.name,
        **coefficients,
    )


class _Sweep:
    """One application of the builder's rules to a netlist's columns.

    Every node of the result has a *label*: a gate no rule touches keeps
    its own node id, and a node the sweep creates gets a fresh label past
    ``num_nodes``.  Labels only say which requests share a node; node ids
    are assigned at the end, in creation order.  The node facts the rules
    read (constant value, NOT operand) are columns indexed by label, with
    a spare last slot that ``NO_INPUT`` reads.
    """

    def __init__(
        self, netlist: Netlist, in0: np.ndarray, in1: np.ndarray,
        fold: bool, share: bool, absorb: bool,
    ):
        self.netlist = netlist
        self.fold, self.share, self.absorb = fold, share, absorb
        self.n_in = n_in = netlist.num_inputs
        self.n_nodes = n_nodes = netlist.num_nodes
        self.ops = ops = netlist.ops
        self.in0, self.in1 = in0, in1
        size = n_nodes + netlist.num_gates
        self.radix = size + 1
        self.const_of = np.full(size + 1, -1, dtype=np.int64)
        self.not_of = np.full(size + 1, -1, dtype=np.int64)
        self.is_const = (ops == _CONST0) | (ops == _CONST1)
        self.is_cell = _IS_CELL[ops]
        self.const_of[n_in:n_nodes][self.is_const] = (
            ops[self.is_const].astype(np.int64) - _CONST0
        )
        is_not = ops == _NOT
        self.not_of[n_in:n_nodes][is_not] = in0[is_not]
        self.created = 0
        self.created_keys: Dict[int, int] = {}
        self.cse_hits = 0

    def keys(self, ops: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(op, a, b)`` packed in one int64, operand order canonical
        when sharing (the two forms of a swappable gate are one node)."""
        if self.share:
            ops, a, b = _canonical(ops, a, b)
        radix = self.radix
        return (ops.astype(np.int64) * radix + (a + 1)) * radix + (b + 1)

    def touched(self, live: np.ndarray) -> np.ndarray:
        """Per gate: live, and some rule changes its request.

        Also builds the lookup table of the untouched nodes a request
        may be shared with: every untouched constant, and every
        untouched gate when sharing.
        """
        ops, a, b = self.ops, self.in0, self.in1
        const_of, not_of = self.const_of, self.not_of
        touched = np.zeros(len(ops), dtype=bool)
        if self.fold:
            a_const = const_of[a] >= 0
            touched |= ops == _BUF
            touched |= (ops == _NOT) & (a_const | (not_of[a] >= 0))
            touched |= (CODE_ARITY[ops] == 2) & (ops <= _LAST_GATE) & (
                a_const | (const_of[b] >= 0) | (a == b)
            )
        if self.absorb:
            touched |= (not_of[a] >= 0) & (_INVERT_A[ops] >= 0)
            touched |= (not_of[b] >= 0) & (_INVERT_B[ops] >= 0)
        touched &= live
        # Structural duplicates, one sort over the packed keys: each
        # duplicate of the earliest gate with its key is touched, and the
        # sweep shares it with that gate.
        shared = live & ~touched & ~self.is_cell
        if not self.share:
            shared &= self.is_const
        gates = np.nonzero(shared)[0]
        keys = self.keys(ops[gates], a[gates], b[gates])
        order = np.argsort(keys, kind="stable")
        keys, gates = keys[order], gates[order]
        dup = np.zeros(len(keys), dtype=bool)
        dup[1:] = keys[1:] == keys[:-1]
        touched[gates[dup]] = True
        self.table_keys = keys[~dup]
        self.table_labels = self.n_in + gates[~dup]
        return touched

    def run(
        self, live: np.ndarray, touched: np.ndarray, rounds: List[np.ndarray]
    ) -> Netlist:
        """Sweep the ``rounds`` that hold a touched gate or read a moved
        node, then emit the result in creation order."""
        n_in, n_nodes = self.n_in, self.n_nodes
        ops, in0, in1 = self.ops, self.in0, self.in1
        # Form of each label: the gates' own columns, then created nodes.
        inputs = np.full(n_in, NO_INPUT, dtype=np.int64)
        slots = np.empty(len(ops) + 1, dtype=np.int64)
        self.form_op, self.form_a, self.form_b = (
            np.concatenate((inputs, column, slots)) for column in (ops, in0, in1)
        )
        label = np.append(np.arange(n_nodes, dtype=np.int64), NO_INPUT)
        moved = np.zeros(n_nodes + 1, dtype=bool)
        for bucket in rounds:
            todo = bucket[
                live[bucket]
                & (touched[bucket] | moved[in0[bucket]] | moved[in1[bucket]])
            ]
            if not todo.size:
                continue
            # A cell op keeps its node and form; only its operands move.
            cell = self.is_cell[todo]
            if cell.any():
                kept = todo[cell]
                self.form_a[n_in + kept] = label[in0[kept]]
                self.form_b[n_in + kept] = label[in1[kept]]
                todo = todo[~cell]
            label[n_in + todo] = self._request(
                ops[todo], label[in0[todo]], label[in1[todo]]
            )
            # A request never answers with the requesting gate's own id.
            moved[n_in + todo] = True
        # Each node is created by the first gate, in gate order, that
        # requests it; its id is that gate's rank among the creators.
        gates = np.nonzero(live)[0]
        nodes, first = np.unique(label[n_in + gates], return_index=True)
        made = nodes >= n_in
        nodes = nodes[made][np.argsort(gates[first[made]])]
        new_id = np.full(self.radix, NO_INPUT, dtype=np.int64)
        new_id[:n_in] = np.arange(n_in)
        new_id[nodes] = n_in + np.arange(len(nodes))
        out_ops = self.form_op[nodes]
        out_a = new_id[self.form_a[nodes]]
        out_b = new_id[self.form_b[nodes]]
        outputs = new_id[label[self.netlist.outputs]]
        # Rewriting can orphan nodes (a NOT whose only reader absorbed
        # it): keep what the outputs still reach.
        keep = FlatCircuitFacts(
            self.netlist.name, n_in, out_ops, out_a, out_b, outputs
        ).output_reachable()[n_in:]
        return _compact(
            self.netlist, out_ops, out_a, out_b, outputs, keep, self.share,
            origin=np.where(nodes < n_nodes, nodes - n_in, 0),
        )

    # -- the builder's rules, vectorized over one round's requests ------
    def _request(
        self, ops: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """The label answering each request ``(op, a, b)`` (labels)."""
        const_of, not_of = self.const_of, self.not_of
        answer = np.full(len(ops), NO_INPUT, dtype=np.int64)
        form_op = np.full(len(ops), -1, dtype=np.int64)
        form_a = np.full(len(ops), NO_INPUT, dtype=np.int64)
        form_b = np.full(len(ops), NO_INPUT, dtype=np.int64)
        forms = (answer, form_op, form_a)
        arity = CODE_ARITY[ops]
        nullary = arity == 0
        form_op[nullary] = ops[nullary]
        buf = np.nonzero(ops == _BUF)[0]
        if self.fold:
            answer[buf] = a[buf]
        else:
            form_op[buf], form_a[buf] = _BUF, a[buf]
        nots = np.nonzero(ops == _NOT)[0]
        self._not(nots, a[nots], *forms)
        rows = np.nonzero(arity == 2)[0]
        op, a, b = ops[rows].astype(np.int64), a[rows], b[rows]
        while rows.size:
            if self.fold:
                ca, cb = const_of[a], const_of[b]
                hit = (ca >= 0) | (cb >= 0) | (a == b)
                if hit.any():
                    ca, cb = ca[hit], cb[hit]
                    a_known, b_known = ca >= 0, cb >= 0
                    # Truth-table bits (2*a + b) of the residual function
                    # of ``b`` when ``a`` is known, else of ``a``, at 0
                    # and at 1.  With both known, the residual of the
                    # constant ``b`` folds to the same constant node.
                    low = np.where(a_known, 2 * ca, np.where(b_known, cb, 0))
                    high = np.where(
                        a_known, 2 * ca + 1, np.where(b_known, 2 + cb, 3)
                    )
                    truth = CODE_TRUTH[op[hit]]
                    self._shape(
                        rows[hit], truth >> low & 1, truth >> high & 1,
                        np.where(a_known, b[hit], a[hit]), *forms,
                    )
                    keep = ~hit
                    rows, op, a, b = rows[keep], op[keep], a[keep], b[keep]
            into_a = into_b = np.zeros(len(rows), dtype=bool)
            if self.absorb:
                source_a, swap_a = not_of[a], _INVERT_A[op]
                source_b, swap_b = not_of[b], _INVERT_B[op]
                into_a = (source_a >= 0) & (swap_a >= 0)
                into_b = ~into_a & (source_b >= 0) & (swap_b >= 0)
            done = ~(into_a | into_b)
            form_op[rows[done]] = op[done]
            form_a[rows[done]] = a[done]
            form_b[rows[done]] = b[done]
            if done.all():
                break
            op = np.where(into_a, swap_a, np.where(into_b, swap_b, op))
            a = np.where(into_a, source_a, a)
            b = np.where(into_b, source_b, b)
            keep = ~done
            rows, op, a, b = rows[keep], op[keep], a[keep], b[keep]
        rows = np.nonzero(form_op >= 0)[0]
        answer[rows] = self._node(form_op[rows], form_a[rows], form_b[rows])
        return answer

    def _not(self, rows, x, answer, form_op, form_a) -> None:
        """``NOT x``: folds a constant, collapses a double negation."""
        if self.fold:
            value, source = self.const_of[x], self.not_of[x]
            const = value >= 0
            form_op[rows[const]] = _CONST1 - value[const]
            wire = ~const & (source >= 0)
            answer[rows[wire]] = source[wire]
            rest = ~(const | wire)
            rows, x = rows[rest], x[rest]
        form_op[rows], form_a[rows] = _NOT, x

    def _shape(self, rows, at_0, at_1, x, answer, form_op, form_a) -> None:
        """A unary residual function of ``x``: constant, ``x`` or NOT x."""
        const = at_0 == at_1
        form_op[rows[const]] = _CONST0 + at_0[const]
        wire = ~const & (at_1 == 1)
        answer[rows[wire]] = x[wire]
        rest = ~(const | wire)
        self._not(rows[rest], x[rest], answer, form_op, form_a)

    def _node(self, ops: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Label of the node each form ``(op, a, b)`` appends: an
        existing one when shared (every constant is), else a new one."""
        keys = self.keys(ops, a, b)
        labels = np.full(len(ops), NO_INPUT, dtype=np.int64)
        const = ops >= _CONST0
        shared = const | self.share
        rows = np.nonzero(shared)[0]
        table = self.table_keys
        if table.size and rows.size:
            at = np.minimum(np.searchsorted(table, keys[rows]), table.size - 1)
            found = table[at] == keys[rows]
            labels[rows[found]] = self.table_labels[at[found]]
        rows = rows[labels[rows] < 0]
        if rows.size and self.created_keys:
            get = self.created_keys.get
            labels[rows] = [get(key, NO_INPUT) for key in keys[rows].tolist()]
        new = np.nonzero(labels < 0)[0]
        # Rows asking for one shared form get one node; an unshared
        # form is a node per row.
        group = np.where(shared[new], keys[new], -1 - np.arange(len(new)))
        group, first, inverse = np.unique(
            group, return_index=True, return_inverse=True
        )
        fresh = self.n_nodes + self.created + np.arange(len(group))
        self.created += len(group)
        labels[new] = fresh[inverse.reshape(-1)]
        made = new[first]
        self.form_op[fresh] = ops[made]
        self.form_a[fresh] = a[made]
        self.form_b[fresh] = b[made]
        self.const_of[fresh] = np.where(const[made], ops[made] - _CONST0, -1)
        self.not_of[fresh] = np.where(ops[made] == _NOT, a[made], -1)
        keyed = group >= 0
        self.created_keys.update(
            zip(group[keyed].tolist(), fresh[keyed].tolist())
        )
        if self.share:
            # Every non-constant request beyond a node's first is a hit.
            self.cse_hits += int((~const).sum() - (~const[made]).sum())
        return labels


def _rewrite(
    netlist: Netlist, fold: bool, share: bool, absorb: bool
) -> Tuple[Netlist, int]:
    """The builder's rules over the output-reachable gates:
    ``(result, cse_hits)``."""
    n_in = netlist.num_inputs
    # A view of its own: the traversal is not cached on a netlist that
    # is usually dropped once optimized.
    facts = FlatCircuitFacts(
        netlist.name, n_in, netlist.ops, netlist.in0, netlist.in1,
        netlist.outputs,
    )
    live = facts.output_reachable()[n_in:]
    ops = netlist.ops
    foreign = live & (ops > _LAST_GATE) & ~_IS_CELL[ops]
    if foreign.any():
        idx = int(np.argmax(foreign))
        raise ValueError(
            f"gate index {idx} is {op_name(int(ops[idx]))}: the synthesis "
            f"passes rewrite boolean gates and cells only"
        )
    arity = facts.arity
    in0 = np.where(arity >= 1, netlist.in0, NO_INPUT)
    in1 = np.where(arity == 2, netlist.in1, NO_INPUT)
    sweep = _Sweep(netlist, in0, in1, fold, share, absorb)
    touched = sweep.touched(live)
    if not touched.any():
        return _compact(netlist, ops, in0, in1, netlist.outputs, live, share), 0
    return sweep.run(live, touched, facts.rounds), sweep.cse_hits


def dead_gate_elimination(netlist: Netlist) -> Netlist:
    """Drop gates not reachable from any output (no other rewriting)."""
    with _get_obs().tracer.span(
        "synth:dead_gate_elimination", cat="compile",
        gates_in=netlist.num_gates,
    ) as sp:
        result, _ = _rewrite(netlist, False, False, False)
        sp.args["gates_out"] = result.num_gates
    _record_pass("dead_gate_elimination", netlist, result)
    return result


def optimize(
    netlist: Netlist,
    fold_constants: bool = True,
    share_structure: bool = True,
    absorb_inverters: bool = True,
) -> Netlist:
    """The full PyTFHE synthesis pipeline on an existing netlist: the
    builder's rules, then the MAJ3/XOR3 cell mapping."""
    with _get_obs().tracer.span(
        "synth:optimize", cat="compile", gates_in=netlist.num_gates,
        fold_constants=fold_constants, share_structure=share_structure,
        absorb_inverters=absorb_inverters,
    ) as sp:
        result, cse_hits = _rewrite(
            netlist, fold_constants, share_structure, absorb_inverters
        )
        result = cells.map_cells(result)
        sp.args["gates_out"] = result.num_gates
        sp.args["cse_hits"] = cse_hits
    _record_pass("optimize", netlist, result, cse_hits=cse_hits)
    return result


def structural_hash(netlist: Netlist) -> Netlist:
    """CSE only (no folding, no absorption, no cell mapping)."""
    with _get_obs().tracer.span(
        "synth:structural_hash", cat="compile", gates_in=netlist.num_gates,
    ) as sp:
        result, cse_hits = _rewrite(netlist, False, True, False)
        sp.args["gates_out"] = result.num_gates
        sp.args["cse_hits"] = cse_hits
    _record_pass("structural_hash", netlist, result, cse_hits=cse_hits)
    return result


#: Decompositions of composite gates into the {AND, OR, NOT, XOR} base.
_BASIC_DECOMP = {
    Gate.NAND: ("not", Gate.AND, False, False),
    Gate.NOR: ("not", Gate.OR, False, False),
    Gate.XNOR: ("not", Gate.XOR, False, False),
    Gate.ANDNY: ("plain", Gate.AND, True, False),
    Gate.ANDYN: ("plain", Gate.AND, False, True),
    Gate.ORNY: ("plain", Gate.OR, True, False),
    Gate.ORYN: ("plain", Gate.OR, False, True),
}


def restrict_gate_set(
    netlist: Netlist,
    allowed: Iterable[Gate] = (Gate.AND, Gate.OR, Gate.NOT, Gate.XOR),
) -> Netlist:
    """Rewrite composite gates into a smaller base.

    Used to model frontends like Google Transpiler whose IR only knows
    AND/OR/NOT (and, depending on configuration, XOR): composite gates
    become explicit inverter trees, inflating gate counts.
    """
    allowed_set: FrozenSet[Gate] = frozenset(Gate(g) for g in allowed)
    for required in (Gate.AND, Gate.OR, Gate.NOT):
        if required not in allowed_set:
            raise ValueError("restrict_gate_set needs at least AND/OR/NOT")
    builder = CircuitBuilder(
        hash_cons=False,
        fold_constants=False,
        absorb_inverters=False,
        name=netlist.name,
    )

    xor_allowed = Gate.XOR in allowed_set

    def emit(gate: Gate, a: int, b: int) -> int:
        if gate in allowed_set:
            return builder.gate(gate, a, b)
        if gate is Gate.XOR and not xor_allowed:
            either = builder.gate(Gate.OR, a, b)
            both = builder.gate(Gate.AND, a, b)
            return builder.gate(
                Gate.AND, either, builder.gate(Gate.NOT, both)
            )
        if gate is Gate.XNOR and not xor_allowed:
            return builder.gate(Gate.NOT, emit(Gate.XOR, a, b))
        decomp = _BASIC_DECOMP.get(gate)
        if decomp is None:
            raise ValueError(f"cannot decompose {gate.name}")
        kind, base, invert_a, invert_b = decomp
        if invert_a:
            a = builder.gate(Gate.NOT, a)
        if invert_b:
            b = builder.gate(Gate.NOT, b)
        if kind == "not":
            return builder.gate(Gate.NOT, emit(base, a, b))
        return builder.gate(base, a, b)

    with _get_obs().tracer.span(
        "synth:restrict_gate_set", cat="compile",
        gates_in=netlist.num_gates,
    ) as sp:
        mapping: List[int] = [0] * netlist.num_nodes
        for i in range(netlist.num_inputs):
            mapping[i] = builder.input(netlist.input_names[i])
        n_in = netlist.num_inputs
        for idx in range(netlist.num_gates):
            gate = Gate(int(netlist.ops[idx]))
            a = int(netlist.in0[idx])
            b = int(netlist.in1[idx])
            if gate.arity == 0:
                if gate not in allowed_set and gate not in (
                    Gate.CONST0,
                    Gate.CONST1,
                ):
                    raise ValueError(f"cannot decompose {gate.name}")
                mapping[n_in + idx] = builder.gate(gate)
            elif gate.arity == 1:
                target = mapping[a]
                if gate is Gate.BUF:
                    mapping[n_in + idx] = builder.gate(Gate.BUF, target)
                else:
                    mapping[n_in + idx] = builder.gate(Gate.NOT, target)
            else:
                mapping[n_in + idx] = emit(gate, mapping[a], mapping[b])
        for out, name in zip(netlist.outputs, netlist.output_names):
            builder.output(mapping[int(out)], name)
        result = builder.build()
        sp.args["gates_out"] = result.num_gates
    _record_pass("restrict_gate_set", netlist, result)
    return result
