"""Reference analyzer walks: the formulation the array sweeps replaced.

The three per-gate object walks — structural lint over a plain-list
:class:`CircuitFacts`, the schedule replay, and the format-0
instruction-stream walk — spelled out one gate, one operand, one word
at a time, so the vectorized checkers in :mod:`repro.analyze` have
something independent to be compared with (``test_equivalence.py``
asserts bit-identical reports).  Test-only; never fast.  The walks
speak the boolean :class:`~repro.gatetypes.Gate` vocabulary only.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analyze.findings import Collector
from repro.analyze.rules import RULES
from repro.gatetypes import Gate
from repro.hdl.netlist import NO_INPUT, Netlist
from repro.isa.encoding import (
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INSTRUCTION_BYTES,
    OUTPUT_MARKER,
    TYPE_MASK,
)
from repro.runtime.scheduler import Schedule

_NEVER = -1  # slot not written yet
_INPUT_LEVEL = -2  # slot pre-written with a circuit input


@dataclass
class CircuitFacts:
    """A raw circuit description the lint rules can always ingest."""

    name: str
    num_inputs: int
    ops: List[int]
    in0: List[int]
    in1: List[int]
    outputs: List[int]
    input_names: Optional[List[str]] = None
    output_names: Optional[List[str]] = None

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "CircuitFacts":
        return cls(
            name=netlist.name,
            num_inputs=netlist.num_inputs,
            ops=[int(op) for op in netlist.ops],
            in0=[int(x) for x in netlist.in0],
            in1=[int(x) for x in netlist.in1],
            outputs=[int(x) for x in netlist.outputs],
            input_names=list(netlist.input_names),
            output_names=list(netlist.output_names),
        )

    @property
    def num_gates(self) -> int:
        return len(self.ops)

    @property
    def num_nodes(self) -> int:
        return self.num_inputs + len(self.ops)

    def gate_at(self, idx: int) -> Optional[Gate]:
        """The decoded gate of gate index ``idx``, or None if unknown."""
        try:
            return Gate(self.ops[idx])
        except ValueError:
            return None



def _operand_lint(
    col: Collector,
    facts: CircuitFacts,
    node: int,
    gate: Gate,
    slot: str,
    value: int,
    required: bool,
) -> bool:
    """Lint one operand slot; returns True when the edge is usable."""
    if value == NO_INPUT:
        if required:
            col.add(
                RULES["SL003"],
                f"gate {node} ({gate.name}) is missing required operand "
                f"{slot} (arity {gate.arity})",
                node=node,
                fix_hint="wire the operand or change the gate type",
            )
        return False
    if not required:
        col.add(
            RULES["SL003"],
            f"gate {node} ({gate.name}, arity {gate.arity}) carries stray "
            f"operand {slot}={value} it never reads",
            node=node,
            fix_hint=f"set {slot} to NO_INPUT (-1)",
        )
        return False
    if value < 0 or value >= facts.num_nodes:
        col.add(
            RULES["SL002"],
            f"gate {node} ({gate.name}) operand {slot}={value} is outside "
            f"the node space [0, {facts.num_nodes})",
            node=node,
            fix_hint="the wire is undriven; connect it to a real node",
        )
        return False
    if value >= node:
        kind = "itself" if value == node else f"later node {value}"
        col.add(
            RULES["SL001"],
            f"gate {node} ({gate.name}) operand {slot} reads {kind} — "
            "combinational loop / non-topological edge",
            node=node,
            fix_hint="re-topologize the netlist; gates must read strictly "
            "earlier nodes",
        )
        return False
    return True


@dataclass
class _StructuralScan:
    """Shared intermediate results of one structural sweep."""

    #: usable (validated, backward-pointing) edges per gate index.
    edges: List[Tuple[int, ...]] = field(default_factory=list)
    #: gates whose op code decoded to a Gate.
    decoded: List[Optional[Gate]] = field(default_factory=list)


def check_structure_legacy(
    facts: CircuitFacts, collector: Optional[Collector] = None
) -> Collector:
    """Run every ``SL`` rule over ``facts`` (per-gate object walk)."""
    col = collector if collector is not None else Collector()
    scan = _StructuralScan()
    n_in = facts.num_inputs

    const_codes = (int(Gate.CONST0), int(Gate.CONST1))
    seen: Dict[Tuple[int, int, int], int] = {}

    for idx in range(facts.num_gates):
        node = n_in + idx
        gate = facts.gate_at(idx)
        scan.decoded.append(gate)
        if gate is None:
            col.add(
                RULES["SL005"],
                f"gate {node} has unknown op code {facts.ops[idx]:#x}",
                node=node,
                fix_hint="only Gate enum codes are executable",
            )
            scan.edges.append(())
            continue
        a, b = facts.in0[idx], facts.in1[idx]
        edges: List[int] = []
        if _operand_lint(col, facts, node, gate, "in0", a, gate.arity >= 1):
            edges.append(a)
        if _operand_lint(col, facts, node, gate, "in1", b, gate.arity == 2):
            edges.append(b)
        scan.edges.append(tuple(edges))

        # Duplicate-gate detection on fully-valid gates only.
        if len(edges) == gate.arity:
            key = (int(gate), a, b)
            prior = seen.get(key)
            if prior is None:
                seen[key] = node
            else:
                col.add(
                    RULES["SL102"],
                    f"gate {node} duplicates gate {prior} "
                    f"({gate.name} {a},{b}) — CSE residue",
                    node=node,
                    fix_hint="run synth.structural_hash / optimize",
                )

        _foldable_lint(col, facts, node, idx, gate, const_codes)

    _output_lint(col, facts)
    _reachability_lint(col, facts, scan)
    return col


def _foldable_lint(
    col: Collector,
    facts: CircuitFacts,
    node: int,
    idx: int,
    gate: Gate,
    const_codes: Tuple[int, int],
) -> None:
    """SL103: statically-decidable gates the optimizer should have folded."""
    n_in = facts.num_inputs

    def is_const(operand: int) -> bool:
        gidx = operand - n_in
        return 0 <= gidx < facts.num_gates and facts.ops[gidx] in const_codes

    def op_of(operand: int) -> Optional[int]:
        gidx = operand - n_in
        if 0 <= gidx < facts.num_gates:
            return facts.ops[gidx]
        return None

    a, b = facts.in0[idx], facts.in1[idx]
    if gate is Gate.BUF:
        col.add(
            RULES["SL103"],
            f"gate {node} is a bare BUF of node {a}",
            node=node,
            fix_hint="forward the driver; BUF adds no logic",
        )
        return
    if gate is Gate.NOT and 0 <= a < facts.num_nodes:
        if op_of(a) == int(Gate.NOT):
            col.add(
                RULES["SL103"],
                f"gate {node} is NOT(NOT(...)) via node {a} — double "
                "negation",
                node=node,
                fix_hint="forward the inner driver",
            )
            return
    if gate.arity == 2 and 0 <= a < facts.num_nodes and 0 <= b < facts.num_nodes:
        if a == b:
            col.add(
                RULES["SL103"],
                f"gate {node} ({gate.name}) reads node {a} on both "
                "operands; its value is a unary function of one node",
                node=node,
                fix_hint="fold to the residual BUF/NOT/constant",
            )
            return
        const_operands = [s for s, v in (("in0", a), ("in1", b)) if is_const(v)]
        if const_operands:
            col.add(
                RULES["SL103"],
                f"gate {node} ({gate.name}) has constant operand(s) "
                f"{'/'.join(const_operands)}",
                node=node,
                fix_hint="constant-fold with synth.optimize",
            )


def _output_lint(col: Collector, facts: CircuitFacts) -> None:
    names = facts.output_names or [
        f"out{i}" for i in range(len(facts.outputs))
    ]
    for pos, out in enumerate(facts.outputs):
        if not (0 <= out < facts.num_nodes):
            col.add(
                RULES["SL004"],
                f"output {pos} ({names[pos]!r}) references node {out}, "
                f"valid range is [0, {facts.num_nodes})",
                node=out,
                fix_hint="point the output at an existing node",
            )


def _reachability_lint(
    col: Collector, facts: CircuitFacts, scan: _StructuralScan
) -> None:
    """SL101 dead gates and SL104 unused inputs, over usable edges only."""
    num_nodes = facts.num_nodes
    n_in = facts.num_inputs
    mask = [False] * num_nodes
    for out in facts.outputs:
        if 0 <= out < num_nodes:
            mask[out] = True
    for idx in range(facts.num_gates - 1, -1, -1):
        if mask[n_in + idx]:
            for edge in scan.edges[idx]:
                # Forward edges (loops) were already reported; skip them
                # so the sweep stays a single backward pass.
                if edge < n_in + idx:
                    mask[edge] = True
    for idx in range(facts.num_gates):
        if not mask[n_in + idx]:
            gate = scan.decoded[idx]
            label = gate.name if gate is not None else f"op {facts.ops[idx]:#x}"
            col.add(
                RULES["SL101"],
                f"gate {n_in + idx} ({label}) is unreachable from every "
                "output",
                node=n_in + idx,
                fix_hint="run synth.dead_gate_elimination",
            )
    in_names = facts.input_names or [f"in{i}" for i in range(n_in)]
    for i in range(n_in):
        if not mask[i]:
            col.add(
                RULES["SL104"],
                f"input {i} ({in_names[i]!r}) drives no output-reachable "
                "logic",
                node=i,
            )


def check_schedule_legacy(
    netlist: Netlist,
    schedule: Schedule,
    collector: Optional[Collector] = None,
) -> Collector:
    """Race/coverage-check ``schedule`` against ``netlist``."""
    col = collector if collector is not None else Collector()
    n_in = netlist.num_inputs
    num_nodes = netlist.num_nodes
    ops = netlist.ops
    in0 = netlist.in0
    in1 = netlist.in1

    # written_at[node] = level index whose execution wrote the slot.
    written_at = [_NEVER] * num_nodes
    for i in range(n_in):
        written_at[i] = _INPUT_LEVEL
    write_count = [0] * num_nodes

    def operands_of(gate_idx: int) -> List[int]:
        gate = Gate(int(ops[gate_idx]))
        if gate.arity == 0:
            return []
        if gate.arity == 1:
            return [int(in0[gate_idx])]
        return [int(in0[gate_idx]), int(in1[gate_idx])]

    def record_write(gate_idx: int, level_index: int) -> None:
        node = n_in + gate_idx
        write_count[node] += 1
        if write_count[node] > 1:
            col.add(
                RULES["HZ002"],
                f"result-plane slot {node} is written {write_count[node]} "
                f"times (gate {node} scheduled again at level "
                f"{level_index})",
                node=node,
                level=level_index,
                fix_hint="each gate must appear in exactly one level, once",
            )
        else:
            written_at[node] = level_index

    for level in schedule.levels:
        batch_nodes = {n_in + int(g) for g in level.bootstrapped}
        for gate_idx in level.bootstrapped:
            gate_idx = int(gate_idx)
            node = n_in + gate_idx
            gate = Gate(int(ops[gate_idx]))
            if not gate.needs_bootstrap:
                col.add(
                    RULES["HZ006"],
                    f"free gate {node} ({gate.name}) is listed in level "
                    f"{level.index}'s bootstrapped batch",
                    node=node,
                    level=level.index,
                )
            for operand in operands_of(gate_idx):
                if not (0 <= operand < num_nodes):
                    continue  # structural lint owns malformed edges
                if written_at[operand] == _NEVER:
                    if operand in batch_nodes:
                        col.add(
                            RULES["HZ004"],
                            f"bootstrapped gate {node} ({gate.name}) reads "
                            f"slot {operand}, which is written by the same "
                            f"level-{level.index} batch — parallel "
                            "read/write race",
                            node=node,
                            level=level.index,
                            fix_hint="the producer must land in an earlier "
                            "level",
                        )
                    else:
                        col.add(
                            RULES["HZ003"],
                            f"gate {node} ({gate.name}) reads slot "
                            f"{operand}, which is never written before "
                            f"level {level.index}",
                            node=node,
                            level=level.index,
                            fix_hint="schedule the producer in an earlier "
                            "level",
                        )
        # The bootstrapped batch commits in parallel, then free gates
        # run in listed order (executors' contract).
        for gate_idx in level.bootstrapped:
            record_write(int(gate_idx), level.index)
        for gate_idx in level.free:
            gate_idx = int(gate_idx)
            node = n_in + gate_idx
            gate = Gate(int(ops[gate_idx]))
            if gate.needs_bootstrap:
                col.add(
                    RULES["HZ006"],
                    f"bootstrapped gate {node} ({gate.name}) is listed in "
                    f"level {level.index}'s free batch",
                    node=node,
                    level=level.index,
                )
            for operand in operands_of(gate_idx):
                if not (0 <= operand < num_nodes):
                    continue
                if written_at[operand] == _NEVER:
                    col.add(
                        RULES["HZ003"],
                        f"free gate {node} ({gate.name}) reads slot "
                        f"{operand}, which is not yet written at its "
                        f"position in level {level.index}",
                        node=node,
                        level=level.index,
                        fix_hint="free gates execute in listed order; the "
                        "producer must come first",
                    )
            record_write(gate_idx, level.index)

    for gate_idx in range(netlist.num_gates):
        node = n_in + gate_idx
        if write_count[node] == 0:
            col.add(
                RULES["HZ001"],
                f"gate {node} ({Gate(int(ops[gate_idx])).name}) appears in "
                "no schedule level; its slot is never written",
                node=node,
                fix_hint="rebuild the schedule with "
                "runtime.build_schedule",
            )

    for pos, out in enumerate(netlist.outputs):
        out = int(out)
        if 0 <= out < num_nodes and written_at[out] == _NEVER:
            col.add(
                RULES["HZ005"],
                f"output {pos} ({netlist.output_names[pos]!r}) reads slot "
                f"{out}, which no scheduled instruction writes",
                node=out,
            )
    return col


def check_program_legacy(
    data: bytes, collector: Optional[Collector] = None
) -> Collector:
    """Per-word instruction-stream walk (equivalence oracle)."""
    col = collector if collector is not None else Collector()
    if len(data) % INSTRUCTION_BYTES:
        col.add(
            RULES["IS001"],
            f"binary length {len(data)} is not a multiple of "
            f"{INSTRUCTION_BYTES} bytes",
            fix_hint="the stream is truncated or padded",
        )
        return col
    if not data:
        col.add(RULES["IS001"], "binary is empty (no header instruction)")
        return col

    words = [
        int.from_bytes(data[i : i + INSTRUCTION_BYTES], "little")
        for i in range(0, len(data), INSTRUCTION_BYTES)
    ]

    header_word = words[0]
    header_nibble = header_word & TYPE_MASK
    header_f0 = (header_word >> 66) & FIELD_ALL_ONES
    claimed_gates = (header_word >> 4) & FIELD_ALL_ONES
    if header_nibble != 0 or header_f0 != 0:
        col.add(
            RULES["IS001"],
            "first instruction is not a well-formed header "
            f"(nibble={header_nibble:#x}, field0={header_f0})",
            offset=0,
        )

    state = "inputs"
    next_index = 0  # last defined 1-based node index
    gate_count = 0
    for position, word in enumerate(words[1:], start=1):
        offset = position * INSTRUCTION_BYTES
        nibble = word & TYPE_MASK
        field1 = (word >> 4) & FIELD_ALL_ONES
        field0 = (word >> 66) & FIELD_ALL_ONES
        if field0 == FIELD_ALL_ONES and nibble == INPUT_MARKER:
            if state != "inputs":
                col.add(
                    RULES["IS003"],
                    f"input instruction after {state} began",
                    offset=offset,
                )
            next_index += 1
            continue
        if field0 == FIELD_ALL_ONES and nibble == OUTPUT_MARKER:
            state = "outputs"
            if not (1 <= field1 <= next_index):
                col.add(
                    RULES["IS006"],
                    f"output references node {field1}; the stream defines "
                    f"nodes 1..{next_index}",
                    offset=offset,
                )
            continue
        # Gate instruction (or garbage nibble).
        try:
            gate = Gate(nibble)
        except ValueError:
            col.add(
                RULES["IS001"],
                f"unknown instruction nibble {nibble:#x}",
                offset=offset,
            )
            next_index += 1  # the slot is still consumed by position
            gate_count += 1
            continue
        if state == "outputs":
            col.add(
                RULES["IS003"],
                f"gate instruction ({gate.name}) after outputs began",
                offset=offset,
            )
        state = "gates"
        next_index += 1
        gate_count += 1
        node = next_index
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
                continue
            if not required:
                col.add(
                    RULES["IS005"],
                    f"gate {node} ({gate.name}, arity {gate.arity}) "
                    f"carries operand {value} in unused {slot}",
                    node=node,
                    offset=offset,
                )
                continue
            if not (1 <= value < node):
                col.add(
                    RULES["IS004"],
                    f"gate {node} ({gate.name}) reads node {value}, which "
                    f"is not defined before it (defined: 1..{node - 1})",
                    node=node,
                    offset=offset,
                    fix_hint="operands must reference strictly earlier "
                    "instructions",
                )
    if gate_count != claimed_gates:
        col.add(
            RULES["IS002"],
            f"header claims {claimed_gates} gates, stream holds "
            f"{gate_count}",
            offset=0,
        )
    return col
