"""Schedule legality and data-hazard detection (``HZ``/``IS`` families).

Two subjects are checked:

* A :class:`~repro.runtime.scheduler.Schedule` against its netlist.
  The checker replays the schedule over a model of the shared-memory
  result plane (one slot per node, inputs pre-written): every slot
  must be written exactly once, every read must land on a slot written
  *before* the reading instruction can execute, and a bootstrapped
  gate must never read a slot its own level's parallel batch writes —
  that read races the write across workers.

* A packed 128-bit instruction stream (:mod:`repro.isa.encoding`),
  walked leniently so a corrupt binary yields findings with byte
  offsets instead of a parse exception.

Both checks replay whole schedule levels (and whole instruction
streams) as numpy array transforms.  The vectorized replay preserves
the execution model exactly — per level, the bootstrapped batch reads,
then commits in parallel, then free gates run in listed order — it just
evaluates each phase with array masks instead of a Python loop; the
per-gate reference walks in ``tests/analyze/legacy_oracle.py`` produce
bit-identical reports.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from ..gatetypes import CODE_ARITY, KNOWN_CODE, Gate, op_name
from ..hdl.netlist import Netlist
from ..isa.encoding import (
    FIELD_ALL_ONES,
    INPUT_MARKER,
    INSTRUCTION_BYTES,
    OUTPUT_MARKER,
    decode_words,
    is_mb_binary,
)
from ..runtime.scheduler import Schedule
from .findings import Collector
from .rules import RULES

_NEVER = -1  # slot not written yet
_INPUT_LEVEL = -2  # slot pre-written with a circuit input
_FAR = 1 << 62  # "no free-gate write" sentinel position


def check_program(
    data: bytes, collector: Optional[Collector] = None
) -> Collector:
    """Hazard-check a packed PyTFHE binary without constructing a netlist.

    Node indices are the serialized 1-based kind of paper Fig. 6; a
    gate may only read indices defined strictly earlier in the stream,
    which is exactly the read-before-write discipline of the result
    plane.

    A header carrying the format-1 marker routes the stream to the
    extended-format lint: format-1 words reuse the marker nibbles, so
    the format-0 walk would flag every extended gate as garbage.
    """
    if is_mb_binary(data):
        from .mb import check_program_mb

        return check_program_mb(data, collector)
    return check_program_flat(data, collector)


# ======================================================================
# Schedule replay
# ======================================================================
def _cumcount(values: np.ndarray) -> np.ndarray:
    """Occurrence index of each element among its equals (stable)."""
    n = len(values)
    if not n:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    idx = np.arange(n, dtype=np.int64)
    start = np.concatenate(([True], sv[1:] != sv[:-1]))
    group_start = np.maximum.accumulate(np.where(start, idx, 0))
    out = np.empty(n, dtype=np.int64)
    out[order] = idx - group_start
    return out


def check_schedule(
    netlist: Netlist,
    schedule: Schedule,
    collector: Optional[Collector] = None,
) -> Collector:
    """Race/coverage-check ``schedule`` against ``netlist``."""
    col = collector if collector is not None else Collector()
    n_in = netlist.num_inputs
    num_nodes = netlist.num_nodes
    ops = netlist.ops
    in0, in1 = netlist.in0, netlist.in1
    arity = CODE_ARITY[ops].astype(np.int64)
    bootstraps = netlist.needs_bootstrap

    written_at = np.full(num_nodes, _NEVER, dtype=np.int64)
    written_at[:n_in] = _INPUT_LEVEL
    write_count = np.zeros(num_nodes, dtype=np.int64)
    # Reusable per-level scratch (reset after each level).
    batch_mask = np.zeros(num_nodes, dtype=bool)
    free_first = np.full(num_nodes, _FAR, dtype=np.int64)

    def name_of(gate_idx: int) -> str:
        return op_name(int(ops[gate_idx]))

    def commit_writes(gates_arr: np.ndarray, level_index: int) -> None:
        """Apply a write section (HZ002 + result-plane state update)."""
        wn = n_in + gates_arr
        occ = _cumcount(wn)
        base = write_count[wn]
        new_count = base + occ + 1
        viol = np.nonzero(new_count > 1)[0]
        keep = col.admit(RULES["HZ002"], len(viol))
        for k in viol[:keep]:
            node = int(wn[k])
            col.add(
                RULES["HZ002"],
                f"result-plane slot {node} is written {int(new_count[k])} "
                f"times (gate {node} scheduled again at level "
                f"{level_index})",
                node=node,
                level=level_index,
                fix_hint="each gate must appear in exactly one level, once",
            )
        np.add.at(write_count, wn, 1)
        first = (base == 0) & (occ == 0)
        written_at[wn[first]] = level_index

    def reads_of(
        gates_arr: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-slot (read-mask, safe operand values) for a gate list."""
        ar = arity[gates_arr]
        a, b = in0[gates_arr], in1[gates_arr]
        read0 = (ar >= 1) & (a >= 0) & (a < num_nodes)
        read1 = (ar == 2) & (b >= 0) & (b < num_nodes)
        return read0, np.where(read0, a, 0), read1, np.where(read1, b, 0)

    def emit_reads(
        gates_arr: np.ndarray,
        bad0: np.ndarray,
        av: np.ndarray,
        bad1: np.ndarray,
        bv: np.ndarray,
        rule_id: str,
        render: Callable[[int, int], None],
    ) -> None:
        """Render ``(gate index, operand)`` per offending read slot."""
        col.admit_slots(
            RULES[rule_id], bad0, bad1,
            lambda p, slot: render(
                int(gates_arr[p]), int(bv[p] if slot else av[p])
            ),
        )

    for level in schedule.levels:
        level_index = level.index
        batch = np.asarray(level.bootstrapped, dtype=np.int64)
        free = np.asarray(level.free, dtype=np.int64)
        batch_mask[n_in + batch] = True

        # HZ006 — misclassified gates, batch side first.
        mis_b = batch[~bootstraps[batch]]
        keep = col.admit(RULES["HZ006"], len(mis_b))
        for g in mis_b[:keep]:
            node = int(n_in + g)
            col.add(
                RULES["HZ006"],
                f"free gate {node} ({name_of(int(g))}) is listed in level "
                f"{level_index}'s bootstrapped batch",
                node=node,
                level=level_index,
            )

        # Batch reads happen before any of this level's writes commit.
        read0, av, read1, bv = reads_of(batch)
        un0 = read0 & (written_at[av] == _NEVER)
        un1 = read1 & (written_at[bv] == _NEVER)
        race0, race1 = un0 & batch_mask[av], un1 & batch_mask[bv]

        def _hz004(gate_idx: int, operand: int) -> None:
            node = n_in + gate_idx
            col.add(
                RULES["HZ004"],
                f"bootstrapped gate {node} ({name_of(gate_idx)}) reads "
                f"slot {operand}, which is written by the same "
                f"level-{level_index} batch — parallel "
                "read/write race",
                node=node,
                level=level_index,
                fix_hint="the producer must land in an earlier "
                "level",
            )

        emit_reads(batch, race0, av, race1, bv, "HZ004", _hz004)

        def _hz003_batch(gate_idx: int, operand: int) -> None:
            node = n_in + gate_idx
            col.add(
                RULES["HZ003"],
                f"gate {node} ({name_of(gate_idx)}) reads slot "
                f"{operand}, which is never written before "
                f"level {level_index}",
                node=node,
                level=level_index,
                fix_hint="schedule the producer in an earlier "
                "level",
            )

        emit_reads(
            batch, un0 & ~race0, av, un1 & ~race1, bv, "HZ003", _hz003_batch
        )

        # The bootstrapped batch commits in parallel, then free gates
        # run in listed order (executors' contract).
        commit_writes(batch, level_index)

        # HZ006 — free side.
        mis_f = free[bootstraps[free]]
        keep = col.admit(RULES["HZ006"], len(mis_f))
        for g in mis_f[:keep]:
            node = int(n_in + g)
            col.add(
                RULES["HZ006"],
                f"bootstrapped gate {node} ({name_of(int(g))}) is listed in "
                f"level {level_index}'s free batch",
                node=node,
                level=level_index,
            )

        # A free gate's read is legal iff the slot was written before
        # this level's free section, or an earlier-listed free gate
        # first-writes it.
        free_nodes = n_in + free
        np.minimum.at(
            free_first, free_nodes, np.arange(len(free), dtype=np.int64)
        )
        read0, av, read1, bv = reads_of(free)
        pos = np.arange(len(free), dtype=np.int64)
        un0 = read0 & (written_at[av] == _NEVER) & ~(free_first[av] < pos)
        un1 = read1 & (written_at[bv] == _NEVER) & ~(free_first[bv] < pos)

        def _hz003_free(gate_idx: int, operand: int) -> None:
            node = n_in + gate_idx
            col.add(
                RULES["HZ003"],
                f"free gate {node} ({name_of(gate_idx)}) reads slot "
                f"{operand}, which is not yet written at its "
                f"position in level {level_index}",
                node=node,
                level=level_index,
                fix_hint="free gates execute in listed order; the "
                "producer must come first",
            )

        emit_reads(free, un0, av, un1, bv, "HZ003", _hz003_free)
        commit_writes(free, level_index)

        batch_mask[n_in + batch] = False
        free_first[free_nodes] = _FAR

    never = np.nonzero(write_count[n_in:] == 0)[0]
    keep = col.admit(RULES["HZ001"], len(never))
    for g in never[:keep]:
        node = int(n_in + g)
        col.add(
            RULES["HZ001"],
            f"gate {node} ({name_of(int(g))}) appears in "
            "no schedule level; its slot is never written",
            node=node,
            fix_hint="rebuild the schedule with "
            "runtime.build_schedule",
        )

    outs = netlist.outputs
    out_valid = (outs >= 0) & (outs < num_nodes)
    dead_out = np.nonzero(
        out_valid & (written_at[np.where(out_valid, outs, 0)] == _NEVER)
    )[0]
    keep = col.admit(RULES["HZ005"], len(dead_out))
    for p in dead_out[:keep]:
        pos_i = int(p)
        out = int(outs[pos_i])
        col.add(
            RULES["HZ005"],
            f"output {pos_i} ({netlist.output_names[pos_i]!r}) reads slot "
            f"{out}, which no scheduled instruction writes",
            node=out,
        )
    return col


# ======================================================================
# Format-0 instruction-stream walk
# ======================================================================
def check_program_flat(
    data: bytes, collector: Optional[Collector] = None
) -> Collector:
    """Lenient lint of a format-0 packed binary, one array sweep."""
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

    field0, field1, nibble = decode_words(data)

    header_nibble = int(nibble[0])
    header_f0 = int(field0[0])
    claimed_gates = int(field1[0])
    if header_nibble != 0 or header_f0 != 0:
        col.add(
            RULES["IS001"],
            "first instruction is not a well-formed header "
            f"(nibble={header_nibble:#x}, field0={header_f0})",
            offset=0,
        )

    # Body classification (word positions 1..; offsets are absolute).
    nib = nibble[1:]
    f1 = field1[1:]
    f0 = field0[1:]
    n_body = len(nib)
    gate_count = 0
    if n_body:
        marked = f0 == FIELD_ALL_ONES
        is_input = marked & (nib == INPUT_MARKER)
        is_output = marked & (nib == OUTPUT_MARKER)
        decodes = KNOWN_CODE[nib]
        is_gate = ~is_input & ~is_output & decodes
        garbage = ~is_input & ~is_output & ~decodes

        positions = np.arange(1, n_body + 1, dtype=np.int64)
        offsets = positions * INSTRUCTION_BYTES

        # Section state *before* each word: 0=inputs, 1=gates, 2=outputs.
        # Gates and outputs change state; inputs and garbage do not.
        ev = np.where(is_gate, 1, np.where(is_output, 2, 0))
        ev_at = np.where(ev > 0, np.arange(n_body, dtype=np.int64), -1)
        last_ev = np.maximum.accumulate(ev_at)
        prev_ev = np.concatenate(([-1], last_ev[:-1]))
        state_before = np.where(prev_ev < 0, 0, ev[np.maximum(prev_ev, 0)])

        # 1-based node index: inputs, gates, and garbage all consume a
        # slot; the count *before* each word bounds what it may read.
        consumes = (~is_output).astype(np.int64)
        defined_after = np.cumsum(consumes)
        defined_before = defined_after - consumes
        gate_count = int((is_gate | garbage).sum())

        # IS001 — garbage nibbles, in stream order.
        bad = np.nonzero(garbage)[0]
        keep = col.admit(RULES["IS001"], len(bad))
        for k in bad[:keep]:
            col.add(
                RULES["IS001"],
                f"unknown instruction nibble {int(nib[k]):#x}",
                offset=int(offsets[k]),
            )

        # IS003 — section-order violations, in stream order.
        late_input = is_input & (state_before != 0)
        late_gate = is_gate & (state_before == 2)
        viol = np.nonzero(late_input | late_gate)[0]
        keep = col.admit(RULES["IS003"], len(viol))
        for k in viol[:keep]:
            if late_input[k]:
                state = "gates" if state_before[k] == 1 else "outputs"
                col.add(
                    RULES["IS003"],
                    f"input instruction after {state} began",
                    offset=int(offsets[k]),
                )
            else:
                col.add(
                    RULES["IS003"],
                    f"gate instruction ({Gate(int(nib[k])).name}) after "
                    "outputs began",
                    offset=int(offsets[k]),
                )

        # IS006 — outputs referencing undefined nodes.
        bad_out = np.nonzero(
            is_output & ~((f1 >= 1) & (f1 <= defined_before))
        )[0]
        keep = col.admit(RULES["IS006"], len(bad_out))
        for k in bad_out[:keep]:
            col.add(
                RULES["IS006"],
                f"output references node {int(f1[k])}; the stream defines "
                f"nodes 1..{int(defined_before[k])}",
                offset=int(offsets[k]),
            )

        # Gate operand lint: field0 is slot 0, field1 slot 1.
        g_arity = np.where(is_gate, CODE_ARITY[nib].astype(np.int64), 0)
        node_of = defined_after  # a gate's own 1-based node index
        req0 = is_gate & (g_arity >= 1)
        req1 = is_gate & (g_arity >= 2)
        mark0 = f0 == FIELD_ALL_ONES
        mark1 = f1 == FIELD_ALL_ONES

        def _is005(k: int, slot: int) -> None:
            gate = Gate(int(nib[k]))
            node = int(node_of[k])
            label = "field0" if slot == 0 else "field1"
            if (mark0[k] if slot == 0 else mark1[k]):
                col.add(
                    RULES["IS005"],
                    f"gate {node} ({gate.name}, arity {gate.arity}) "
                    f"carries the unused-operand marker in {label}",
                    node=node,
                    offset=int(offsets[k]),
                )
            else:
                value = int(f0[k]) if slot == 0 else int(f1[k])
                col.add(
                    RULES["IS005"],
                    f"gate {node} ({gate.name}, arity {gate.arity}) "
                    f"carries operand {value} in unused {label}",
                    node=node,
                    offset=int(offsets[k]),
                )

        col.admit_slots(
            RULES["IS005"],
            (req0 & mark0) | (is_gate & ~req0 & ~mark0),
            (req1 & mark1) | (is_gate & ~req1 & ~mark1),
            _is005,
        )

        def _is004(k: int, slot: int) -> None:
            gate = Gate(int(nib[k]))
            node = int(node_of[k])
            value = int(f0[k]) if slot == 0 else int(f1[k])
            col.add(
                RULES["IS004"],
                f"gate {node} ({gate.name}) reads node {value}, which "
                f"is not defined before it (defined: 1..{node - 1})",
                node=node,
                offset=int(offsets[k]),
                fix_hint="operands must reference strictly earlier "
                "instructions",
            )

        col.admit_slots(
            RULES["IS004"],
            req0 & ~mark0 & ~((f0 >= 1) & (f0 < node_of)),
            req1 & ~mark1 & ~((f1 >= 1) & (f1 < node_of)),
            _is004,
        )

    if gate_count != claimed_gates:
        col.add(
            RULES["IS002"],
            f"header claims {claimed_gates} gates, stream holds "
            f"{gate_count}",
            offset=0,
        )
    return col
