"""Schedule legality and data-hazard detection (``HZ``/``IS`` families).

Two subjects are checked:

* A :class:`~repro.runtime.scheduler.Schedule` against its netlist.
  The checker replays the schedule over a model of the shared-memory
  result plane (one slot per node, inputs pre-written): every slot
  must be written exactly once, every read must land on a slot written
  *before* the reading instruction can execute, and a bootstrapped
  gate must never read a slot its own level's parallel batch writes —
  that read races the write across workers.

* A packed 128-bit instruction stream, decoded leniently by
  :func:`repro.isa.decode` so a corrupt binary yields findings with
  byte offsets instead of a parse exception; this module only maps the
  decoder's defect kinds to rules.

The schedule check replays the whole schedule in one pass of array
transforms.  It preserves the execution model exactly — per level, the
bootstrapped batch reads, then commits in parallel, then free gates run
in listed order — by giving every entry a read and a write time on one
clock; the per-gate reference walks in
``tests/analyze/legacy_oracle.py`` produce bit-identical reports.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..gatetypes import CODE_ARITY, op_name
from ..hdl.netlist import Netlist
from ..isa.decoder import DecodedStream, decode
from ..runtime.scheduler import Schedule
from .findings import Collector
from .rules import RULES



def check_program(
    data: Union[bytes, DecodedStream], collector: Optional[Collector] = None
) -> Collector:
    """Lint a packed PyTFHE binary without constructing a netlist.

    :func:`repro.isa.decode` classifies the stream (either format) and
    lists its defects; each becomes a finding of the defect's ``IS``
    rule (or ``MB002`` for a table op whose table the stream lacks), in
    stream order.  Only the findings the per-rule cap admits have their
    message rendered, so a hostile stream costs array work, not a
    Python walk.  A :class:`~repro.isa.DecodedStream` is linted as is.
    """
    col = collector if collector is not None else Collector()
    stream = data if isinstance(data, DecodedStream) else decode(data)
    for rule_id, total, first in stream.by_rule(col.max_per_rule):
        rule = RULES[rule_id]
        for i in first[: col.admit(rule, total)].tolist():
            message, node, offset, hint = stream.describe(i)
            col.add(rule, message, node=node, offset=offset, fix_hint=hint)
    return col


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
    """Race/coverage-check ``schedule`` against ``netlist``.

    One pass over the schedule's entries, in execution order: level by
    level, the bootstrapped batch, then the free gates.  Each entry gets
    a read time and a write time on one clock — a batch reads together,
    then commits together, then each free gate reads and writes in
    turn — so a read is unwritten exactly when its slot's first write
    comes later.
    """
    col = collector if collector is not None else Collector()
    n_in = netlist.num_inputs
    num_nodes = netlist.num_nodes
    ops = netlist.ops
    bootstraps = netlist.needs_bootstrap
    levels = schedule.levels
    batches = [np.asarray(lv.bootstrapped, dtype=np.int64) for lv in levels]
    frees = [np.asarray(lv.free, dtype=np.int64) for lv in levels]
    n_batch = np.array([len(b) for b in batches], dtype=np.int64)
    n_free = np.array([len(f) for f in frees], dtype=np.int64)
    # Entries level by level, batch then free.
    gate = np.concatenate(
        [part for pair in zip(batches, frees) for part in pair]
        or [np.zeros(0, dtype=np.int64)]
    )
    position = np.repeat(np.arange(len(levels)), n_batch + n_free)
    in_batch = np.concatenate(
        [np.repeat((True, False), (b, f)) for b, f in zip(n_batch, n_free)]
        or [np.zeros(0, dtype=bool)]
    )
    level_index = np.array([lv.index for lv in levels], dtype=np.int64)[position]
    # The clock: a level starts at ``clock``; its batch reads at +0 and
    # writes at +1, and its j-th free gate reads at +2+2j, writes at +3+2j.
    clock = np.concatenate(([0], np.cumsum(2 + 2 * n_free)))[position]
    rank = np.arange(len(gate)) - np.repeat(
        np.cumsum(n_batch + n_free) - (n_batch + n_free), n_batch + n_free
    )
    free_rank = rank - n_batch[position]
    read_t = np.where(in_batch, clock, clock + 2 + 2 * free_rank)
    write_t = np.where(in_batch, clock + 1, read_t + 1)
    node = n_in + gate

    never = np.iinfo(np.int64).max
    first_write = np.full(num_nodes, never, dtype=np.int64)
    first_write[:n_in] = -1
    np.minimum.at(first_write, node, write_t)

    def name_of(gate_idx: int) -> str:
        return op_name(int(ops[gate_idx]))

    # HZ006 — misclassified gates, in execution order.
    misplaced = np.nonzero(bootstraps[gate] != in_batch)[0]
    for e in misplaced[: col.admit(RULES["HZ006"], len(misplaced))].tolist():
        g, n = int(gate[e]), int(node[e])
        col.add(
            RULES["HZ006"],
            f"free gate {n} ({name_of(g)}) is listed in level "
            f"{int(level_index[e])}'s bootstrapped batch"
            if in_batch[e]
            else f"bootstrapped gate {n} ({name_of(g)}) is listed in "
            f"level {int(level_index[e])}'s free batch",
            node=n,
            level=int(level_index[e]),
        )

    # Reads: a slot the op reads, in range, whose first write is later.
    arity = CODE_ARITY[ops[gate]]
    operand = np.stack((netlist.in0[gate], netlist.in1[gate]))
    reads = np.stack((arity >= 1, arity == 2))
    reads &= (operand >= 0) & (operand < num_nodes)
    operand = np.where(reads, operand, 0)
    unwritten = reads & (first_write[operand] > read_t)
    # A batch read of a slot its own batch writes races the write.
    race = unwritten & in_batch
    if race.any():
        batch_key = position[in_batch] * num_nodes + node[in_batch]
        race[race] = np.isin(
            (position * num_nodes + operand)[race], batch_key
        )

    def _hz004(e: int, slot: int) -> None:
        n, level = int(node[e]), int(level_index[e])
        col.add(
            RULES["HZ004"],
            f"bootstrapped gate {n} ({name_of(int(gate[e]))}) reads "
            f"slot {int(operand[slot, e])}, which is written by the same "
            f"level-{level} batch — parallel read/write race",
            node=n,
            level=level,
            fix_hint="the producer must land in an earlier level",
        )

    col.admit_slots(RULES["HZ004"], race[0], race[1], _hz004)

    def _hz003(e: int, slot: int) -> None:
        n, level = int(node[e]), int(level_index[e])
        g, read = int(gate[e]), int(operand[slot, e])
        if in_batch[e]:
            message = (
                f"gate {n} ({name_of(g)}) reads slot {read}, which is "
                f"never written before level {level}"
            )
            hint = "schedule the producer in an earlier level"
        else:
            message = (
                f"free gate {n} ({name_of(g)}) reads slot {read}, which "
                f"is not yet written at its position in level {level}"
            )
            hint = (
                "free gates execute in listed order; the producer must "
                "come first"
            )
        col.add(RULES["HZ003"], message, node=n, level=level, fix_hint=hint)

    stale = unwritten & ~race
    col.admit_slots(RULES["HZ003"], stale[0], stale[1], _hz003)

    # HZ002 — every write of a slot after its first, in commit order.
    rewritten = np.nonzero(np.bincount(node, minlength=num_nodes)[node] > 1)[0]
    count = np.ones(len(node), dtype=np.int64)
    count[rewritten] += _cumcount(node[rewritten])
    again = np.nonzero(count > 1)[0]
    for e in again[: col.admit(RULES["HZ002"], len(again))].tolist():
        n, level = int(node[e]), int(level_index[e])
        col.add(
            RULES["HZ002"],
            f"result-plane slot {n} is written {int(count[e])} "
            f"times (gate {n} scheduled again at level {level})",
            node=n,
            level=level,
            fix_hint="each gate must appear in exactly one level, once",
        )

    missing = np.nonzero(first_write[n_in:] == never)[0]
    keep = col.admit(RULES["HZ001"], len(missing))
    for g in missing[:keep]:
        n = int(n_in + g)
        col.add(
            RULES["HZ001"],
            f"gate {n} ({name_of(int(g))}) appears in "
            "no schedule level; its slot is never written",
            node=n,
            fix_hint="rebuild the schedule with "
            "runtime.build_schedule",
        )

    outs = netlist.outputs
    out_valid = (outs >= 0) & (outs < num_nodes)
    dead_out = np.nonzero(
        out_valid & (first_write[np.where(out_valid, outs, 0)] == never)
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
