"""BFS level scheduling of TFHE program DAGs (paper Algorithm 1).

The schedule partitions gates into *levels*: every gate in level ``L``
only depends on values produced at levels ``< L`` (plus free gates of
the same level, which are ordered after the bootstrapped batch).  All
backends — in-process, distributed, and the GPU batch simulator —
consume the same schedule, which is what makes the paper's
cross-backend comparisons apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..hdl.netlist import Netlist


@dataclass
class Level:
    """One BFS round: a batch of bootstrapped gates + trailing free ops.

    ``bootstrapped`` and ``free`` hold 0-based *gate* indices (not node
    ids).  Free gates may consume bootstrapped outputs of the same
    level, hence they are executed after the batch.
    """

    index: int
    bootstrapped: np.ndarray
    free: np.ndarray

    @property
    def width(self) -> int:
        return len(self.bootstrapped)


@dataclass
class Schedule:
    """A complete level-ordered execution plan for one netlist."""

    netlist: Netlist
    levels: List[Level]

    @property
    def num_bootstrapped(self) -> int:
        return sum(level.width for level in self.levels)

    @property
    def depth(self) -> int:
        return sum(1 for level in self.levels if level.width)

    def level_widths(self) -> List[int]:
        return [level.width for level in self.levels if level.width]


def shard_level(
    gate_indices: np.ndarray, num_shards: int
) -> List[np.ndarray]:
    """Split one level's gates into at most ``num_shards`` contiguous chunks.

    The worker pool plans every level with this helper before a run,
    with one shard more than it has helper processes: the last (the
    smallest, since ``array_split`` puts the extra gates first) is the
    coordinator's own, and chunk ``i`` of the rest belongs to worker
    ``i``, so only the level index crosses a pipe per level.  Empty
    chunks are dropped.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    gate_indices = np.asarray(gate_indices)
    if not len(gate_indices):
        return []
    parts = np.array_split(
        gate_indices, min(num_shards, len(gate_indices))
    )
    return [part for part in parts if len(part)]


def build_schedule(netlist: Netlist) -> Schedule:
    """Compute the BFS schedule of Algorithm 1.

    The traversal starts from the inputs; a gate becomes ready when all
    its predecessors are computed, and all simultaneously-ready
    bootstrapped gates form one parallel compute round.
    """
    node_levels = netlist.bootstrap_levels()
    n_in = netlist.num_inputs
    gate_levels = node_levels[n_in:]
    # The mask spans the boolean gate vocabulary and the multi-bit
    # codes alike (LUT/B2D/D2B bootstrap, LIN is free).
    needs = netlist.needs_bootstrap
    max_level = int(gate_levels.max()) if netlist.num_gates else 0
    levels: List[Level] = []
    order = np.arange(netlist.num_gates)
    for lv in range(max_level + 1):
        at_level = gate_levels == lv
        levels.append(
            Level(
                index=lv,
                bootstrapped=order[at_level & needs],
                free=order[at_level & ~needs],
            )
        )
    # Drop trailing empty levels (level 0 may hold only free gates).
    while levels and levels[-1].width == 0 and len(levels[-1].free) == 0:
        levels.pop()
    return Schedule(netlist=netlist, levels=levels)
