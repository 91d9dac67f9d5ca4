"""The column-compressor popcount against the balanced tree it replaced.

For every width from 0 to 64 the compressor must count correctly
(exhaustively up to 12 bits, on random vectors above), return
``n.bit_length()`` bits, and after synthesis onto the 2-input library
use no more bootstrapped gates and no more bootstrap levels than the
tree in ``popcount_oracle``.  Up to 256 bits the gate count still never
exceeds the tree's, and the widths where the depth does are pinned.
"""

import numpy as np
import pytest

from repro.hdl import arith
from repro.hdl.builder import CircuitBuilder
from repro.synth import optimize

from ..synth import two_input
from . import popcount_oracle

WIDTHS = range(0, 65)


def _netlist(generator, n):
    bd = CircuitBuilder()
    bits = bd.inputs(n)
    outs = generator(bd, bits)
    for node in outs:
        bd.output(node)
    return bd.build(), len(outs)


def _vectors(n):
    if n <= 12:
        return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return np.random.default_rng(n).integers(0, 2, (256, n))


@pytest.mark.parametrize("n", WIDTHS)
def test_counts_every_vector(n):
    netlist, width = _netlist(arith.popcount, n)
    assert width == max(1, n.bit_length())
    vectors = _vectors(n)
    if n == 0:
        assert not netlist.evaluate(np.zeros(0, dtype=bool)).any()
        return
    out = netlist.evaluate(vectors.astype(bool)).astype(np.int64)
    counts = (out << np.arange(width)).sum(axis=1)
    np.testing.assert_array_equal(counts, vectors.sum(axis=1))


def _gates_and_depth(generator, n):
    stats = two_input(_netlist(generator, n)[0]).stats()
    return stats.num_bootstrapped_gates, stats.bootstrap_depth


@pytest.mark.parametrize("n", WIDTHS)
def test_no_more_gates_or_levels_than_the_tree(n):
    gates, depth = _gates_and_depth(arith.popcount, n)
    tree_gates, tree_depth = _gates_and_depth(popcount_oracle.popcount, n)
    assert gates <= tree_gates
    assert depth <= tree_depth


#: Widths up to 256 where the compressor is one level deeper than the
#: tree.  At 127 every column has an odd bit count, so there is no
#: half adder to place: the schedule has no freedom left.
DEEPER_THAN_THE_TREE = {
    124, 126, 127, 240, 241, 242, 243, 244, 245, 248, 249, 252, 253,
}


def test_wide_popcounts_deviate_only_where_pinned():
    """Above 64 bits the gate count stays at or below the tree's; the
    depth does too, except at the pinned widths, by exactly one level."""
    deeper = set()
    for n in range(65, 257):
        gates, depth = _gates_and_depth(arith.popcount, n)
        tree_gates, tree_depth = _gates_and_depth(popcount_oracle.popcount, n)
        assert gates <= tree_gates, n
        assert depth <= tree_depth + 1, n
        if depth > tree_depth:
            deeper.add(n)
    assert deeper == DEEPER_THAN_THE_TREE


def test_thirty_two_bits():
    # hamming_distance's popcount: 192 -> 140 bootstraps, 16 -> 15 levels
    # on the 2-input library; its 26 full adders map onto MAJ3/XOR3
    # pairs (3 bootstraps fewer each): 62 bootstraps in 10 levels.
    netlist = _netlist(arith.popcount, 32)[0]
    got = two_input(netlist).stats()
    assert got.num_bootstrapped_gates == 140
    assert got.bootstrap_depth == 15
    mapped = optimize(netlist).stats()
    assert mapped.num_bootstrapped_gates == 140 - 3 * 26
    assert mapped.bootstrap_depth == 10


def test_weighted_columns_sum_modulo_width():
    """Bits of several weights, the result cut to ``width`` bits."""
    rng = np.random.default_rng(7)
    weights = [0, 0, 0, 1, 1, 2, 3, 3, 3, 3]
    bd = CircuitBuilder()
    bits = bd.inputs(len(weights))
    columns = [[] for _ in range(4)]
    for bit, weight in zip(bits, weights):
        columns[weight].append(bit)
    for node in arith.compress_columns(bd, columns, 4):
        bd.output(node)
    netlist = bd.build()
    vectors = rng.integers(0, 2, (512, len(weights)))
    out = netlist.evaluate(vectors.astype(bool)).astype(np.int64)
    want = (vectors << np.array(weights)).sum(axis=1) % 16
    np.testing.assert_array_equal((out << np.arange(4)).sum(axis=1), want)


def test_top_column_emits_no_carry():
    """Carries out of the top column would be dead: none is built."""
    bd = CircuitBuilder()
    bits = bd.inputs(7)
    for node in arith.popcount(bd, bits):
        bd.output(node)
    netlist = bd.build()
    assert two_input(netlist).num_gates == netlist.num_gates
