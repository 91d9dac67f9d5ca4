"""Technology mapping onto one-bootstrap cells: MAJ3 and XOR3.

The last stage of :func:`~repro.synth.passes.optimize`.  A bit wire's
phase is ``±1/8``, so two 3-input functions cost one sign bootstrap of
a linear sum, like a 2-input gate:

* ``MAJ3(a, b, c) = sign(a + b + c)`` decides at distance 1/8;
* ``XOR3(a, b, c) = sign(-2 (a + b + c))`` at distance 1/4 (XNOR3 is
  ``sign(2 (a + b + c))``).

An input may be negated (coefficient -1); no cell reads a constant.  A
cell is precision-0 LINs over its three leaves and one ``OP_SIGN``
(DESIGN.md §1.8): a MAJ3 or XOR3 alone is three words, and the MAJ3
and XOR3 of one triple (a full adder) share the partial sum: ``s =
LIN(p, q)``, ``LIN(s, c)``, SIGN, ``LIN(s, c, ±2, ±2)``, SIGN — the five
words of the five gates they replace.

The mapper reads the columns of an optimized netlist in a fixed number
of whole-array passes, with no loop over gates or dependency rounds.
It matches two cone shapes over 2-input gates:

* XOR3: an XOR-class gate reading an XOR-class gate ``t(p, q)`` and a
  third node ``c``;
* MAJ3: ``f(g(p, q), h(k(p, q), c))`` whose truth table over
  ``(p, q, c)`` is a majority with negations — the carry of
  :func:`~repro.hdl.arith.full_adder` and its inverted variants.

A MAJ3 whose ``k`` is the ``t`` of an XOR3 over the same leaves forms a
group with it; every other candidate is a group alone.  A group
*removes* its roots and each internal gate whose readers it removes too
(never an output); the rest of its cone stays.  A group is taken when
it saves bootstraps and adds no word (a lone XOR3 adds one, so lone
XOR3s are taken only while the words the other groups save pay for
them), and when no better group keeps or removes a node it removes.
Under that rule no kept node reads a removed one, so the result is the
source with each taken group's words in place of its first root, and
no reachability sweep is needed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..gatetypes import CODE_ARITY, CODE_TRUTH, NUM_CODES, OP_LIN, OP_SIGN, Gate
from ..hdl.netlist import NO_INPUT, Netlist

_XNOR = int(Gate.XNOR)
#: Node codes past the op codes: a circuit input, and the spare slot.
_INPUT, _SPARE = 0xFF, 0xFE


def _code_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per node code: truth table, 2-input gate, XOR class, leaf.

    A leaf is a bit wire other than a constant: an input, a boolean gate
    of arity 1 or 2, or a SIGN.
    """
    codes = np.arange(NUM_CODES)
    boolean = codes <= int(max(Gate))
    truth = np.zeros(256, dtype=np.int64)
    truth[:NUM_CODES] = CODE_TRUTH
    two = np.zeros(256, dtype=bool)
    two[:NUM_CODES] = boolean & (CODE_ARITY == 2)
    xor = two & np.isin(truth, CODE_TRUTH[[Gate.XOR, Gate.XNOR]])
    leaf = np.zeros(256, dtype=bool)
    leaf[:NUM_CODES] = (boolean & (CODE_ARITY > 0)) | (codes == OP_SIGN)
    leaf[_INPUT] = True
    return truth, two, xor, leaf


_TRUTH, _TWO, _XOR, _LEAF = _code_tables()
#: 3-input truth tables of the sorted leaves ``(p, q, c)``: bit
#: ``4p + 2q + c``.
_LEAF_TT = np.array([0xF0, 0xCC, 0xAA], dtype=np.int64)


def _majority_negations() -> np.ndarray:
    """``table[tt]``: the negation pattern (bit 2: p, 1: q, 0: c) under
    which ``tt`` is the majority of ``(p, q, c)``; -1 for other tables."""
    pattern = np.arange(8)
    negate = (pattern[None, :] >> np.array([[2], [1], [0]])) & 1
    p, q, c = _LEAF_TT[:, None] ^ (0xFF * negate)
    table = np.full(256, -1, dtype=np.int64)
    table[(p & q) | (p & c) | (q & c)] = pattern
    return table


_MAJORITY = _majority_negations()
#: Member rows of a group: its MAJ3 and XOR3 roots, then its internal
#: gates g, h, k (MAJ3) and t (a lone XOR3's).  -1 marks no member.
_M, _X, _G, _H, _K, _T = range(6)
_ROOTS = 2
#: Words a group emits, by its count of cells.
_WORDS = np.array([0, 3, 5])
#: Rounds of conflict resolution: each takes the groups no better
#: remaining group overlaps, then drops the groups they exclude.
_SELECT_ROUNDS = 3


_MINTERM_BITS = np.arange(4)[:, None]


def _apply(ops: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3-input truth tables of 2-input gates ``ops`` over tables ``a``, ``b``:
    the OR of the minterms ``(a, b)`` their 2-input table selects."""
    na, nb = ~a, ~b
    minterms = np.stack((na & nb, na & b, a & nb, a & b))
    select = -((_TRUTH[ops] >> _MINTERM_BITS) & 1)
    return np.bitwise_or.reduce(minterms & select, axis=0) & 0xFF


def _sort3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The triples ``(a, b, c)`` sorted, as rows of one ``(3, n)`` array."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.stack(
        (np.minimum(lo, c), np.maximum(lo, np.minimum(hi, c)), np.maximum(hi, c))
    )


class _Nodes:
    """Node-indexed columns of a netlist, with one spare slot past the
    end that ``NO_INPUT`` reads."""

    def __init__(self, netlist: Netlist):
        n_in, n_nodes = netlist.num_inputs, netlist.num_nodes
        pad = np.full(n_in, NO_INPUT, dtype=np.int64)
        self.in0 = np.concatenate((pad, netlist.in0, [NO_INPUT]))
        self.in1 = np.concatenate((pad, netlist.in1, [NO_INPUT]))
        self.code = np.empty(n_nodes + 1, dtype=np.uint8)
        self.code[:n_in] = _INPUT
        self.code[n_in:n_nodes] = netlist.ops
        self.code[n_nodes] = _SPARE
        self.two = _TWO[self.code]
        self.leaf = _LEAF[self.code]
        arity = CODE_ARITY[netlist.ops]
        read1 = (arity == 2) & (netlist.in1 != NO_INPUT)
        self.fanout = np.bincount(
            netlist.in0[arity >= 1], minlength=n_nodes + 1
        ) + np.bincount(netlist.in1[read1], minlength=n_nodes + 1)
        self.is_output = np.zeros(n_nodes + 1, dtype=bool)
        self.is_output[netlist.outputs] = True
        # A gate a group can remove reads no output and has at most two
        # readers (a root and one MAJ3 gate).
        self.few = self.two & (self.fanout <= 2) & ~self.is_output


def _xor3_candidates(nodes: _Nodes):
    """``(root, t, leaves, xnor)`` of every XOR3 cone whose ``t`` a
    group could remove."""
    code = nodes.code
    xor = _XOR[code]
    roots = np.nonzero(xor)[0]
    inner = xor & nodes.few
    parts = []
    for slot, other in ((nodes.in0, nodes.in1), (nodes.in1, nodes.in0)):
        t, c = slot[roots], other[roots]
        p, q = nodes.in0[t], nodes.in1[t]
        ok = inner[t] & (c != p) & (c != q)
        ok &= nodes.leaf[p] & nodes.leaf[q] & nodes.leaf[c]
        r, t = roots[ok], t[ok]
        xnor = (code[r] == _XNOR) ^ (code[t] == _XNOR)
        parts.append((r, t, _sort3(p[ok], q[ok], c[ok]), xnor))
    root, t, leaves, xnor = zip(*parts)
    return (
        np.concatenate(root), np.concatenate(t),
        np.concatenate(leaves, axis=1), np.concatenate(xnor),
    )


def _maj3_candidates(nodes: _Nodes):
    """``(root, g, h, k, leaves, negations)`` of every MAJ3 cone
    ``f(g(p, q), h(k(p, q), c))`` with a ``g`` or ``h`` a group could
    remove."""
    two, in0, in1 = nodes.two, nodes.in0, nodes.in1
    lo, hi = np.minimum(in0, in1), np.maximum(in0, in1)
    # One key per operand pair of a 2-input gate; none for other nodes.
    size = len(in0)
    pair = np.where(two, lo * size + hi, -1 - np.arange(size))
    roots = np.nonzero(two)[0]
    a, b = in0[roots], in1[roots]
    roots = roots[two[a] & two[b] & (nodes.few[a] | nodes.few[b])]
    parts = []
    for g_slot, h_slot in ((in0, in1), (in1, in0)):
        g, h = g_slot[roots], h_slot[roots]
        h0, h1 = in0[h], in1[h]
        on0 = pair[h0] == pair[g]
        hit = np.nonzero(on0 | (pair[h1] == pair[g]))[0]
        g, h, h0, h1, on0 = g[hit], h[hit], h0[hit], h1[hit], on0[hit]
        k, c = np.where(on0, h0, h1), np.where(on0, h1, h0)
        p, q = lo[g], hi[g]
        ok = (k != g) & (g != h) & (c != k)
        ok &= (c != g) & (c != p) & (c != q)
        ok &= nodes.leaf[p] & nodes.leaf[q] & nodes.leaf[c]
        parts.append((roots[hit][ok], g[ok], h[ok], k[ok], c[ok], p[ok], q[ok]))
    root, g, h, k, c, p, q = (np.concatenate(part) for part in zip(*parts))
    leaves = _sort3(p, q, c)

    def table(node: np.ndarray) -> np.ndarray:
        return (
            (node == leaves[0]) * _LEAF_TT[0]
            | (node == leaves[1]) * _LEAF_TT[1]
            | (node == leaves[2]) * _LEAF_TT[2]
        )

    code = nodes.code
    tt_g = _apply(code[g], table(in0[g]), table(in1[g]))
    tt_k = _apply(code[k], table(in0[k]), table(in1[k]))
    tt_c = table(c)
    tt_h = _apply(
        code[h],
        np.where(in0[h] == k, tt_k, tt_c),
        np.where(in1[h] == k, tt_k, tt_c),
    )
    tt = _apply(
        code[root],
        np.where(in0[root] == g, tt_g, tt_h),
        np.where(in1[root] == g, tt_g, tt_h),
    )
    negations = _MAJORITY[tt]
    maj = negations >= 0
    return root[maj], g[maj], h[maj], k[maj], leaves[:, maj], negations[maj]


def _groups(nodes: _Nodes):
    """``(members, leaves, negations, xnor)`` of every group: ``members``
    is ``(6, groups)``, rows :data:`_M` .. :data:`_T`."""
    m_root, g, h, k, m_leaves, negations = _maj3_candidates(nodes)
    x_root, t, x_leaves, x_xnor = _xor3_candidates(nodes)
    n_maj, n_xor = len(m_root), len(x_root)
    # A MAJ3 pairs with the first XOR3 whose t is its k, over the same
    # leaves; each XOR3 with the first MAJ3 that asks for it.
    xor_of = np.full(len(nodes.in0), n_xor)
    np.minimum.at(xor_of, t, np.arange(n_xor))
    x_root, t = np.append(x_root, -1), np.append(t, -1)
    x_leaves = np.append(x_leaves, np.full((3, 1), -1), axis=1)
    x_xnor = np.append(x_xnor, False)
    j = xor_of[k]
    pair = (x_leaves[:, j] == m_leaves).all(axis=0)
    pair &= (x_root[j] != g) & (x_root[j] != h)
    first = np.full(n_xor + 1, n_maj)
    np.minimum.at(first, np.where(pair, j, n_xor), np.arange(n_maj))
    pair &= first[j] == np.arange(n_maj)
    lone = np.ones(n_xor, dtype=bool)
    lone[j[pair]] = False
    lone = np.nonzero(lone)[0]

    members = np.full((6, n_maj + len(lone)), -1, dtype=np.int64)
    members[[_M, _G, _H, _K], :n_maj] = m_root, g, h, k
    members[_X, :n_maj] = np.where(pair, x_root[j], -1)
    members[_X, n_maj:] = x_root[lone]
    members[_T, n_maj:] = t[lone]
    leaves = np.concatenate((m_leaves, x_leaves[:, lone]), axis=1)
    xnor = np.concatenate((pair & x_xnor[j], x_xnor[lone]))
    negations = np.concatenate((negations, np.zeros(len(lone), dtype=np.int64)))
    return members, leaves, negations, xnor


def _removed(nodes: _Nodes, members: np.ndarray) -> np.ndarray:
    """``(6, groups)`` bool: the members each group removes — its roots,
    and each internal gate, not an output, whose every reader it removes.

    The shapes fix who reads whom inside a group: the MAJ3 root reads
    g and h once each, h reads k once, and an XOR3 root reads its t
    once (a pair's t is the MAJ3's k); g, k and t read leaves only.
    """
    present = members >= 0
    node = np.where(present, members, len(nodes.in0) - 1)
    removed = present & ~nodes.is_output[node]
    fanout = nodes.fanout[node]
    removed[_G] &= fanout[_G] == 1
    removed[_H] &= fanout[_H] == 1
    removed[_K] &= fanout[_K] == removed[_H].astype(np.int64) + present[_X]
    removed[_T] &= fanout[_T] == 1
    removed[:_ROOTS] = present[:_ROOTS]
    return removed


def _select(
    members: np.ndarray, removed: np.ndarray, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(taken, first)``: the groups taken, in order of their first
    root, and every group's first root."""
    n_cells = (members[:_ROOTS] >= 0).sum(axis=0)
    gone = removed.sum(axis=0)
    saved = gone - n_cells  # bootstraps
    grow = _WORDS[n_cells] - gone  # words
    first = np.where(members[:_ROOTS] >= 0, members[:_ROOTS], size).min(axis=0)
    candidate = np.nonzero((saved > 0) & (grow <= 1))[0]
    listed = members[:, candidate] >= 0
    group = np.broadcast_to(np.arange(len(candidate)), listed.shape)[listed]
    node = members[:, candidate][listed]
    removes = removed[:, candidate][listed]
    # A group no other group touches is taken as it is; the contested
    # ones go through the rounds.
    contested = np.zeros(len(candidate), dtype=bool)
    contested[group[np.bincount(node, minlength=size)[node] > 1]] = True
    taken = ~contested
    alive = contested.copy()
    rows = contested[group]
    group, node, removes = group[rows], node[rows], removes[rows]
    # Priority: more bootstraps saved, then the earlier first root.
    prio = np.zeros(len(candidate), dtype=np.int64)
    at = np.nonzero(contested)[0]
    key = first[candidate[at]] - saved[candidate[at]] * size
    prio[at[np.argsort(key, kind="stable")]] = np.arange(len(at))[::-1]
    for _ in range(_SELECT_ROUNDS if alive.any() else 0):
        live = alive[group]
        g, v, r, p = group[live], node[live], removes[live], prio[group[live]]
        top = np.full(size, -1, dtype=np.int64)
        np.maximum.at(top, v, p)
        is_top = p == top[v]
        top_removes = np.zeros(size, dtype=bool)
        top_removes[v[is_top & r]] = True
        # A group loses a node it shares with a better group that
        # removes it, or a node it removes that a better group keeps.
        won = alive.copy()
        won[g[~is_top & (top_removes[v] | r)]] = False
        taken |= won
        alive &= ~won
        # Drop the groups the taken ones exclude.
        held = taken[group]
        member = np.zeros(size, dtype=bool)
        member[node[held]] = True
        gone_node = np.zeros(size, dtype=bool)
        gone_node[node[held & removes]] = True
        alive[group[gone_node[node] | (removes & member[node])]] = False
        if not alive.any():
            break
    taken = candidate[taken]
    taken = taken[np.argsort(first[taken], kind="stable")]
    # Lone XOR3s add a word each: take them, in node order, only as far
    # as the words the other groups save.
    grows = grow[taken] > 0
    budget = -int(grow[taken[~grows]].sum())
    paid = np.cumsum(grows) <= budget
    return taken[~grows | paid], first


def map_cells(netlist: Netlist) -> Netlist:
    """``netlist`` with its MAJ3 and XOR3 cones mapped onto cells.

    The mapping runs once, over a netlist of boolean gates: one with a
    digit wire or a multi-bit op (a cell already there included), or
    without a cone worth mapping, is returned as is.
    """
    if netlist.is_multibit or not netlist.num_gates:
        return netlist
    nodes = _Nodes(netlist)
    members, leaves, negations, xnor = _groups(nodes)
    removed = _removed(nodes, members)
    taken, first = _select(members, removed, len(nodes.in0))
    if not taken.size:
        return netlist
    members, leaves = members[:, taken], leaves[:, taken]
    return _emit(
        netlist, members, _gone(nodes, members, removed[:, taken], leaves),
        first[taken], leaves, negations[taken], xnor[taken],
    )


def _gone(
    nodes: _Nodes, members: np.ndarray, removed: np.ndarray, leaves: np.ndarray
) -> np.ndarray:
    """Per node: removed by the taken groups.  An internal gate two
    groups share, each reading it once, is removed by neither group
    alone; it goes once every reader is gone, unless a cell reads it as
    a leaf (three sweeps: the cones are three gates deep)."""
    gone = np.zeros(len(nodes.in0), dtype=bool)
    gone[members[removed]] = True
    shared = members[_ROOTS:][~removed[_ROOTS:] & (members[_ROOTS:] >= 0)]
    needed = nodes.is_output.copy()
    needed[leaves] = True
    shared = shared[~needed[shared]]
    for _ in range(3 if shared.size else 0):
        at = np.nonzero(gone)[0]
        reads = np.bincount(nodes.in0[at], minlength=len(gone))
        reads += np.bincount(nodes.in1[at][nodes.in1[at] >= 0], minlength=len(gone))
        gone[shared[reads[shared] == nodes.fanout[shared]]] = True
    return gone


def _emit(
    netlist: Netlist,
    members: np.ndarray,
    gone: np.ndarray,
    first: np.ndarray,
    leaves: np.ndarray,
    negations: np.ndarray,
    xnor: np.ndarray,
) -> Netlist:
    """The source with each group's words in place of its first root."""
    n_in, n_gates = netlist.num_inputs, netlist.num_gates
    has_maj, has_xor = members[_M] >= 0, members[_X] >= 0
    pair = has_maj & has_xor
    width = np.ones(n_gates, dtype=np.int64)
    width[gone[n_in:-1]] = 0
    width[first - n_in] = _WORDS[has_maj.astype(np.int64) + has_xor]
    start = np.cumsum(width) - width
    total = int(start[-1] + width[-1])
    new_id = np.full(netlist.num_nodes + 1, NO_INPUT, dtype=np.int64)
    new_id[:n_in] = np.arange(n_in)
    keep = width == 1
    keep[first - n_in] = False
    kept = np.nonzero(keep)[0]
    new_id[n_in + kept] = n_in + start[kept]
    base = n_in + start[first - n_in]
    # Each cell's SIGN answers for its root: MAJ3 at +2; XOR3 at +4
    # after a MAJ3, else at +2.
    new_id[members[_M, has_maj]] = base[has_maj] + 2
    new_id[members[_X, has_xor]] = base[has_xor] + np.where(pair[has_xor], 4, 2)

    ops = np.empty(total, dtype=np.uint8)
    in0 = np.full(total, NO_INPUT, dtype=np.int64)
    in1 = np.full(total, NO_INPUT, dtype=np.int64)
    kx = np.zeros(total, dtype=np.int32)
    ky = np.zeros(total, dtype=np.int32)
    at = start[kept]
    ops[at] = netlist.ops[kept]
    in0[at] = new_id[netlist.in0[kept]]
    in1[at] = new_id[netlist.in1[kept]]

    # Coefficients: ±1 per leaf (negation bits 2, 1, 0 for p, q, c)
    # under a MAJ3; ±2 for a lone XOR3 (-2: XOR3, +2: XNOR3).  The
    # XOR3 of a pair is sign(k S) for the MAJ3's sum S: with k = -2 the
    # XOR3 of the negated leaves, so the negation parity flips k.
    sigma = 1 - 2 * ((negations >> np.array([[2], [1], [0]])) & 1)
    parity = ((sigma < 0).sum(axis=0) & 1).astype(bool)
    coeff = np.where(has_maj, sigma, np.where(xnor, 2, -2))
    p, q, c = new_id[leaves]
    slot = base - n_in
    ops[slot], in0[slot], in1[slot] = OP_LIN, p, q
    kx[slot], ky[slot] = coeff[0], coeff[1]
    ops[slot + 1], in0[slot + 1], in1[slot + 1] = OP_LIN, base, c
    kx[slot + 1], ky[slot + 1] = 1, coeff[2]
    ops[slot + 2], in0[slot + 2] = OP_SIGN, base + 1
    # The pair's XOR3 sums k (s1 + c): one LIN deep, like the MAJ3.
    k = np.where(xnor == parity, -2, 2)[pair]
    slot, base, c = slot[pair], base[pair], c[pair]
    ops[slot + 3], in0[slot + 3], in1[slot + 3] = OP_LIN, base, c
    kx[slot + 3], ky[slot + 3] = k, k * coeff[2][pair]
    ops[slot + 4], in0[slot + 4] = OP_SIGN, base + 3
    # Kept gates keep their order, and a group's words sit before every
    # reader of its roots and after its leaves; the constructor checks.
    return Netlist(
        n_in, ops, in0, in1, new_id[netlist.outputs],
        input_names=list(netlist.input_names),
        output_names=list(netlist.output_names),
        name=netlist.name, kx=kx, ky=ky,
    )
