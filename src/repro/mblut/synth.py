"""Multi-bit synthesis: pattern-match boolean arithmetic onto LUTs.

The matcher recognizes the two carry-chain shapes every arithmetic
generator in :mod:`repro.hdl.arith` (and therefore the ChiselTorch
bench models) elaborates to:

* **ripple adder chains** — the half-adder head the builder's constant
  folding produces (``sum = XOR(a,b)``, ``carry = AND(a,b)``) followed
  by full-adder bodies (``partial = XOR(a,b)``; ``sum = XOR(partial,
  cin)``; ``carry = OR(AND(a,b), AND(partial, cin))``);
* **comparator borrow chains** — the ``less_than_unsigned`` shape
  (``strictly = ANDNY(x,y)``; ``carries = ORNY(x,y)``; ``borrow' =
  OR(strictly, AND(carries, borrow))``), including the operand-swapped
  ANDYN/ORYN spellings the builder's canonicalization emits.

Matched chains are regrouped into ``w``-bit digits (``w = log2(p) - 1``
so a digit sum ``a + b + carry <= 2^(w+1) - 1`` stays inside the
modulus) and re-expressed as free :data:`~repro.gatetypes.OP_LIN`
combinations plus one sum LUT and one carry LUT per digit.  Chains
bridge to the boolean remainder through B2D/D2B conversion bootstraps;
a per-chain benefit check keeps a rewrite only when it removes more
bootstraps than its conversions add, so synthesis is never worse than
the boolean baseline.  Everything that does not match falls back to
boolean gates unchanged (mux/activation trees ride on the adders and
comparators feeding them or stay boolean).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..gatetypes import Gate, OP_B2D, OP_D2B, OP_LIN, OP_LUT, op_needs_bootstrap
from ..hdl.netlist import NO_INPUT, Netlist
from .client import MbIoMap


@dataclass(frozen=True)
class MultiBitValue:
    """A plaintext p-ary message: the digit-domain unit of the subsystem.

    ``value`` lives in ``Z_modulus`` and is carried on the torus as the
    half-torus slice encoding of :class:`repro.tfhe.IntegerEncoding`.
    """

    value: int
    modulus: int = 16

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not (0 <= self.value < self.modulus):
            raise ValueError(
                f"value {self.value} outside [0, {self.modulus})"
            )

    @property
    def digit_width(self) -> int:
        """Bits a synthesis digit of this modulus carries (log2(p)-1)."""
        return max(self.modulus.bit_length() - 2, 1)

    def bits(self, width: Optional[int] = None) -> List[int]:
        width = self.digit_width if width is None else width
        return [(self.value >> j) & 1 for j in range(width)]

    @classmethod
    def from_bits(
        cls, bits: Sequence[int], modulus: int = 16
    ) -> "MultiBitValue":
        value = 0
        for j, bit in enumerate(bits):
            value |= (1 if bit else 0) << j
        return cls(value=value % modulus, modulus=modulus)


@dataclass
class SynthesisReport:
    """What the rewrite did (CLI/benchmark surface this)."""

    modulus: int
    digit_width: int
    adder_chains: int = 0
    comparator_chains: int = 0
    bits_covered: int = 0
    bool_bootstraps_before: int = 0
    mb_bootstraps_after: int = 0
    lut_bootstraps: int = 0
    b2d_conversions: int = 0
    d2b_conversions: int = 0

    @property
    def chains(self) -> int:
        return self.adder_chains + self.comparator_chains

    @property
    def reduction(self) -> float:
        if not self.mb_bootstraps_after:
            return float(self.bool_bootstraps_before > 0) or 1.0
        return self.bool_bootstraps_before / self.mb_bootstraps_after

    def as_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "digit_width": self.digit_width,
            "adder_chains": self.adder_chains,
            "comparator_chains": self.comparator_chains,
            "bits_covered": self.bits_covered,
            "bool_bootstraps_before": self.bool_bootstraps_before,
            "mb_bootstraps_after": self.mb_bootstraps_after,
            "lut_bootstraps": self.lut_bootstraps,
            "b2d_conversions": self.b2d_conversions,
            "d2b_conversions": self.d2b_conversions,
            "reduction": self.reduction,
        }


@dataclass
class _Cell:
    """One matched chain bit (adder or comparator)."""

    kind: str  # "add" | "cmp"
    a: int
    b: int
    cin: Optional[int]
    sum: Optional[int]
    carry: int
    internal: Tuple[int, ...]
    gates: Tuple[int, ...]
    removed: int


@dataclass
class _Chain:
    kind: str
    cells: List[_Cell]
    expose_carry: bool = False
    # Per-(digit, side) operand plan, filled by the benefit pass:
    # ("input", bits) | ("chain", src_index, src_digit) | ("b2d", bits)
    plans: Dict[Tuple[int, str], tuple] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cells)

    def digit_bits(self, w: int) -> List[Tuple[int, int]]:
        """``(start, width)`` of each digit over the chain's bits."""
        out = []
        start = 0
        while start < len(self.cells):
            out.append((start, min(w, len(self.cells) - start)))
            start += w
        return out


def _semantic_notand(code: int, a: int, b: int) -> Optional[Tuple[int, int]]:
    """Return ``(x, y)`` with the gate meaning ``(not x) and y``."""
    if code == int(Gate.ANDNY):
        return a, b
    if code == int(Gate.ANDYN):
        return b, a
    return None


def _semantic_notor(code: int, a: int, b: int) -> Optional[Tuple[int, int]]:
    if code == int(Gate.ORNY):
        return a, b
    if code == int(Gate.ORYN):
        return b, a
    return None


def _match_cells(netlist: Netlist):
    """Find every candidate adder/comparator cell in the netlist."""
    n_in = netlist.num_inputs
    ops = netlist.ops.tolist()
    in0 = netlist.in0.tolist()
    in1 = netlist.in1.tolist()
    xor_c, and_c, or_c = int(Gate.XOR), int(Gate.AND), int(Gate.OR)

    pair: Dict[Tuple[int, int, int], int] = {}
    notand: Dict[Tuple[int, int], int] = {}
    notor: Dict[Tuple[int, int], int] = {}
    for idx in range(netlist.num_gates):
        code = ops[idx]
        node = n_in + idx
        a, b = in0[idx], in1[idx]
        if code in (xor_c, and_c, or_c):
            key = (code, a, b) if a <= b else (code, b, a)
            pair.setdefault(key, node)
        else:
            na = _semantic_notand(code, a, b)
            if na is not None:
                notand.setdefault(na, node)
            no = _semantic_notor(code, a, b)
            if no is not None:
                notor.setdefault(no, node)

    def gate_inputs(node: int) -> Tuple[int, int]:
        return in0[node - n_in], in1[node - n_in]

    def op_of(node: int) -> int:
        return ops[node - n_in] if node >= n_in else -1

    add_cells: List[_Cell] = []
    cmp_cells: List[_Cell] = []
    for idx in range(netlist.num_gates):
        node = n_in + idx
        code = ops[idx]
        if code == and_c:
            # Half-adder head: sum = XOR(a,b) alongside carry = AND(a,b).
            x, y = in0[idx], in1[idx]
            key = (xor_c, x, y) if x <= y else (xor_c, y, x)
            s = pair.get(key)
            if s is not None and s != node:
                add_cells.append(
                    _Cell(
                        "add", x, y, None, s, node,
                        internal=(), gates=(s, node), removed=2,
                    )
                )
            continue
        if code != or_c:
            continue
        g1, g2 = in0[idx], in1[idx]
        if g1 < n_in or g2 < n_in:
            continue
        for gab, gpc in ((g1, g2), (g2, g1)):
            # Full-adder body.
            if op_of(gab) == and_c and op_of(gpc) == and_c:
                x, y = gate_inputs(gab)
                key = (xor_c, x, y) if x <= y else (xor_c, y, x)
                partial = pair.get(key)
                if partial is None:
                    continue
                u, v = gate_inputs(gpc)
                if u == partial and v != partial:
                    cin = v
                elif v == partial and u != partial:
                    cin = u
                else:
                    continue
                skey = (
                    (xor_c, partial, cin)
                    if partial <= cin
                    else (xor_c, cin, partial)
                )
                s = pair.get(skey)
                if s is None:
                    continue
                claimed = (partial, gab, gpc, s, node)
                if len(set(claimed)) != 5:
                    continue
                add_cells.append(
                    _Cell(
                        "add", x, y, cin, s, node,
                        internal=(partial, gab, gpc),
                        gates=claimed, removed=5,
                    )
                )
                break
        for sg, ag in ((g1, g2), (g2, g1)):
            # Comparator borrow body.
            xy = _semantic_notand(op_of(sg), *gate_inputs(sg))
            if xy is None or op_of(ag) != and_c:
                continue
            u, v = gate_inputs(ag)
            cg, borrow = None, None
            for cand, other in ((u, v), (v, u)):
                if cand < n_in:
                    continue
                if _semantic_notor(op_of(cand), *gate_inputs(cand)) == xy:
                    cg, borrow = cand, other
                    break
            if cg is None or borrow in (sg, cg):
                continue
            claimed = (sg, cg, ag, node)
            if len(set(claimed)) != 4:
                continue
            cmp_cells.append(
                _Cell(
                    "cmp", xy[0], xy[1], borrow, None, node,
                    internal=(sg, cg, ag), gates=claimed, removed=4,
                )
            )
            break
    return add_cells, cmp_cells, notand


def _assemble_chains(
    cells: List[_Cell],
    kind: str,
    notand: Dict[Tuple[int, int], int],
    netlist: Netlist,
) -> List[_Chain]:
    by_carry = {}
    by_cin = {}
    for cell in cells:
        by_carry.setdefault(cell.carry, cell)
        if cell.cin is not None:
            by_cin.setdefault(cell.cin, cell)
    ops = netlist.ops
    n_in = netlist.num_inputs
    used_heads = set()
    chains: List[_Chain] = []
    for cell in cells:
        if cell.cin is not None and cell.cin in by_carry:
            continue  # interior cell; reached from its chain start
        start = cell
        prefix: List[_Cell] = []
        if kind == "cmp" and cell.cin is not None and cell.cin >= n_in:
            # Try the folded head: borrow_1 = (not x0) and y0.
            code = int(ops[cell.cin - n_in])
            xy = _semantic_notand(
                code,
                int(netlist.in0[cell.cin - n_in]),
                int(netlist.in1[cell.cin - n_in]),
            )
            if xy is not None and cell.cin not in used_heads:
                used_heads.add(cell.cin)
                prefix = [
                    _Cell(
                        "cmp", xy[0], xy[1], None, None, cell.cin,
                        internal=(), gates=(cell.cin,), removed=1,
                    )
                ]
        chain_cells = prefix + [start]
        seen = {id(start)}
        nxt = by_cin.get(start.carry)
        while nxt is not None and id(nxt) not in seen:
            chain_cells.append(nxt)
            seen.add(id(nxt))
            nxt = by_cin.get(nxt.carry)
        chains.append(_Chain(kind=kind, cells=chain_cells))
    return chains


def _trim_chain(
    chain: _Chain,
    consumers: Dict[int, List[int]],
    output_set: set,
) -> Optional[_Chain]:
    """Cut the chain to its claimable prefix; set carry exposure."""
    kept: List[_Cell] = []
    expose = False
    cells = chain.cells
    for i, cell in enumerate(cells):
        own = set(cell.gates)
        bad_internal = any(
            node in output_set
            or any(c not in own for c in consumers.get(node, ()))
            for node in cell.internal
        )
        if bad_internal:
            break
        kept.append(cell)
        nxt_gates = (
            set(cells[i + 1].gates) if i + 1 < len(cells) else set()
        )
        carry_cons = consumers.get(cell.carry, ())
        external = cell.carry in output_set or any(
            c not in nxt_gates for c in carry_cons
        )
        if external:
            expose = bool(carry_cons) or cell.carry in output_set
            break
    if not kept:
        return None
    return _Chain(kind=chain.kind, cells=kept, expose_carry=expose)


def synthesize(
    netlist: Netlist, modulus: int = 16, min_chain_bits: int = 2
) -> Netlist:
    """Rewrite a boolean netlist into a mixed multi-bit netlist.

    ``modulus`` (p, a power of two >= 4) sets the digit encoding; the
    digit width is ``log2(p) - 1`` bits so one leveled sum of two
    digits plus a carry never overflows the half-torus.  The returned
    netlist carries an :class:`MbIoMap` tying its wires back
    to the source netlist's boolean bits, and a ``synthesis``
    attribute with the :class:`SynthesisReport`.
    """
    p = int(modulus)
    if p < 4 or p & (p - 1):
        raise ValueError("modulus must be a power of two >= 4")
    w = p.bit_length() - 2  # digit width: 2^(w+1) - 1 < p

    n_in = netlist.num_inputs
    consumers: Dict[int, List[int]] = {}
    for idx in range(netlist.num_gates):
        node = n_in + idx
        for operand in (int(netlist.in0[idx]), int(netlist.in1[idx])):
            if operand != NO_INPUT:
                consumers.setdefault(operand, []).append(node)
    output_set = set(int(o) for o in netlist.outputs)

    add_cells, cmp_cells, notand = _match_cells(netlist)
    chains: List[_Chain] = []
    for raw in _assemble_chains(add_cells, "add", notand, netlist):
        trimmed = _trim_chain(raw, consumers, output_set)
        if trimmed is not None and len(trimmed) >= max(min_chain_bits, 1):
            chains.append(trimmed)
    for raw in _assemble_chains(cmp_cells, "cmp", notand, netlist):
        trimmed = _trim_chain(raw, consumers, output_set)
        if trimmed is not None and len(trimmed) >= max(min_chain_bits, 1):
            chains.append(trimmed)

    # Greedy claim, longest first; overlapping chains fall back.
    chains.sort(key=lambda ch: -sum(c.removed for c in ch.cells))
    claimed: set = set()
    kept: List[_Chain] = []
    for chain in chains:
        gates = [g for cell in chain.cells for g in cell.gates]
        if any(g in claimed for g in gates):
            continue
        claimed.update(gates)
        kept.append(chain)

    kept = _benefit_filter(
        kept, netlist, consumers, output_set, p, w
    )
    claimed = set()
    for chain in kept:
        for cell in chain.cells:
            claimed.update(cell.gates)

    return _emit(netlist, kept, claimed, consumers, output_set, p, w)


def _operand_bits(chain: _Chain, digit: Tuple[int, int], side: str):
    start, width = digit
    attr = "a" if side == "a" else "b"
    return [getattr(chain.cells[start + j], attr) for j in range(width)]


def _plan_operands(
    kept: List[_Chain],
    netlist: Netlist,
    consumers: Dict[int, List[int]],
    output_set: set,
    w: int,
) -> None:
    """Decide how each digit operand is sourced (fills ``chain.plans``).

    Priority: whole-digit reuse of another kept chain's sum digit >
    grouping pure input bits into one digit ciphertext > per-bit B2D
    conversion bootstraps.
    """
    n_in = netlist.num_inputs
    sum_pos: Dict[int, Tuple[int, int]] = {}
    chain_gates: List[set] = []
    for ci, chain in enumerate(kept):
        gates: set = set()
        for bit, cell in enumerate(chain.cells):
            if cell.sum is not None:
                sum_pos[cell.sum] = (ci, bit)
            gates.update(cell.gates)
        chain_gates.append(gates)

    assigned_inputs: Dict[int, Tuple[int, int, str, int]] = {}
    for ci, chain in enumerate(kept):
        chain.plans.clear()
        sides = ("a", "b")
        for di, digit in enumerate(chain.digit_bits(w)):
            start, width = digit
            for side in sides:
                bits = _operand_bits(chain, digit, side)
                # Whole-digit alignment with another kept chain's sums.
                srcs = {sum_pos.get(bit) for bit in bits}
                plan = None
                if None not in srcs and len({s[0] for s in srcs}) == 1:
                    sci = next(iter(srcs))[0]
                    positions = [sum_pos[bit][1] for bit in bits]
                    src_digits = kept[sci].digit_bits(w)
                    for sdi, (sstart, swidth) in enumerate(src_digits):
                        if (
                            positions == list(range(sstart, sstart + width))
                            and swidth == width
                            and sci != ci
                        ):
                            plan = ("chain", sci, sdi)
                            break
                if plan is None and all(b < n_in for b in bits):
                    pure = (
                        len(set(bits)) == len(bits)
                        and not any(b in output_set for b in bits)
                        and not any(b in assigned_inputs for b in bits)
                        and all(
                            c in chain_gates[ci]
                            for b in bits
                            for c in consumers.get(b, ())
                        )
                    )
                    if pure:
                        for j, b in enumerate(bits):
                            assigned_inputs[b] = (ci, di, side, j)
                        plan = ("input", tuple(bits))
                if plan is None:
                    plan = ("b2d", tuple(bits))
                chain.plans[(di, side)] = plan


def _benefit_filter(
    kept: List[_Chain],
    netlist: Netlist,
    consumers: Dict[int, List[int]],
    output_set: set,
    p: int,
    w: int,
) -> List[_Chain]:
    """Drop chains whose conversions cost more than they save."""
    for _ in range(4):
        _plan_operands(kept, netlist, consumers, output_set, w)
        claimed: set = set()
        for chain in kept:
            for cell in chain.cells:
                claimed.update(cell.gates)
        drops: List[int] = []
        for ci, chain in enumerate(kept):
            removed = sum(c.removed for c in chain.cells)
            digits = chain.digit_bits(w)
            added = 0
            for di, (start, width) in enumerate(digits):
                if chain.kind == "add":
                    added += 1  # sum LUT
                    if di < len(digits) - 1 or chain.expose_carry:
                        added += 1  # carry LUT
                else:
                    added += 1  # borrow LUT
                for side in ("a", "b"):
                    plan = chain.plans[(di, side)]
                    if plan[0] == "b2d":
                        added += width
            head_cin = chain.cells[0].cin
            if head_cin is not None:
                added += 1  # carry-in B2D
            for cell in chain.cells:
                if cell.sum is None:
                    continue
                cons = consumers.get(cell.sum, ())
                if any(c not in claimed for c in cons):
                    added += 1  # D2B extraction for boolean consumers
            if chain.expose_carry:
                added += 1  # final carry D2B
            if added >= removed:
                drops.append(ci)
        if not drops:
            return kept
        kept = [ch for ci, ch in enumerate(kept) if ci not in set(drops)]
    _plan_operands(kept, netlist, consumers, output_set, w)
    return kept


def _emit(
    netlist: Netlist,
    kept: List[_Chain],
    claimed: set,
    consumers: Dict[int, List[int]],
    output_set: set,
    p: int,
    w: int,
) -> Netlist:
    n_in = netlist.num_inputs
    _plan_operands(kept, netlist, consumers, output_set, w)

    sum_map: Dict[int, Tuple[int, int]] = {}
    carry_map: Dict[int, int] = {}
    for ci, chain in enumerate(kept):
        for bit, cell in enumerate(chain.cells):
            if cell.sum is not None:
                sum_map[cell.sum] = (ci, bit)
        last = chain.cells[-1]
        if chain.expose_carry or chain.kind == "cmp":
            carry_map[last.carry] = ci

    # -- the mb builder state ------------------------------------------
    ops: List[int] = []
    in0: List[int] = []
    in1: List[int] = []
    prec: List[int] = []
    kxs: List[int] = []
    kys: List[int] = []
    kconsts: List[int] = []
    table_ids: List[int] = []
    tables: List[Tuple[int, ...]] = []
    table_index: Dict[Tuple[int, ...], int] = {}
    input_prec: List[int] = []
    input_bound: List[int] = []
    input_names: List[str] = []

    def table_of(entries: Sequence[int]) -> int:
        key = tuple(int(e) for e in entries)
        tid = table_index.get(key)
        if tid is None:
            tid = len(tables)
            tables.append(key)
            table_index[key] = tid
        return tid

    def new_gate(
        code: int,
        a: int,
        b: int = NO_INPUT,
        out_prec: int = 0,
        kx: int = 0,
        ky: int = 0,
        kconst: int = 0,
        table: int = -1,
    ) -> int:
        ops.append(code)
        in0.append(a)
        in1.append(b)
        prec.append(out_prec)
        kxs.append(kx)
        kys.append(ky)
        kconsts.append(kconst)
        table_ids.append(table)
        return len(input_prec) + len(ops) - 1

    # -- input wires ----------------------------------------------------
    input_groups: Dict[Tuple[int, int, str], List[Tuple[int, int]]] = {}
    for ci, chain in enumerate(kept):
        for (di, side), plan in chain.plans.items():
            if plan[0] == "input":
                input_groups[(ci, di, side)] = [
                    (bit, j) for j, bit in enumerate(plan[1])
                ]
    bit_to_group: Dict[int, Tuple[Tuple[int, int, str], int]] = {}
    for gkey, members in input_groups.items():
        for bit, j in members:
            bit_to_group[bit] = (gkey, j)

    io = MbIoMap(
        num_source_inputs=n_in,
        num_source_outputs=netlist.num_outputs,
    )
    input_wire: Dict[int, int] = {}
    group_wire: Dict[Tuple[int, int, str], int] = {}
    for i in range(n_in):
        grouped = bit_to_group.get(i)
        if grouped is None:
            wire = len(input_prec)
            input_prec.append(0)
            input_bound.append(1)
            input_names.append(netlist.input_names[i])
            input_wire[i] = wire
            io.input_entries.append((wire, None))
        else:
            gkey, j = grouped
            wire = group_wire.get(gkey)
            if wire is None:
                wire = len(input_prec)
                input_prec.append(p)
                # The client contract packs exactly this group's bits,
                # so the wire never carries more than 2^width - 1 —
                # the bound MB001's interval analysis certifies against.
                input_bound.append((1 << len(input_groups[gkey])) - 1)
                input_names.append(f"digit{len(group_wire)}")
                group_wire[gkey] = wire
            io.input_entries.append((wire, j))
    num_mb_inputs = len(input_prec)

    # -- lazy chain emission -------------------------------------------
    wire_of: Dict[int, int] = {}
    chain_sum_wire: List[Dict[int, int]] = [{} for _ in kept]
    chain_carry_wire: List[Dict[int, int]] = [{} for _ in kept]
    extract_wire: Dict[Tuple[int, int], int] = {}
    carry_bool_wire: Dict[int, int] = {}
    b2d_wire: Dict[Tuple[int, int], int] = {}

    def b2d(old_bit: int, weight: int) -> int:
        key = (old_bit, weight)
        wire = b2d_wire.get(key)
        if wire is None:
            src = resolve_bool(old_bit)
            tid = table_of((0, weight % p))
            wire = new_gate(OP_B2D, src, out_prec=p, table=tid)
            b2d_wire[key] = wire
        return wire

    def lin(
        a: int, b: int, kx: int, ky: int, kconst: int
    ) -> int:
        return new_gate(
            OP_LIN, a, b, out_prec=p, kx=kx, ky=ky, kconst=kconst
        )

    def operand_digit(ci: int, di: int, side: str, width: int):
        """Returns ``(wire or None, coeff, const_from_bits)``."""
        chain = kept[ci]
        plan = chain.plans[(di, side)]
        if plan[0] == "chain":
            ensure_digit(plan[1], plan[2])
            return chain_sum_wire[plan[1]][plan[2]]
        if plan[0] == "input":
            return group_wire[(ci, di, side)]
        # b2d: fold the per-bit conversions into one digit wire.
        bits = plan[1]
        acc = None
        for j, bit in enumerate(bits):
            contrib = b2d(bit, 1 << j)
            acc = contrib if acc is None else lin(acc, contrib, 1, 1, 0)
        return acc

    def ensure_digit(ci: int, di: int) -> None:
        if di in chain_sum_wire[ci] or di in chain_carry_wire[ci]:
            return
        chain = kept[ci]
        digits = chain.digit_bits(w)
        if di > 0 and (di - 1) not in chain_carry_wire[ci]:
            ensure_digit(ci, di - 1)
        start, width = digits[di]
        wa = operand_digit(ci, di, "a", width)
        wb = operand_digit(ci, di, "b", width)
        if di == 0:
            cin = chain.cells[0].cin
            carry_in = None if cin is None else b2d(cin, 1)
        else:
            carry_in = chain_carry_wire[ci][di - 1]
        top = (1 << width) - 1
        if chain.kind == "add":
            acc = lin(wa, wb, 1, 1, 0)
            if carry_in is not None:
                acc = lin(acc, carry_in, 1, 1, 0)
            sum_tid = table_of([s & top for s in range(p)])
            sum_wire = new_gate(OP_LUT, acc, out_prec=p, table=sum_tid)
            chain_sum_wire[ci][di] = sum_wire
            if di < len(digits) - 1 or chain.expose_carry:
                carry_tid = table_of(
                    [min(s >> width, 1) for s in range(p)]
                )
                chain_carry_wire[ci][di] = new_gate(
                    OP_LUT, acc, out_prec=p, table=carry_tid
                )
        else:
            # s = (2^width - 1) + y - x + borrow; borrow' = s >= 2^width
            acc = lin(wb, wa, 1, -1, top)
            if carry_in is not None:
                acc = lin(acc, carry_in, 1, 1, 0)
            borrow_tid = table_of(
                [1 if s > top else 0 for s in range(p)]
            )
            chain_carry_wire[ci][di] = new_gate(
                OP_LUT, acc, out_prec=p, table=borrow_tid
            )

    def resolve_bool(old: int) -> int:
        if old < n_in:
            wire = input_wire.get(old)
            if wire is None:
                raise AssertionError(
                    f"input bit {old} was digit-grouped but read as a "
                    "boolean wire"
                )
            return wire
        if old in sum_map:
            ci, bit = sum_map[old]
            di, offset = bit // w, bit % w
            ensure_digit(ci, di)
            key = (ci, bit)
            wire = extract_wire.get(key)
            if wire is None:
                tid = table_of(
                    [(s >> offset) & 1 for s in range(p)]
                )
                wire = new_gate(
                    OP_D2B,
                    chain_sum_wire[ci][di],
                    out_prec=0,
                    table=tid,
                )
                extract_wire[key] = wire
            return wire
        if old in carry_map:
            ci = carry_map[old]
            wire = carry_bool_wire.get(ci)
            if wire is None:
                last_digit = len(kept[ci].digit_bits(w)) - 1
                ensure_digit(ci, last_digit)
                tid = table_of([min(s, 1) for s in range(p)])
                wire = new_gate(
                    OP_D2B,
                    chain_carry_wire[ci][last_digit],
                    out_prec=0,
                    table=tid,
                )
                carry_bool_wire[ci] = wire
            return wire
        wire = wire_of.get(old)
        if wire is None:
            raise AssertionError(
                f"node {old} resolved before being emitted"
            )
        return wire

    # -- walk the unclaimed gates --------------------------------------
    for idx in range(netlist.num_gates):
        node = n_in + idx
        if node in claimed:
            continue
        code = int(netlist.ops[idx])
        gate = Gate(code)
        a = int(netlist.in0[idx])
        b = int(netlist.in1[idx])
        ra = resolve_bool(a) if gate.arity >= 1 else NO_INPUT
        rb = resolve_bool(b) if gate.arity == 2 else NO_INPUT
        wire_of[node] = new_gate(code, ra, rb, out_prec=0)

    # -- outputs --------------------------------------------------------
    outputs: List[int] = []
    output_names: List[str] = []
    out_index: Dict[int, int] = {}

    def out_pos(wire: int, label: str) -> int:
        pos = out_index.get(wire)
        if pos is None:
            pos = len(outputs)
            outputs.append(wire)
            output_names.append(label)
            out_index[wire] = pos
        return pos

    for j, out in enumerate(netlist.outputs):
        old = int(out)
        label = netlist.output_names[j]
        if old in sum_map:
            ci, bit = sum_map[old]
            di, offset = bit // w, bit % w
            ensure_digit(ci, di)
            wire = chain_sum_wire[ci][di]
            io.output_entries.append(
                (out_pos(wire, f"digit_{ci}_{di}"), offset)
            )
        else:
            wire = resolve_bool(old)
            io.output_entries.append((out_pos(wire, label), None))

    report = SynthesisReport(modulus=p, digit_width=w)
    for chain in kept:
        if chain.kind == "add":
            report.adder_chains += 1
        else:
            report.comparator_chains += 1
        report.bits_covered += len(chain.cells)
    report.bool_bootstraps_before = int(netlist.needs_bootstrap.sum())
    report.mb_bootstraps_after = sum(
        1 for c in ops if op_needs_bootstrap(c)
    )
    report.lut_bootstraps = sum(1 for c in ops if c == OP_LUT)
    report.b2d_conversions = sum(1 for c in ops if c == OP_B2D)
    report.d2b_conversions = sum(1 for c in ops if c == OP_D2B)

    mb = Netlist(
        num_inputs=num_mb_inputs,
        ops=ops,
        in0=in0,
        in1=in1,
        outputs=outputs,
        input_prec=input_prec,
        prec=prec,
        kx=kxs,
        ky=kys,
        kconst=kconsts,
        table_id=table_ids,
        tables=[list(t) for t in tables],
        input_bound=input_bound,
        io=io,
        input_names=input_names,
        output_names=output_names,
        name=f"{netlist.name}-mblut{p}",
    )
    mb.synthesis = report
    return mb
