"""Circuit builder: the mutable construction API behind ChiselTorch.

The builder appends gates in topological order and (optionally)
performs the two local optimizations the PyTFHE flow relies on for its
gate-count advantage over the baseline frameworks:

* **hash-consing** (structural sharing): identical gates are created
  once, with commutative/swappable operand canonicalization;
* **constant folding + local algebraic rules**: plaintext neural-network
  weights collapse at elaboration time, and inverters are absorbed into
  the composite TFHE gates (AND + NOT -> NAND, etc.), since TFHE
  evaluates e.g. ANDYN at the same cost as AND.

These local rules are the one specification of synthesis: the passes
in :mod:`repro.synth.passes` apply exactly them, as column sweeps over
a built :class:`Netlist`.

Baseline framework models construct their netlists with these switches
off, reproducing their characteristic gate inflation (paper Fig. 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..gatetypes import CODE_TRUTH, INVERT_A, INVERT_B, SWAP, Gate, op_name
from .netlist import NO_INPUT, Netlist

# Per-code tables of the per-gate path, derived once from ``gatetypes``
# so that a request reads plain ints and never constructs a ``Gate``.
# ``Gate`` members hash like their codes, so either keys these dicts.
_CODE: Dict[int, int] = {gate: int(gate) for gate in Gate}
_ARITY: Dict[int, int] = {int(gate): gate.arity for gate in Gate}
#: Truth table of each code, bit ``2*a + b`` holding its output.
_TRUTH: Dict[int, int] = {int(gate): int(CODE_TRUTH[gate]) for gate in Gate}
_INVERT_A: Dict[int, int] = {int(k): int(v) for k, v in INVERT_A.items()}
_INVERT_B: Dict[int, int] = {int(k): int(v) for k, v in INVERT_B.items()}
#: Operand swap of every two-input gate (commutative gates map to
#: themselves).
_SWAP: Dict[int, int] = {int(k): int(v) for k, v in SWAP.items()}
_AND, _OR, _XOR = int(Gate.AND), int(Gate.OR), int(Gate.XOR)
_NAND, _NOR, _XNOR = int(Gate.NAND), int(Gate.NOR), int(Gate.XNOR)
_ANDNY, _NOT, _BUF = int(Gate.ANDNY), int(Gate.NOT), int(Gate.BUF)
_CONST0, _CONST1 = int(Gate.CONST0), int(Gate.CONST1)


class CircuitBuilder:
    """Incrementally builds a :class:`Netlist`."""

    def __init__(
        self,
        hash_cons: bool = True,
        fold_constants: bool = True,
        absorb_inverters: bool = True,
        name: str = "netlist",
        adder_style: str = "ripple",
    ):
        if adder_style not in ("ripple", "prefix"):
            raise ValueError("adder_style must be 'ripple' or 'prefix'")
        self.name = name
        self.hash_cons = hash_cons
        self.fold_constants = fold_constants
        self.absorb_inverters = absorb_inverters
        #: Which adder the arithmetic generators should instantiate:
        #: "ripple" (fewest gates) or "prefix" (log-depth Sklansky, for
        #: latency-bound wide backends).
        self.adder_style = adder_style
        self._num_inputs = 0
        self._input_names: List[str] = []
        self._ops: List[int] = []
        self._in0: List[int] = []
        self._in1: List[int] = []
        self._outputs: List[int] = []
        self._output_names: List[str] = []
        self._cache: Dict[Tuple[int, int, int], int] = {}
        self._const_nodes: Dict[bool, int] = {}
        #: ``node -> value`` of the (at most two) constant nodes.
        self._const_of: Dict[int, bool] = {}
        #: ``node -> operand`` of every NOT node.
        self._not_of: Dict[int, int] = {}
        #: Structural-sharing cache hits (one per gate request answered
        #: by an existing node) — the observability layer reports this
        #: per synthesis pass.
        self.cse_hits = 0

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self._ops)

    @property
    def num_inputs(self) -> int:
        return self._num_inputs

    def input(self, name: Optional[str] = None) -> int:
        """Declare a fresh circuit input; returns its node id.

        All inputs must be declared before any gate is created (inputs
        occupy the low node ids).
        """
        if self._ops:
            raise RuntimeError("inputs must be declared before gates")
        node = self._num_inputs
        self._num_inputs += 1
        self._input_names.append(name or f"in{node}")
        return node

    def inputs(self, count: int, prefix: str = "in") -> List[int]:
        return [self.input(f"{prefix}{i}") for i in range(count)]

    def const(self, value: bool) -> int:
        """Node carrying a boolean constant (one CONST gate per value)."""
        value = bool(value)
        node = self._const_nodes.get(value)
        if node is None:
            node = self._append(
                _CONST1 if value else _CONST0, NO_INPUT, NO_INPUT
            )
            self._const_nodes[value] = node
            self._const_of[node] = value
        return node

    def const_value(self, node: int) -> Optional[bool]:
        """The constant carried by ``node``, or None if non-constant."""
        return self._const_of.get(node)

    def _append(self, code: int, a: int, b: int) -> int:
        node = self._num_inputs + len(self._ops)
        if self.hash_cons:
            key = (code, a, b)
            cached = self._cache.get(key)
            if cached is not None:
                self.cse_hits += 1
                return cached
            self._cache[key] = node
        self._ops.append(code)
        self._in0.append(a)
        self._in1.append(b)
        if code == _NOT:
            self._not_of[node] = a
        return node

    # ------------------------------------------------------------------
    # Gate creation with local rules
    # ------------------------------------------------------------------
    def gate(self, gate: Gate, a: int = NO_INPUT, b: int = NO_INPUT) -> int:
        """Create (or reuse) a gate; returns the node carrying its output."""
        code = _CODE.get(gate)
        if code is None:
            raise ValueError(f"{gate!r} is not a valid Gate")
        if _ARITY[code] == 2:
            return self._gate2(code, a, b)
        if code == _NOT:
            return self._not(a)
        if code == _BUF:
            return a if self.fold_constants else self._append(code, a, NO_INPUT)
        return self.const(code == _CONST1)

    def _not(self, a: int) -> int:
        if self.fold_constants:
            cv = self._const_of.get(a)
            if cv is not None:
                return self.const(not cv)
            source = self._not_of.get(a)
            if source is not None:
                return source
        return self._append(_NOT, a, NO_INPUT)

    def _gate2(self, code: int, a: int, b: int) -> int:
        if a < 0 or b < 0:
            raise ValueError(f"{op_name(code)} requires two inputs")
        if self.fold_constants:
            ca = self._const_of.get(a)
            cb = self._const_of.get(b)
            if ca is not None or cb is not None or a == b:
                truth = _TRUTH[code]
                if ca is not None and cb is not None:
                    return self.const(bool(truth >> (2 * ca + cb) & 1))
                if ca is not None:
                    return self._shape_result(
                        truth >> 2 * ca & 1, truth >> (2 * ca + 1) & 1, b
                    )
                if cb is not None:
                    return self._shape_result(
                        truth >> cb & 1, truth >> (2 + cb) & 1, a
                    )
                return self._shape_result(truth & 1, truth >> 3 & 1, a)
        if self.absorb_inverters:
            source = self._not_of.get(a)
            if source is not None and code in _INVERT_A:
                return self._gate2(_INVERT_A[code], source, b)
            source = self._not_of.get(b)
            if source is not None and code in _INVERT_B:
                return self._gate2(_INVERT_B[code], a, source)
        # Canonicalize operand order for sharing.
        if self.hash_cons and a > b:
            code, a, b = _SWAP[code], b, a
        return self._append(code, a, b)

    def _shape_result(self, value_at_0: int, value_at_1: int, x: int) -> int:
        """Resolve a unary residual function {0,1} -> {0,1} of node ``x``."""
        if value_at_0 == value_at_1:
            return self.const(bool(value_at_0))
        if value_at_1:
            return x
        return self._not(x)

    # ------------------------------------------------------------------
    # Convenience gate helpers
    # ------------------------------------------------------------------
    def and_(self, a: int, b: int) -> int:
        return self._gate2(_AND, a, b)

    def or_(self, a: int, b: int) -> int:
        return self._gate2(_OR, a, b)

    def xor_(self, a: int, b: int) -> int:
        return self._gate2(_XOR, a, b)

    def nand_(self, a: int, b: int) -> int:
        return self._gate2(_NAND, a, b)

    def nor_(self, a: int, b: int) -> int:
        return self._gate2(_NOR, a, b)

    def xnor_(self, a: int, b: int) -> int:
        return self._gate2(_XNOR, a, b)

    def not_(self, a: int) -> int:
        return self._not(a)

    def mux(self, sel: int, when_true: int, when_false: int) -> int:
        """2:1 multiplexer: ``sel ? when_true : when_false`` (3 gates)."""
        if self.fold_constants:
            sv = self.const_value(sel)
            if sv is not None:
                return when_true if sv else when_false
            if when_true == when_false:
                return when_true
        taken = self.and_(when_true, sel)
        skipped = self._gate2(_ANDNY, sel, when_false)
        return self.or_(taken, skipped)

    # ------------------------------------------------------------------
    # Outputs / finalization
    # ------------------------------------------------------------------
    def output(self, node: int, name: Optional[str] = None) -> None:
        if not (0 <= node < self._num_inputs + len(self._ops)):
            raise ValueError(f"output node {node} does not exist")
        self._outputs.append(node)
        self._output_names.append(name or f"out{len(self._outputs) - 1}")

    def build(self) -> Netlist:
        """Freeze into an immutable :class:`Netlist`."""
        return Netlist(
            num_inputs=self._num_inputs,
            ops=self._ops,
            in0=self._in0,
            in1=self._in1,
            outputs=self._outputs,
            input_names=list(self._input_names),
            output_names=list(self._output_names),
            name=self.name,
        )
