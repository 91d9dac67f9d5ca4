"""The rule catalog of the static analyzer.

Rule ids are stable, documented identifiers (README "Static analysis"
section); CI and user tooling key off them, so adding a rule is fine
but renumbering one is a breaking change.

Families
--------
* ``SL`` — structural lint over the netlist DAG,
* ``HZ`` — schedule legality and result-plane hazard detection,
* ``IS`` — packed 128-bit instruction-stream checks,
* ``NB`` — static noise-budget certification,
* ``PC`` — synthesis pass checking (``--check-passes``),
* ``DF`` — dataflow: constant/known-plaintext propagation,
* ``SC`` — security: transparent-ciphertext taint tracking,
* ``CA`` — cost certification: latency/memory budgets and
  parallelism feasibility,
* ``MB`` — multi-bit coherence: digit precision overflow and
  LUT table/precision agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .findings import Severity


@dataclass(frozen=True)
class Rule:
    """One named check with a stable id and default severity."""

    id: str
    severity: Severity
    title: str
    description: str

    @property
    def family(self) -> str:
        return self.id[:2]


_CATALOG: List[Rule] = [
    # ---------------------------------------------------------- structural
    Rule(
        "SL001", Severity.ERROR, "combinational loop",
        "A gate reads a node that is not produced strictly before it "
        "(forward or self reference), i.e. the DAG contains a cycle.",
    ),
    Rule(
        "SL002", Severity.ERROR, "dangling operand",
        "A gate operand points outside the node space (negative or past "
        "the last node) — the wire is undriven.",
    ),
    Rule(
        "SL003", Severity.ERROR, "arity mismatch",
        "A gate is missing a required operand, or carries a stray "
        "operand its arity says it never reads.",
    ),
    Rule(
        "SL004", Severity.ERROR, "output references missing node",
        "A circuit output names a node that does not exist.",
    ),
    Rule(
        "SL005", Severity.ERROR, "unknown gate code",
        "An op code is not in the Gate vocabulary.",
    ),
    Rule(
        "SL101", Severity.WARNING, "dead gate",
        "A gate is not reachable backward from any output; it burns a "
        "bootstrap for nothing.",
    ),
    Rule(
        "SL102", Severity.WARNING, "duplicate gate",
        "Two gates share op and operands — a structural twin that "
        "survived CSE.",
    ),
    Rule(
        "SL103", Severity.WARNING, "constant-foldable residue",
        "A gate is statically decidable (constant operand, x op x, "
        "double negation, or a bare BUF) and should have been folded.",
    ),
    Rule(
        "SL104", Severity.INFO, "unused input",
        "A circuit input drives no output-reachable logic.",
    ),
    # ------------------------------------------------------------- hazards
    Rule(
        "HZ001", Severity.ERROR, "gate never scheduled",
        "A netlist gate appears in no schedule level; its result-plane "
        "slot is never written.",
    ),
    Rule(
        "HZ002", Severity.ERROR, "write-after-write hazard",
        "A result-plane slot is written more than once (a gate is "
        "scheduled in multiple levels or duplicated within one).",
    ),
    Rule(
        "HZ003", Severity.ERROR, "read-before-write hazard",
        "A gate reads a result-plane slot that no earlier level (or "
        "earlier free gate of the same level) has written.",
    ),
    Rule(
        "HZ004", Severity.ERROR, "intra-level race",
        "A bootstrapped gate reads an operand produced by the same "
        "level's bootstrapped batch; the batch executes in parallel, so "
        "the read races the write.",
    ),
    Rule(
        "HZ005", Severity.ERROR, "output never computed",
        "A circuit output references a slot no scheduled gate writes.",
    ),
    Rule(
        "HZ006", Severity.ERROR, "misclassified gate",
        "A schedule level lists a gate in the wrong execution class "
        "(a free gate in the bootstrapped batch or vice versa).",
    ),
    # --------------------------------------------------- instruction stream
    Rule(
        "IS001", Severity.ERROR, "malformed instruction stream",
        "The packed binary cannot be decoded: bad length, missing "
        "header, or an unknown instruction nibble.",
    ),
    Rule(
        "IS002", Severity.ERROR, "header gate-count mismatch",
        "The header's total-gates field disagrees with the number of "
        "gate instructions in the stream.",
    ),
    Rule(
        "IS003", Severity.ERROR, "instruction out of order",
        "The stream violates the header/inputs/gates/outputs section "
        "order (e.g. an input instruction after gates began).",
    ),
    Rule(
        "IS004", Severity.ERROR, "operand forward reference",
        "A gate instruction reads a node index that is not defined "
        "earlier in the stream — a read-before-write on the result "
        "plane.",
    ),
    Rule(
        "IS005", Severity.ERROR, "operand/arity mismatch",
        "A gate instruction carries the unused-operand marker where its "
        "arity requires a real operand (or a real operand where the "
        "marker is required).",
    ),
    Rule(
        "IS006", Severity.ERROR, "output references undefined node",
        "An output instruction names a node index the stream never "
        "defines.",
    ),
    # ---------------------------------------------------------------- noise
    Rule(
        "NB001", Severity.ERROR, "noise budget exceeded",
        "A level's predicted decision margin is below the hard sigma "
        "threshold; decryption of its gate outputs is at risk.",
    ),
    Rule(
        "NB002", Severity.WARNING, "noise margin low",
        "A level's predicted decision margin is below the warning "
        "sigma threshold.",
    ),
    Rule(
        "NB003", Severity.WARNING, "circuit failure expectation high",
        "Summed over all bootstrapped gates, the expected number of "
        "wrong gate decryptions exceeds the configured budget.",
    ),
    # ------------------------------------------------------------- dataflow
    Rule(
        "DF001", Severity.WARNING, "constant-valued gate",
        "Constant propagation over the gate DAG proves this gate's "
        "output is the same bit for every circuit input (e.g. an AND "
        "with a propagated known-0 operand); it is computable at "
        "compile time and should be folded, not bootstrapped.",
    ),
    Rule(
        "DF002", Severity.INFO, "gate reduces to a free operation",
        "One operand is a propagated compile-time constant and the "
        "gate collapses to a BUF or NOT of its other operand — a free "
        "linear ciphertext operation instead of a bootstrap.",
    ),
    # ------------------------------------------------------------- security
    Rule(
        "SC001", Severity.WARNING, "transparent-ciphertext output",
        "A circuit output is derivable purely from public constants: "
        "it depends on no encrypted input, so the evaluating server "
        "can read its plaintext value.",
    ),
    Rule(
        "SC002", Severity.INFO, "bootstrap over transparent operands",
        "A bootstrapped gate consumes only transparent "
        "(publicly-derivable) operands; it spends a bootstrap on data "
        "the server already knows.",
    ),
    # ---------------------------------------------------------------- cost
    Rule(
        "CA001", Severity.ERROR, "predicted latency over budget",
        "The cost certificate's predicted execute latency for the "
        "declared backend exceeds the declared latency budget; the "
        "program cannot meet its deadline even before queueing.",
    ),
    Rule(
        "CA002", Severity.ERROR, "memory high-water over budget",
        "The ciphertext-plane memory high-water mark (peak "
        "simultaneously-live wires x ciphertext size) exceeds the "
        "declared memory budget.",
    ),
    Rule(
        "CA003", Severity.WARNING, "degenerate parallelism for backend",
        "The program's work/span bound is too low for the requested "
        "parallel backend to help; batching or distributing it only "
        "adds overhead.",
    ),
    # ------------------------------------------------------------ multi-bit
    Rule(
        "MB001", Severity.ERROR, "digit precision overflow",
        "Interval analysis over a leveled LIN chain proves a wire's "
        "message range escapes [0, p-1] for its declared modulus; the "
        "half-torus encoding wraps and every downstream LUT reads the "
        "wrong slice.",
    ),
    Rule(
        "MB002", Severity.ERROR, "table/precision mismatch",
        "A programmable-bootstrap table disagrees with its operand's "
        "precision: wrong entry count for the input modulus, an entry "
        "outside the output modulus, or a missing/out-of-range table "
        "id.",
    ),
    # ----------------------------------------------------------- pass check
    Rule(
        "PC001", Severity.ERROR, "pass changed semantics",
        "A synthesis pass produced a netlist that is not equivalent to "
        "its input (counterexample vector attached).",
    ),
    Rule(
        "PC002", Severity.ERROR, "pass produced invalid netlist",
        "A synthesis pass produced a netlist with error-severity "
        "structural/hazard/noise findings.",
    ),
    Rule(
        "PC003", Severity.ERROR, "pass crashed",
        "A synthesis pass raised an exception.",
    ),
]

RULES: Dict[str, Rule] = {rule.id: rule for rule in _CATALOG}


def rule(rule_id: str) -> Rule:
    return RULES[rule_id]


def catalog_by_family() -> Dict[str, List[Rule]]:
    families: Dict[str, List[Rule]] = {}
    for r in _CATALOG:
        families.setdefault(r.family, []).append(r)
    return families
