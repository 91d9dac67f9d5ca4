"""The findings model of the static analyzer.

Every check emits :class:`Finding` records — a rule id, a severity, a
human message, an optional circuit location (node / gate / level /
byte offset), and a fix hint — which are aggregated into a
:class:`Report`.  Reports render to an operator-readable text listing
and to a JSON document stable enough for CI gating, and can be told to
:meth:`Report.raise_on_errors` for hard compile gating.

Multi-million-gate netlists can trip the same rule arbitrarily often
(think a baseline framework netlist where *every* composite gate is a
CSE residue), so collection goes through a :class:`Collector` that
caps the stored findings per rule while still counting the overflow.

Ordering is part of the contract: every checker emits each rule's
findings in ascending (node, slot) order, the per-rule cap keeps the
first :data:`DEFAULT_MAX_FINDINGS_PER_RULE` of that sequence, and
:meth:`Collector.into_report` sorts the survivors by
``(rule, node, level, offset, message)`` — so ``repro check --json``
output is byte-stable across runs and engines and diffable in CI.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rules import Rule as RuleLike

#: Default per-rule storage cap (``repro check --max-findings-per-rule``).
DEFAULT_MAX_FINDINGS_PER_RULE = 25


class Severity(enum.IntEnum):
    """Finding severities, ordered so comparisons mean what you expect."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; choose from "
                f"{[s.name.lower() for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    severity: Severity
    message: str
    #: Node id in the netlist (inputs then gates), when applicable.
    node: Optional[int] = None
    #: BFS schedule level, for hazard/noise findings.
    level: Optional[int] = None
    #: Byte offset into a packed binary, for instruction-stream findings.
    offset: Optional[int] = None
    #: What to do about it.
    fix_hint: Optional[str] = None

    @property
    def where(self) -> str:
        parts = []
        if self.node is not None:
            parts.append(f"node {self.node}")
        if self.level is not None:
            parts.append(f"level {self.level}")
        if self.offset is not None:
            parts.append(f"offset {self.offset:#x}")
        return ", ".join(parts)

    def sort_key(self) -> Tuple[str, int, int, int, str]:
        """Canonical report order: (rule, node, level, offset, message)."""
        return (
            self.rule,
            self.node if self.node is not None else -1,
            self.level if self.level is not None else -1,
            self.offset if self.offset is not None else -1,
            self.message,
        )

    def as_dict(self) -> dict:
        out: dict = {
            "rule": self.rule,
            "severity": self.severity.name,
            "message": self.message,
        }
        for key in ("node", "level", "offset", "fix_hint"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "Finding":
        return cls(
            rule=doc["rule"],
            severity=Severity.parse(doc["severity"]),
            message=doc["message"],
            node=doc.get("node"),
            level=doc.get("level"),
            offset=doc.get("offset"),
            fix_hint=doc.get("fix_hint"),
        )

    def render(self) -> str:
        where = self.where
        line = f"{self.severity.name:7s} {self.rule}  {self.message}"
        if where:
            line += f"  [{where}]"
        if self.fix_hint:
            line += f"\n        hint: {self.fix_hint}"
        return line


class AnalysisError(RuntimeError):
    """Raised when hard gating is enabled and a report carries errors."""

    def __init__(self, report: "Report"):
        self.report = report
        errors = report.errors()
        head = "; ".join(f"{f.rule}: {f.message}" for f in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"static analysis of {report.subject!r} found "
            f"{len(errors)} error finding(s): {head}{more}"
        )


@dataclass
class Report:
    """All findings of one analysis run over one subject."""

    subject: str
    findings: List[Finding] = field(default_factory=list)
    #: Per-rule count of findings dropped by the collection cap.
    suppressed: Dict[str, int] = field(default_factory=dict)
    #: Which analysis families actually ran (e.g. noise needs params).
    families: List[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings) + sum(self.suppressed.values())

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sort(self) -> "Report":
        """Restore the canonical deterministic (rule, node, ...) order."""
        self.findings.sort(key=Finding.sort_key)
        return self

    def merge(self, other: "Report") -> None:
        self.findings.extend(other.findings)
        for rule, count in other.suppressed.items():
            self.suppressed[rule] = self.suppressed.get(rule, 0) + count
        for family in other.families:
            if family not in self.families:
                self.families.append(family)
        self.sort()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def at_least(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    def errors(self) -> List[Finding]:
        return self.at_least(Severity.ERROR)

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def rule_ids(self) -> List[str]:
        seen: List[str] = []
        for f in self.findings:
            if f.rule not in seen:
                seen.append(f.rule)
        return seen

    @property
    def has_errors(self) -> bool:
        return any(f.severity >= Severity.ERROR for f in self.findings)

    @property
    def ok(self) -> bool:
        return not self.has_errors

    def severity_counts(self) -> Dict[str, int]:
        counts = {s.name: 0 for s in Severity}
        for f in self.findings:
            counts[f.severity.name] += 1
        return counts

    def raise_on_errors(self) -> "Report":
        if self.has_errors:
            raise AnalysisError(self)
        return self

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "families": list(self.families),
            "counts": self.severity_counts(),
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": dict(self.suppressed),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, doc: dict) -> "Report":
        """Rebuild a report from :meth:`as_dict` output (cache loads)."""
        return cls(
            subject=doc["subject"],
            findings=[Finding.from_dict(f) for f in doc["findings"]],
            suppressed={
                str(k): int(v) for k, v in doc.get("suppressed", {}).items()
            },
            families=list(doc.get("families", [])),
        )

    def render_text(self) -> str:
        lines = [f"== static analysis: {self.subject} =="]
        if self.families:
            lines.append(f"families: {', '.join(self.families)}")
        if not self.findings:
            lines.append("no findings — circuit is clean")
        for f in sorted(
            self.findings, key=lambda f: (-int(f.severity), f.rule)
        ):
            lines.append(f.render())
        for rule, count in sorted(self.suppressed.items()):
            lines.append(f"...     {rule}  (+{count} more findings capped)")
        counts = self.severity_counts()
        lines.append(
            f"summary: {counts['ERROR']} error(s), "
            f"{counts['WARNING']} warning(s), {counts['INFO']} info"
            + ("" if self.ok else "  ** FAILED **")
        )
        return "\n".join(lines)


class Collector:
    """Accumulates findings with a per-rule storage cap.

    Checkers must emit each rule's findings in ascending canonical
    order (node, then slot); the eager cap then keeps exactly the
    findings a sort-all-then-truncate pass would, without ever
    materializing the overflow.  Vectorized checkers reserve room in
    bulk via :meth:`admit` so they can skip rendering messages the cap
    would drop anyway.
    """

    def __init__(self, max_per_rule: int = DEFAULT_MAX_FINDINGS_PER_RULE):
        self.max_per_rule = max_per_rule
        self.findings: List[Finding] = []
        self.suppressed: Dict[str, int] = {}
        self._per_rule: Dict[str, int] = {}

    def admit(self, rule: "RuleLike", total: int) -> int:
        """Reserve room for ``total`` findings of ``rule``.

        Returns how many of them the caller should materialize (and
        then pass to :meth:`add`, in canonical order); the remainder is
        recorded as suppressed immediately.
        """
        if total <= 0:
            return 0
        if not self.max_per_rule:
            return total
        stored = self._per_rule.get(rule.id, 0)
        keep = max(0, min(total, self.max_per_rule - stored))
        if total > keep:
            self.suppressed[rule.id] = (
                self.suppressed.get(rule.id, 0) + total - keep
            )
        return keep

    def admit_slots(
        self,
        rule: "RuleLike",
        mask0: np.ndarray,
        mask1: np.ndarray,
        render: Callable[[int, int], None],
    ) -> None:
        """Emit a per-operand-slot rule in ascending (row, slot) order.

        ``mask0``/``mask1`` flag the rows whose slot 0 / slot 1
        violates ``rule``; ``render(row, slot)`` adds the finding for
        each one the per-rule cap admits.
        """
        rows0 = np.nonzero(mask0)[0]
        rows1 = np.nonzero(mask1)[0]
        total = len(rows0) + len(rows1)
        if not total:
            return
        rows = np.concatenate((rows0, rows1))
        slots = np.repeat((0, 1), (len(rows0), len(rows1)))
        order = np.lexsort((slots, rows))
        for k in order[: self.admit(rule, total)]:
            render(int(rows[k]), int(slots[k]))

    def add(
        self,
        rule: "RuleLike",
        message: str,
        node: Optional[int] = None,
        level: Optional[int] = None,
        offset: Optional[int] = None,
        fix_hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> None:
        rule_id = rule.id
        stored = self._per_rule.get(rule_id, 0)
        if self.max_per_rule and stored >= self.max_per_rule:
            self.suppressed[rule_id] = self.suppressed.get(rule_id, 0) + 1
            return
        self._per_rule[rule_id] = stored + 1
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=severity if severity is not None else rule.severity,
                message=message,
                node=node,
                level=level,
                offset=offset,
                fix_hint=fix_hint,
            )
        )

    def into_report(self, subject: str, families: List[str]) -> Report:
        return Report(
            subject=subject,
            findings=self.findings,
            suppressed=self.suppressed,
            families=families,
        ).sort()
