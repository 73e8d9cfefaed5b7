"""Typed diagnostics and the lint rule catalog (SW001–SW007, RD001–RD005).

Each SW rule encodes one of the paper's hard-won offloading lessons as a
statically checkable property of one offload plan; the RD family covers
the *parallel layer* — races and determinism hazards across ranks,
exchange buffers and the shared arena (see
:mod:`repro.analysis.races`).  Either way the sanitizer can upgrade a
diagnostic's ``verdict`` from None to ``CONFIRMED`` or
``FALSE_POSITIVE`` by observing the actual access sets at execution
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class Severity(IntEnum):
    """Ranked severity; higher is worse (sorting uses the negation)."""

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Rule:
    id: str
    title: str
    severity: Severity


#: The swlint diagnostic catalog.  Rule IDs are stable public API — the
#: regression corpus and CI key off them.
RULES: dict = {
    "SW001": Rule("SW001", "cross-chunk data race (non-chunk-local write)", Severity.ERROR),
    "SW002": Rule("SW002", "nowait hazard between dependent loops", Severity.ERROR),
    "SW003": Rule("SW003", "target region launched before init_from_mpe", Severity.ERROR),
    "SW004": Rule("SW004", "LDCache thrash (ways over-subscribed, aligned bases)",
                  Severity.WARNING),
    "SW005": Rule("SW005", "LDM budget exceeded for staged chunk", Severity.ERROR),
    "SW006": Rule("SW006", "precision-sensitive term computed in float32", Severity.ERROR),
    "SW007": Rule("SW007", "read reaches beyond the declared halo width", Severity.ERROR),
    # RD family: races & determinism across the parallel layer.
    "RD001": Rule("RD001", "write-write conflict on overlapping arena slots", Severity.ERROR),
    "RD002": Rule("RD002", "halo read before the exchange recv completes", Severity.ERROR),
    "RD003": Rule("RD003", "zero-copy pack buffer reused while in flight", Severity.ERROR),
    "RD004": Rule("RD004", "missing barrier between dependent RK phases", Severity.ERROR),
    "RD005": Rule("RD005", "order-sensitive reduction without tolerance contract",
                  Severity.ERROR),
}

#: Sanitizer verdicts.
CONFIRMED = "CONFIRMED"
FALSE_POSITIVE = "FALSE_POSITIVE"


@dataclass
class Diagnostic:
    """One analyzer finding, ready for JSON or human rendering."""

    rule: str                    # "SW001"... / "RD001"... (a RULES key)
    message: str
    plan: str = ""
    loop: str = ""
    array: str = ""
    severity: Severity | None = None     # defaults to the rule's severity
    details: dict = field(default_factory=dict)
    #: None until the sanitizer checks it; then CONFIRMED/FALSE_POSITIVE.
    verdict: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if self.severity is None:
            self.severity = RULES[self.rule].severity

    @property
    def title(self) -> str:
        return RULES[self.rule].title

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "title": self.title,
            "severity": self.severity.name,
            "plan": self.plan,
            "loop": self.loop,
            "array": self.array,
            "message": self.message,
            "details": self.details,
            "verdict": self.verdict,
        }


def rank(diagnostics: list) -> list:
    """Severity-ranked view: errors first, stable within a severity."""
    return sorted(
        diagnostics,
        key=lambda d: (-int(d.severity), d.rule, d.plan, d.loop, d.array),
    )
