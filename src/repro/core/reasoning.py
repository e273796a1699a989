"""Constraint-based causal reasoning (§3.3, citing Pearl [13]).

"Intelliagents use constraint-based causal reasoning.  The data
structures they use are flat ASCII textual ontologies which contain
minimum and maximum software and hardware related variables, as well as
application information.  Our static ontologies represent the
constraints in the reasoning."

The engine is a compact cause-elimination loop: for a symptom
(:class:`~repro.core.parts.Finding`), candidate causes are tried in
order; each :class:`CausalRule` carries a *test* -- a discriminating
observation made through shell commands or log greps -- and the first
cause whose test confirms wins.  The constraints (thresholds, expected
process tables) come from the SLKT/baseline ontologies, not from code,
and the rules are class data: each agent class declares one engine
that all its agents share, each test a module-level function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.parts import Finding

__all__ = ["CausalRule", "Diagnosis", "RuleEngine", "always"]


def always(host, finding: Finding) -> bool:
    """The test of a symptom that names its own cause."""
    return True


@dataclass(frozen=True)
class CausalRule:
    """symptom --(test)--> cause, with repair hints.

    ``test(host, finding) -> bool`` confirms or eliminates the cause;
    ``actions`` are healing-library action names, tried in order.
    """

    symptom: str
    cause: str
    test: Callable[[object, Finding], bool]
    actions: tuple


@dataclass
class Diagnosis:
    """The outcome of the diagnosing part for one finding."""

    finding: Finding
    cause: str
    actions: List[str]
    evidence: List[str] = field(default_factory=list)
    confirmed: bool = True

    @property
    def actionable(self) -> bool:
        return bool(self.actions)


class RuleEngine:
    """Ordered causal rules keyed by symptom kind, fixed when built."""

    def __init__(self, rules: Sequence[CausalRule] = ()):
        self._rules: Dict[str, List[CausalRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.symptom, []).append(rule)

    def diagnose(self, host, finding: Finding) -> Diagnosis:
        """Walk the candidate causes for this symptom; first confirmed
        test wins.  When no rule confirms, the diagnosis is the
        unconfirmed symptom itself with no actions -- the agent will
        escalate to humans ("notify human administrators")."""
        evidence: List[str] = []
        for rule in self._rules.get(finding.kind, ()):
            try:
                confirmed = bool(rule.test(host, finding))
            except Exception as exc:       # a probe itself can fail
                evidence.append(f"test for {rule.cause!r} errored: {exc}")
                continue
            evidence.append(
                f"{'confirmed' if confirmed else 'eliminated'}: {rule.cause}")
            if confirmed:
                return Diagnosis(finding, rule.cause, list(rule.actions),
                                 evidence)
        return Diagnosis(finding, f"unknown ({finding.kind})", [],
                         evidence, confirmed=False)
