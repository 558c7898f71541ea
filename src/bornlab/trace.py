"""Derivation traces: auditable step-by-step records of a derivation.

Each step names the rewrite rule applied, the premises it used (earlier
step ids or axiom names), and its conclusion.  Traces are append-only;
step ids run s1, s2, ... in the order the steps were added.  Every rule
and premise a derivation passes is a literal of its module or an id that
``add`` returned, so the trace does not re-check them: the premise
discipline is held by the test suite over every derivation the CLI runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceStep:
    step_id: str
    rule: str
    premises: tuple[str, ...]
    conclusion: str
    payload: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "id": self.step_id,
            "rule": self.rule,
            "premises": list(self.premises),
            "conclusion": self.conclusion,
        }
        if self.payload is not None:
            out["payload"] = self.payload
        return out


@dataclass
class DerivationTrace:
    """Ordered proof log; premises are axioms or earlier step ids."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(
        self,
        rule: str,
        conclusion: str,
        premises: tuple[str, ...] | list[str] = (),
        payload: dict[str, Any] | None = None,
    ) -> str:
        step_id = f"s{len(self.steps) + 1}"
        self.steps.append(TraceStep(step_id, rule, tuple(premises), conclusion, payload))
        return step_id

    def to_dict(self) -> dict[str, Any]:
        return {"steps": [step.to_dict() for step in self.steps]}
