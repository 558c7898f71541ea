"""Derivation traces: auditable step-by-step records of a derivation.

Each step names the rewrite rule applied, the premises it used (earlier
step ids or axiom names), and its conclusion.  Traces are append-only and
validate the premise discipline at append time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

AXIOMS = frozenset(
    {
        "degeneracy",
        "invariance",
        "stability",
        "additivity",
        "normalization",
        "continuity",
        "linearity",
        "sure-thing",
        "zero-sum",
        "payoff-equivalence",
        "measurement-equivalence",
    }
)

DERIVATION_RULES = frozenset(
    {"phase-elim", "permutation", "complement", "additivity", "refinement", "continuity"}
)

GAME_RULES = frozenset(
    {"measurement-equivalence", "payoff-equivalence", "sure-thing", "zero-sum"}
)


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
    """Ordered proof log; premises must be axioms or earlier conclusions."""

    rules: frozenset[str] = field(default_factory=lambda: DERIVATION_RULES)
    steps: list[TraceStep] = field(default_factory=list)

    def add(
        self,
        rule: str,
        conclusion: str,
        premises: tuple[str, ...] | list[str] = (),
        payload: dict[str, Any] | None = None,
    ) -> str:
        if rule not in self.rules:
            raise ValueError(f"rule {rule!r} not in this trace's vocabulary")
        known = {step.step_id for step in self.steps}
        for premise in premises:
            if premise not in known and premise not in AXIOMS:
                raise ValueError(f"premise {premise!r} is neither an axiom nor an earlier step")
        step_id = f"s{len(self.steps) + 1}"
        self.steps.append(TraceStep(step_id, rule, tuple(premises), conclusion, payload))
        return step_id

    def to_dict(self) -> dict[str, Any]:
        return {"steps": [step.to_dict() for step in self.steps]}
