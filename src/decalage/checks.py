"""Structured pass/fail records shared by the lemma and theorem suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of one named check; failures carry witness payloads."""

    name: str
    passed: bool = True
    failures: list = field(default_factory=list)

    def fail(self, **witness) -> None:
        self.passed = False
        self.failures.append(witness)

    def expect(self, condition: bool, **witness) -> None:
        if not condition:
            self.fail(**witness)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "failures": [_stringify(f) for f in self.failures],
        }


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)
