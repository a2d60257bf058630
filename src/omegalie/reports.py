"""Verdict reports produced by every checker.

A report is a list of named clauses; each clause carries the exact values of
both sides of its identity at every violating index tuple, so a failure can
be reproduced and diffed without rerunning the checker.
"""

from __future__ import annotations


class Violation:
    def __init__(self, indices: tuple[int, ...], lhs: str, rhs: str):
        d = self.__dict__  # the hot path of every sweep: no __setattr__ calls
        d["indices"], d["lhs"], d["rhs"] = indices, lhs, rhs

    def __setattr__(self, name, value):
        raise AttributeError("Violation is immutable")

    def to_document(self) -> dict:
        # 1-based indices in serialized documents, matching the file format.
        return {
            "indices": [i + 1 for i in self.indices],
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class Clause:
    """One checked identity, with its violations (empty means the clause holds)."""

    def __init__(self, name: str, violations: list[Violation] | None = None):
        self.name = name
        self.violations = [] if violations is None else violations

    def add(self, indices: tuple[int, ...], lhs, rhs) -> None:
        self.violations.append(Violation(tuple(indices), repr(lhs), repr(rhs)))

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_document(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "violations": [v.to_document() for v in self.violations],
        }


class Report:
    """Outcome of one check: a titled bundle of clauses plus config metadata."""

    def __init__(self, title: str, clauses: list[Clause] | None = None, meta: dict | None = None):
        self.title = title
        self.clauses = [] if clauses is None else clauses
        self.meta = {} if meta is None else meta

    def clause(self, name: str) -> Clause:
        c = Clause(name)
        self.clauses.append(c)
        return c

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.clauses:
            copied = Clause(prefix + c.name, list(c.violations))
            self.clauses.append(copied)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_document(self) -> dict:
        return {
            "kind": "report",
            "title": self.title,
            "verdict": self.verdict,
            "clauses": [c.to_document() for c in self.clauses],
            "meta": self.meta,
        }

    def __repr__(self) -> str:
        parts = ", ".join(f"{c.name}={c.verdict}" for c in self.clauses)
        return f"Report({self.title}: {self.verdict}; {parts})"
