"""The structured result type every lint rule emits."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Findings sort by location (path, line, rule) so reports are stable
    across runs regardless of rule execution order.
    """

    #: Repo-relative posix path of the offending file.
    path: str
    #: 1-based line of the offending node.
    line: int
    #: Name of the rule that fired.
    rule: str
    #: Human-readable description of the violated contract.
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
