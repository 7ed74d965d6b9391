"""The AST lint framework: rule protocol, file walker, `run_analysis`.

The rules are one tuple, :data:`repro.analysis.rules.RULES`.  Each rule sees
one :class:`ModuleSource` at a time — the parsed AST plus the raw source
lines (comments matter to some contracts) — and yields structured
:class:`~repro.analysis.findings.Finding` objects.

The framework is dependency-light on purpose: no numpy, no inference imports,
stdlib ``ast`` only — so ``python -m repro.analysis`` stays runnable in a
bare CI container before the package's heavier dependencies are installed.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Protocol, Sequence

from repro.analysis.findings import Finding


@dataclass
class ModuleSource:
    """One Python file under analysis: location, raw text, parsed AST."""

    #: Path as reported in findings (posix separators, relative to the
    #: analysis root the walker was given).
    path: str
    text: str
    tree: ast.Module = field(repr=False)
    lines: List[str] = field(repr=False)

    @classmethod
    def parse(cls, path: str, display_path: Optional[str] = None) -> "ModuleSource":
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        shown = (display_path or path).replace(os.sep, "/")
        return cls(path=shown, text=text,
                   tree=ast.parse(text, filename=shown),
                   lines=text.splitlines())

    def line_text(self, lineno: int) -> str:
        """The 1-based source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(path=self.path, line=getattr(node, "lineno", 0),
                       rule=rule, message=message)


class LintRule(Protocol):
    """The protocol every rule in :data:`repro.analysis.rules.RULES` implements.

    ``name`` tags its findings; ``check`` yields findings for one module.
    Rules decide themselves which paths they apply to — the framework hands
    every walked file to every rule, so a rule guarding one layer returns
    early on everything else (see the ``applies_to`` methods in
    :mod:`repro.analysis.rules`).
    """

    name: str

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        ...


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted.

    Hidden directories and ``__pycache__`` are skipped; the walk order is
    sorted so findings are stable across machines.
    """
    for root in paths:
        if os.path.isfile(root):
            if root.endswith(".py"):
                yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".") and d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def run_analysis(paths: Sequence[str]) -> List[Finding]:
    """Run every rule over every file under ``paths``.

    A file that fails to parse produces a single ``parse-error`` finding
    instead of aborting the run — CI should report the broken file, not
    crash the linter.
    """
    # Imported lazily: the rules module itself imports this module.
    from repro.analysis.rules import RULES

    findings: List[Finding] = []
    for filepath in iter_python_files(paths):
        try:
            module = ModuleSource.parse(filepath)
        except SyntaxError as error:
            findings.append(Finding(path=filepath.replace(os.sep, "/"),
                                    line=error.lineno or 0, rule="parse-error",
                                    message=f"file does not parse: {error.msg}"))
            continue
        for rule in RULES:
            findings.extend(rule.check(module))
    return sorted(findings)
