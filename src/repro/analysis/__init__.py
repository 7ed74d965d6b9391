"""Repo-specific static analysis: executable correctness contracts.

PRs 5-7 turned this reproduction into a concurrent serving stack, and the
invariants that keep it correct — what may run under the pool lock, which
operations must stay deterministic, which handlers may swallow an
exception — lived only in prose (``docs/ARCHITECTURE.md``)
until the first refactor quietly broke them.  This package makes those
contracts machine-checked:

* :mod:`repro.analysis.lint` — a small AST rule framework; the repo-specific
  rules are one tuple, :data:`repro.analysis.rules.RULES`;
* :mod:`repro.analysis.lockgraph` — an opt-in (``REPRO_LOCK_TRACK=1``)
  runtime lock-acquisition tracker that fails threaded test runs on
  lock-order cycles and on slow operations executed while holding a
  no-slow-work lock (the bug class fixed in the PR-6 review);
* ``python -m repro.analysis [paths]`` — prints every finding and exits 1 if
  there is any.  ``tests/test_analysis_lint.py::test_src_lints_clean`` holds
  the whole of ``src`` at zero findings.

Each rule documents the incident (commit) that motivated it; see
``docs/ARCHITECTURE.md`` ("Machine-checked invariants") for the full list.
"""

from repro.analysis.findings import Finding
from repro.analysis.lint import LintRule, ModuleSource, iter_python_files, run_analysis
from repro.analysis.rules import RULES

__all__ = [
    "Finding",
    "LintRule",
    "ModuleSource",
    "RULES",
    "iter_python_files",
    "run_analysis",
]
