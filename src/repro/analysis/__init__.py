"""Repo-specific static analysis: executable correctness contracts.

PRs 5-7 turned this reproduction into a concurrent serving stack, and the
invariants that keep it correct — what may run under the pool lock, where
graphs may be fingerprinted, which operations must stay deterministic, which
handlers may swallow an exception — lived only in prose (``docs/ARCHITECTURE.md``)
until the first refactor quietly broke them.  This package makes those
contracts machine-checked:

* :mod:`repro.analysis.lint` — a small AST rule framework (rules register
  through :func:`~repro.analysis.lint.register_rule`, exactly like inference
  backends register through ``register_backend``) with the repo-specific rule
  set in :mod:`repro.analysis.rules`;
* :mod:`repro.analysis.lockgraph` — an opt-in (``REPRO_LOCK_TRACK=1``)
  runtime lock-acquisition tracker that fails threaded test runs on
  lock-order cycles and on slow operations executed while holding a
  no-slow-work lock (the bug class fixed in the PR-6 review);
* ``python -m repro.analysis [paths]`` — the CLI the ``static-analysis`` CI
  job runs; a checked-in baseline file makes it a ratchet, not a flag-day.

Each rule documents the incident (commit) that motivated it; see
``docs/ARCHITECTURE.md`` ("Machine-checked invariants") for the full list.
"""

from repro.analysis.baseline import load_baseline, partition_findings, write_baseline
from repro.analysis.findings import Finding
from repro.analysis.lint import (
    LintRule,
    ModuleSource,
    UnknownRuleError,
    available_rules,
    get_rule,
    iter_python_files,
    register_rule,
    run_analysis,
    unregister_rule,
)

# Importing the rules module registers the built-in rule set.
import repro.analysis.rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintRule",
    "ModuleSource",
    "UnknownRuleError",
    "available_rules",
    "get_rule",
    "iter_python_files",
    "load_baseline",
    "partition_findings",
    "register_rule",
    "run_analysis",
    "unregister_rule",
    "write_baseline",
]
