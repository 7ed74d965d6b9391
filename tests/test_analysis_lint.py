"""The lint framework and every rule, against the fixture corpus.

Each rule has a ``bad`` fixture (asserting the *exact* findings: rule,
path, line) and a ``good`` counter-fixture (asserting zero findings under
**all** rules, so the sanctioned shapes stay sanctioned).  The
``lock_discipline/bad`` fixture reproduces the fcf99ca
lock-held-across-prepare shape as a permanent regression test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, Finding, run_analysis
from repro.analysis.__main__ import main as lint_main
from repro.analysis.lint import iter_python_files

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "analysis_fixtures"

EXPECTED_RULES = {"lock-discipline", "determinism", "broad-except"}


def findings_in(case: str):
    """(rule, path-relative-to-fixture-case, line) for every finding."""
    results = run_analysis([str(FIXTURES / case)])
    marker = case.replace("\\", "/") + "/"
    triples = []
    for finding in results:
        _, _, rel = finding.path.partition(marker)
        triples.append((finding.rule, rel, finding.line))
    return triples


# --------------------------------------------------------------------------- #
# the rules, one bad/good pair each
# --------------------------------------------------------------------------- #


def test_all_expected_rules_registered():
    assert {rule.name for rule in RULES} == EXPECTED_RULES


def test_rules_table_is_a_tuple_of_distinct_names():
    assert isinstance(RULES, tuple)
    assert len({rule.name for rule in RULES}) == len(RULES)


#: each rule's fixture case (``<case>/bad`` and ``<case>/good``).
RULE_CASES = {"lock-discipline": "lock_discipline",
              "determinism": "determinism",
              "broad-except": "broad_except"}


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_bad_fixture_trips_only_its_own_rule(rule):
    """Every rule runs over every file, so the others must stay quiet."""
    found = findings_in(f"{RULE_CASES[rule]}/bad")
    assert found
    assert {finding_rule for finding_rule, _, _ in found} == {rule}


def test_lock_discipline_flags_fcf99ca_shape():
    """Regression: prepare()/close() under the pool lock must be flagged."""
    assert findings_in("lock_discipline/bad") == [
        ("lock-discipline", "pool.py", 15),   # session.prepare() under lock
        ("lock-discipline", "pool.py", 22),   # session.close() under lock
    ]


def test_lock_discipline_accepts_fixed_shape():
    assert findings_in("lock_discipline/good") == []


def test_determinism_flags_every_hazard():
    assert findings_in("determinism/bad") == [
        ("determinism", "pregel/kernel.py", 11),   # time.time()
        ("determinism", "pregel/kernel.py", 12),   # datetime.now()
        ("determinism", "pregel/kernel.py", 14),   # set-literal iteration
        ("determinism", "pregel/kernel.py", 16),   # set(...) iteration
        ("determinism", "pregel/kernel.py", 18),   # np.random global RNG
        ("determinism", "pregel/kernel.py", 19),   # unseeded default_rng()
        ("determinism", "pregel/kernel.py", 20),   # bare random.random()
        ("determinism", "pregel/kernel.py", 21),   # perf_counter fed into call
    ]


def test_determinism_accepts_sanctioned_shapes():
    assert findings_in("determinism/good") == []


def test_broad_except_flags_unjustified_handlers():
    assert findings_in("broad_except/bad") == [
        ("broad-except", "handlers.py", 7),    # except Exception: pass
        ("broad-except", "handlers.py", 14),   # bare except
        ("broad-except", "handlers.py", 21),   # Exception inside a tuple
    ]


def test_broad_except_accepts_reraise_justification_and_narrow():
    assert findings_in("broad_except/good") == []


def test_src_lints_clean():
    """The whole of ``src`` satisfies its own contracts: zero findings."""
    assert run_analysis([str(Path(__file__).parent.parent / "src")]) == []


# --------------------------------------------------------------------------- #
# framework: walker, parse errors
# --------------------------------------------------------------------------- #


def test_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def half(:\n")
    findings = run_analysis([str(tmp_path)])
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"
    assert findings[0].line == 1


def test_iter_python_files_skips_hidden_and_pycache(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "skip.py").write_text("x = 2\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "skip.py").write_text("x = 3\n")
    found = [Path(p).name for p in iter_python_files([str(tmp_path)])]
    assert found == ["keep.py"]


def test_finding_describe():
    finding = Finding(path="src/x.py", line=7, rule="determinism", message="m")
    assert finding.describe() == "src/x.py:7: [determinism] m"


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #


def test_cli_fails_on_new_findings(capsys):
    code = lint_main([str(FIXTURES / "broad_except" / "bad")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: 3 finding(s)" in out
    assert "[broad-except]" in out


def test_cli_passes_on_clean_tree(capsys):
    code = lint_main([str(FIXTURES / "broad_except" / "good")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: 0 finding(s)" in out


def test_cli_summary_names_rule_count_and_paths(capsys):
    target = str(FIXTURES / "lock_discipline" / "bad")
    assert lint_main([target]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"FAIL: 2 finding(s) [{len(RULES)} rule(s) over {target}]"


def test_cli_defaults_to_src(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert lint_main([]) == 0
    assert capsys.readouterr().out.rstrip().endswith("over src]")


@pytest.mark.parametrize("argv", [
    ["--baseline", "analysis-baseline.txt"],
    ["--update-baseline"],
    ["--format", "json"],
    ["--rule", "broad-except"],
    ["--list-rules"],
], ids=lambda argv: argv[0].lstrip("-"))
def test_cli_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(FIXTURES / "broad_except" / "good"), *argv])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [("bad", 1), ("good", 0)])
def test_module_entry_point_exit_status(case, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis",
         str(FIXTURES / "broad_except" / case)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == code, completed.stderr[-2000:]
