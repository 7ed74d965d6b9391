"""The lint framework and every rule, against the fixture corpus.

Each rule has a ``bad`` fixture (asserting the *exact* findings: rule,
path, line) and a ``good`` counter-fixture (asserting zero findings under
**all** rules, so the sanctioned shapes stay sanctioned).  The
``lock_discipline/bad`` fixture reproduces the fcf99ca
lock-held-across-prepare shape as a permanent regression test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    UnknownRuleError,
    available_rules,
    get_rule,
    load_baseline,
    partition_findings,
    register_rule,
    run_analysis,
    unregister_rule,
    write_baseline,
)
from repro.analysis.__main__ import main as lint_main
from repro.analysis.lint import iter_python_files

FIXTURES = Path(__file__).parent / "analysis_fixtures"

EXPECTED_RULES = {"lock-discipline", "fingerprint-under-lock", "determinism",
                  "broad-except"}


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
    assert EXPECTED_RULES <= available_rules()


def test_lock_discipline_flags_fcf99ca_shape():
    """Regression: prepare()/close() under the pool lock must be flagged."""
    assert findings_in("lock_discipline/bad") == [
        ("lock-discipline", "pool.py", 15),   # session.prepare() under lock
        ("lock-discipline", "pool.py", 22),   # session.close() under lock
    ]


def test_lock_discipline_accepts_fixed_shape():
    assert findings_in("lock_discipline/good") == []


def test_fingerprint_outside_lock_flagged():
    assert findings_in("fingerprint/bad") == [
        ("fingerprint-under-lock", "pool.py", 10),
    ]


def test_fingerprint_under_lock_accepted():
    assert findings_in("fingerprint/good") == []


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


def test_real_serving_layer_lints_clean():
    """The production pool/session/gateway must satisfy their own contracts."""
    root = Path(__file__).parent.parent / "src" / "repro"
    findings = run_analysis([str(root / "inference" / "pool.py"),
                             str(root / "inference" / "session.py"),
                             str(root / "serving" / "gateway.py")])
    assert findings == []


# --------------------------------------------------------------------------- #
# framework: registry, walker, parse errors
# --------------------------------------------------------------------------- #


def test_register_rule_rejects_duplicates():
    @register_rule("test-dummy-rule")
    class DummyRule:
        def check(self, module):
            return []

    try:
        with pytest.raises(ValueError, match="already registered"):
            @register_rule("test-dummy-rule")
            class SecondRule:
                def check(self, module):
                    return []
    finally:
        unregister_rule("test-dummy-rule")
    assert "test-dummy-rule" not in available_rules()


def test_get_rule_unknown_name():
    with pytest.raises(UnknownRuleError, match="no-such-rule"):
        get_rule("no-such-rule")


def test_rule_selection_restricts_findings():
    results = run_analysis([str(FIXTURES / "determinism" / "bad")],
                           rules=["broad-except"])
    assert results == []


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


def test_finding_describe_and_baseline_key():
    finding = Finding(path="src/x.py", line=7, rule="determinism", message="m")
    assert finding.describe() == "src/x.py:7: [determinism] m"
    assert finding.baseline_key == "determinism:src/x.py:7"


# --------------------------------------------------------------------------- #
# baseline ratchet
# --------------------------------------------------------------------------- #


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.txt")) == set()


def test_baseline_roundtrip_and_partition(tmp_path):
    old = Finding(path="a.py", line=1, rule="broad-except", message="old")
    new = Finding(path="b.py", line=2, rule="determinism", message="new")
    path = tmp_path / "baseline.txt"
    write_baseline(str(path), [old])
    baseline = load_baseline(str(path))
    assert baseline == {"broad-except:a.py:1"}

    fresh, grandfathered, stale = partition_findings([old, new], baseline)
    assert fresh == [new]
    assert grandfathered == [old]
    assert stale == set()

    # The grandfathered finding gets fixed: its entry becomes stale.
    fresh, grandfathered, stale = partition_findings([new], baseline)
    assert fresh == [new]
    assert grandfathered == []
    assert stale == {"broad-except:a.py:1"}


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #


def test_cli_fails_on_new_findings(tmp_path, capsys):
    code = lint_main([str(FIXTURES / "broad_except" / "bad"),
                      "--baseline", str(tmp_path / "empty.txt")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: 3 new finding(s)" in out
    assert "[broad-except]" in out


def test_cli_passes_on_clean_tree(tmp_path, capsys):
    code = lint_main([str(FIXTURES / "broad_except" / "good"),
                      "--baseline", str(tmp_path / "empty.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: 0 new finding(s)" in out


def test_cli_update_baseline_then_green(tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    target = str(FIXTURES / "determinism" / "bad")
    assert lint_main([target, "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    capsys.readouterr()
    # Grandfathered now: same findings, exit 0, suppression reported.
    code = lint_main([target, "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "8 grandfathered finding(s) suppressed" in out


def test_cli_reports_stale_entries_without_failing(tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("determinism:gone.py:1  # fixed long ago\n")
    code = lint_main([str(FIXTURES / "broad_except" / "good"),
                      "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stale baseline entry" in out
    assert "determinism:gone.py:1" in out


def test_cli_json_format(tmp_path, capsys):
    code = lint_main([str(FIXTURES / "fingerprint" / "bad"),
                      "--baseline", str(tmp_path / "empty.txt"),
                      "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert len(payload["new"]) == 1
    assert "[fingerprint-under-lock]" in payload["new"][0]
    assert payload["grandfathered"] == []
    assert payload["stale_baseline_entries"] == []


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = set(capsys.readouterr().out.split())
    assert EXPECTED_RULES <= listed


def test_cli_rule_filter(tmp_path, capsys):
    code = lint_main([str(FIXTURES / "determinism" / "bad"),
                      "--baseline", str(tmp_path / "empty.txt"),
                      "--rule", "broad-except"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: 0 new finding(s)" in out


def test_repo_baseline_is_empty():
    """The checked-in baseline must stay empty: the tree lints clean."""
    baseline = Path(__file__).parent.parent / "analysis-baseline.txt"
    assert baseline.exists()
    assert load_baseline(str(baseline)) == set()
