"""Golden-fixture tests for the eight reprolint rules.

The fixtures under ``tests/fixtures/reprolint/`` form two miniature
projects: ``bad`` contains one file per rule engineered to trip it at
known line numbers, and ``good`` contains the corrected counterparts.  The assertions
pin exact ``(rule_id, path, line)`` triples so any change to a rule's
sensitivity shows up as a diff here, not as silent drift.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.config import LintConfig
from repro.analysis.engine import run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reprolint"

#: Scope overrides pointing the module-scoped rules at the fixtures.
FIXTURE_CONFIG = LintConfig(
    rule_scopes={"REPRO004": ("*dtype_*.py",),
                 "REPRO006": ("*prov_*.py",),
                 "REPRO014": ("*service_*.py",),
                 "REPRO016": ("*recovery_*.py",)})

EXPECTED_BAD = {
    ("REPRO001", "src/rng_bad.py", 6),
    ("REPRO001", "src/rng_bad.py", 10),
    ("REPRO001", "src/rng_bad.py", 11),
    ("REPRO001", "src/rng_bad.py", 12),
    ("REPRO001", "src/rng_bad.py", 13),
    ("REPRO004", "src/dtype_bad.py", 8),
    ("REPRO004", "src/dtype_bad.py", 9),
    ("REPRO005", "src/units_bad.py", 5),
    ("REPRO005", "src/units_bad.py", 6),
    ("REPRO006", "src/prov_bad.py", 3),
    ("REPRO006", "src/prov_bad.py", 5),
    ("REPRO007", "src/control_bad.py", 7),
    ("REPRO007", "src/control_bad.py", 11),
    ("REPRO008", "src/accounting_bad.py", 9),
    ("REPRO008", "src/accounting_bad.py", 10),
    ("REPRO008", "src/accounting_bad.py", 11),
    ("REPRO008", "src/accounting_bad.py", 20),
    ("REPRO014", "src/service_bad.py", 3),
    ("REPRO014", "src/service_bad.py", 4),
    ("REPRO014", "src/service_bad.py", 5),
    ("REPRO014", "src/service_bad.py", 9),
    ("REPRO014", "src/service_bad.py", 13),
    ("REPRO014", "src/service_bad.py", 14),
    ("REPRO016", "src/recovery_bad.py", 7),
    ("REPRO016", "src/recovery_bad.py", 16),
    ("REPRO016", "src/recovery_bad.py", 24),
}

ALL_RULE_IDS = sorted({rule for rule, _, _ in EXPECTED_BAD})


def _run(project: str, config: LintConfig = FIXTURE_CONFIG):
    root = FIXTURES / project
    return run_analysis(root, [root / "src"], config)


def test_bad_project_trips_every_rule_at_exact_lines():
    triples = {(f.rule_id, f.path, f.line) for f in _run("bad")}
    assert triples == EXPECTED_BAD


def test_good_project_is_clean():
    assert _run("good") == []


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_each_rule_has_true_positives_and_negatives(rule_id):
    config = LintConfig(select=frozenset({rule_id}),
                        rule_scopes=FIXTURE_CONFIG.rule_scopes)
    bad = _run("bad", config)
    expected = {t for t in EXPECTED_BAD if t[0] == rule_id}
    assert {(f.rule_id, f.path, f.line) for f in bad} == expected
    assert _run("good", config) == []


def test_findings_carry_hints_and_messages():
    for finding in _run("bad"):
        assert finding.message
        assert finding.hint
        rendered = finding.render()
        assert rendered.startswith(f"{finding.path}:{finding.line}:")
        assert finding.rule_id in rendered


def test_scope_override_limits_module_scoped_rules():
    # Without the fixture scope overrides, the dtype, provenance,
    # service and recovery rules keep their repo-layout default scopes
    # and see nothing here.
    findings = _run("bad", LintConfig())
    rules = {f.rule_id for f in findings}
    assert "REPRO004" not in rules
    assert "REPRO006" not in rules
    assert "REPRO014" not in rules
    assert "REPRO016" not in rules
    assert {"REPRO001", "REPRO005", "REPRO007", "REPRO008"} <= rules


def test_exempt_pattern_disables_rule_per_file():
    config = LintConfig(
        rule_scopes=FIXTURE_CONFIG.rule_scopes,
        rule_exempt={"REPRO005": ("*units_bad.py",)})
    rules = {f.rule_id for f in _run("bad", config)}
    assert "REPRO005" not in rules
