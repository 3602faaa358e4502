"""Engine-level tests: registry, config, suppressions, reporter, CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.cli import main, render_text
from repro.analysis.config import LintConfig
from repro.analysis.engine import (
    FileRule,
    Finding,
    all_rules,
    register,
    run_analysis,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reprolint"

RULE_IDS = ("REPRO001", "REPRO004", "REPRO005", "REPRO006",
            "REPRO007", "REPRO008", "REPRO014", "REPRO016")


# --- registry ---------------------------------------------------------------

def test_registry_holds_the_eight_domain_rules():
    rules = all_rules()
    assert tuple(sorted(rules)) == RULE_IDS
    for rule_id, cls in rules.items():
        assert cls.rule_id == rule_id
        assert cls.name
        assert cls.description


def test_register_rejects_duplicate_and_missing_ids():
    class Duplicate(FileRule):
        rule_id = "REPRO001"

    with pytest.raises(ConfigurationError):
        register(Duplicate)

    class Anonymous(FileRule):
        rule_id = ""

    with pytest.raises(ConfigurationError):
        register(Anonymous)


# --- configuration ----------------------------------------------------------

def test_select_and_ignore_gate_rules():
    config = LintConfig(select=frozenset({"REPRO001"}))
    assert config.rule_enabled("REPRO001")
    assert not config.rule_enabled("REPRO005")
    config = LintConfig(ignore=frozenset({"REPRO001"}))
    assert not config.rule_enabled("REPRO001")
    assert config.rule_enabled("REPRO005")


# --- inline suppressions ----------------------------------------------------

def test_inline_suppressions(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "def f():\n"
        "    return 868_100_000  # reprolint: disable=REPRO005\n"
        "def g():\n"
        "    return 868_300_000  # reprolint: disable=all\n"
        "def h():\n"
        "    return 868_500_000\n",
        encoding="utf-8")
    findings = run_analysis(tmp_path, [src], LintConfig())
    assert [(f.rule_id, f.line) for f in findings] == [("REPRO005", 6)]


# --- reporting --------------------------------------------------------------

def _sample_findings():
    return [
        Finding("REPRO005", "src/a.py", 10, 4, "magic number 915000000.0"),
        Finding("REPRO005", "src/a.py", 20, 4, "magic number 915000000.0"),
        Finding("REPRO007", "src/b.py", 3, 0, "bare 'except:'"),
    ]


def test_render_text_lists_findings_and_summary():
    text = render_text(_sample_findings())
    assert "src/a.py:10:4: REPRO005" in text
    assert "src/b.py:3:0: REPRO007" in text
    assert "3 finding(s) [REPRO005=2, REPRO007=1]" in text
    assert render_text([]) == "0 finding(s)"


# --- CLI --------------------------------------------------------------------

BAD_ROOT = FIXTURES / "bad"


def _cli(*extra, root=BAD_ROOT):
    return main([str(root / "src"), "--root", str(root), *extra])


def test_cli_exits_nonzero_on_findings(capsys):
    assert _cli() == 1
    out = capsys.readouterr().out
    assert "REPRO001" in out and "REPRO007" in out


def test_cli_select_restricts_rules(capsys):
    assert _cli("--select", "repro007") == 1
    out = capsys.readouterr().out
    assert "REPRO007" in out
    assert "REPRO001" not in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert tuple(line.split()[0] for line in out.splitlines()) == RULE_IDS


def test_cli_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.py"
    assert main([str(missing), "--root", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_exits_2_on_unparseable_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "broken.py").write_text("def f(:\n", encoding="utf-8")
    assert _cli(root=tmp_path) == 2
    assert "error" in capsys.readouterr().err


def test_inline_disable_with_multiple_rule_ids(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "import numpy as np\n"
        "def f():\n"
        "    v = np.random.normal()"
        "  # reprolint: disable=REPRO001,REPRO005\n"
        "    return v * 868_100_000\n",
        encoding="utf-8")
    findings = run_analysis(tmp_path, [src], LintConfig())
    # REPRO001 on line 3 is silenced by the two-id comment; the
    # REPRO005 magic number sits on line 4 and still fires.
    assert [(f.rule_id, f.line) for f in findings] == [("REPRO005", 4)]


def test_cli_module_entry_point():
    # python -m repro.analysis resolves to cli.main via __main__.
    from repro.analysis import __main__
    assert __main__.main is main
