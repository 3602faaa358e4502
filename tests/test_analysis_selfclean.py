"""Self-gating test: the repo's own tree passes its own linter.

This is the tier-1 enforcement of the reprolint invariants: ``src/``
must produce zero findings under the built-in configuration.  Inline
``# reprolint: disable=`` comments are the only way to silence one.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import find_root, main
from repro.analysis.config import default_config
from repro.analysis.engine import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_find_root_locates_pyproject():
    assert find_root(REPO_ROOT / "src" / "repro") == REPO_ROOT


def test_src_tree_is_lint_clean():
    findings = run_analysis(REPO_ROOT, [REPO_ROOT / "src"], default_config())
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_gate_passes_on_repo(capsys):
    assert main(["src", "--root", str(REPO_ROOT)]) == 0
    capsys.readouterr()
