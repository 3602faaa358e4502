"""The product imports on any supported Python, without repro.analysis.

``tomllib`` is stdlib only from Python 3.11, while ``pyproject.toml``
declares ``requires-python >= 3.10``.  A fresh interpreter in which
``tomllib`` cannot be imported stands in for 3.10: every public entry
package must still import, and none of them may pull in
``repro.analysis`` (the pinned determinism scenarios, which only the
tests and examples load).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

ENTRY_PACKAGES = ("repro", "repro.phy.lora", "repro.ota.fleet",
                  "repro.service", "repro.cli")

_PROBE = """
import importlib, json, sys
sys.modules["tomllib"] = None
failures = {}
for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({
    "failures": failures,
    "analysis": sorted(m for m in sys.modules
                       if m == "repro.analysis"
                       or m.startswith("repro.analysis.")),
}))
"""


def test_entry_packages_import_without_tomllib_or_the_linter():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *ENTRY_PACKAGES],
        env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["failures"] == {}
    assert report["analysis"] == []
