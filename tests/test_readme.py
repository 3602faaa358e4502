"""The README's Python blocks run as written.

Each ``python`` block of ``README.md`` runs in a fresh interpreter with
``src`` on the path and an empty working directory (the blocks write
traces, spills and journals), so a quick start that imports a moved
name or uses a variable it never defines fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def python_blocks(text: str) -> dict[str, str]:
    """Each ``python`` block, keyed by its section heading (and rank)."""
    blocks: dict[str, str] = {}
    section = "top"
    for match in re.finditer(r"^## (.*?)$|^```python\n(.*?)^```", text,
                             re.MULTILINE | re.DOTALL):
        if match.group(1) is not None:
            section = match.group(1)
            rank = 0
            continue
        rank += 1
        blocks[section if rank == 1 else f"{section} {rank}"] = \
            match.group(2)
    return blocks


BLOCKS = python_blocks((REPO_ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", sorted(BLOCKS))
def test_readme_python_block_runs(section, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", BLOCKS[section]],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
