"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit status is 0 when there are no findings, 1 when there are, and 2
when a target cannot be read or parsed, so the command slots directly
into ``make lint`` and CI gates.  Inline ``# reprolint: disable=``
comments are the only way to silence a finding.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.analysis.config import default_config
from repro.analysis.engine import Finding, all_rules, run_analysis
from repro.errors import ReproError


def find_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding pyproject.toml."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start.resolve() if start.is_dir() else start.resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("reprolint: domain-aware static analysis for the "
                     "tinySDR reproduction's bit-exactness invariants"))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--root", type=Path, default=None,
                        help="project root (default: nearest pyproject.toml)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule IDs to run exclusively")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated rule IDs to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def render_text(findings: Sequence[Finding]) -> str:
    """Compiler-style one-line-per-finding report with a summary tail."""
    lines = [finding.render() for finding in findings]
    summary = f"{len(findings)} finding(s)"
    if findings:
        by_rule = Counter(finding.rule_id for finding in findings)
        breakdown = ", ".join(f"{rule}={count}"
                              for rule, count in sorted(by_rule.items()))
        summary += f" [{breakdown}]"
    lines.append(summary)
    return "\n".join(lines)


def _split_ids(text: str) -> frozenset[str]:
    return frozenset(part.strip().upper()
                     for part in text.split(",") if part.strip())


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, cls in sorted(all_rules().items()):
            print(f"{rule_id}  {cls.name:<22} {cls.description}")
        return 0
    targets = [Path(p) for p in args.paths]
    root = args.root if args.root is not None else find_root(targets[0])
    config = default_config()
    if args.select:
        config = replace(config, select=_split_ids(args.select))
    if args.ignore:
        config = replace(config, ignore=_split_ids(args.ignore))
    try:
        findings = run_analysis(root, targets, config)
    except (ReproError, SyntaxError, OSError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(render_text(findings))
    return 1 if findings else 0
