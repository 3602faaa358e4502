"""REPRO005 — units discipline for magic frequency/time literals.

A bare ``868_100_000`` buried in a call site is a unit bug waiting to
happen (Hz vs kHz vs MHz) and hides the physical meaning the
:mod:`repro.units` helpers exist to preserve.  Large numeric literals
belong in named UPPER_CASE module constants — where the provenance rule
can also see them — or need an inline ``# units:`` note.

Exact powers of ten (scale factors like ``1e6``) and powers of two /
all-ones masks (bit-width arithmetic like ``4096`` or ``0xFFFF_FFFF``)
are exempt: those are structural, not physical, constants.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis import astutil
from repro.analysis.config import LintConfig
from repro.analysis.engine import FileContext, FileRule, Finding, register

#: Smallest literal magnitude the rule flags (100 kHz / 100 ks scale).
THRESHOLD = 100_000.0

_COMMENT_MARKERS = ("units:", "datasheet:", "paper:", "spec:")

_HINT = ("name it as an UPPER_CASE module constant or add a "
         "'# units: ...' comment")

_UPPER_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


def _is_power_of_ten(value: float) -> bool:
    if value <= 0:
        return False
    while value >= 10 and value == int(value) and int(value) % 10 == 0:
        value /= 10
    return value == 1.0


def _is_power_of_two_ish(value: float) -> bool:
    """Exact powers of two, or all-ones masks (2**k - 1)."""
    if value != int(value) or value <= 0:
        return False
    integer = int(value)
    return (integer & (integer - 1)) == 0 or (integer & (integer + 1)) == 0


def _module_constant_lines(tree: ast.Module) -> set[int]:
    """Line numbers of module-level UPPER_CASE constant assignments."""
    lines: set[int] = set()

    def record(stmt: ast.stmt, names: list[str]) -> None:
        if names and all(_UPPER_RE.match(name) for name in names):
            for node in ast.walk(stmt):
                lines.add(getattr(node, "lineno", stmt.lineno))

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names = [name for target in stmt.targets
                     for name in astutil.assigned_names(target)]
            record(stmt, names)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            record(stmt, [stmt.target.id])
    return lines


@register
class UnitsDisciplineRule(FileRule):
    """No magic frequency/time-scale literals outside named constants."""

    rule_id = "REPRO005"
    name = "units-discipline"
    description = ("large numeric literals must live in named UPPER_CASE "
                   "constants or carry an inline units note")

    def check_file(self, ctx: FileContext,
                   config: LintConfig) -> Iterable[Finding]:
        constant_lines = _module_constant_lines(ctx.tree)
        for node in astutil.numeric_literals(ctx.tree):
            value = abs(float(node.value))
            if value < THRESHOLD:
                continue
            if _is_power_of_ten(value) or _is_power_of_two_ish(value):
                continue
            if node.lineno in constant_lines:
                continue
            comment = ctx.line_comment(node.lineno).lower()
            if any(marker in comment for marker in _COMMENT_MARKERS):
                continue
            yield Finding(
                rule_id=self.rule_id, path=ctx.relpath,
                line=node.lineno, col=node.col_offset,
                message=(f"magic number {node.value!r} without a named "
                         f"constant or units note"),
                hint=_HINT)
