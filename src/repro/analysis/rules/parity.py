"""REPRO002 — parity-pair coverage.

The repo's bit-exactness convention: every vectorized hot path ``foo``
keeps its original scalar implementation as ``foo_reference``, and a
test must exercise *both* names so any divergence is caught.  This rule
cross-references the test corpus: a ``foo``/``foo_reference`` pair that
no single test file mentions together is an unchecked invariant.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.engine import (
    FileContext,
    Finding,
    Project,
    ProjectRule,
    register,
)
from repro.analysis.semantic.queries import test_identifiers

_SUFFIX = "_reference"


def _definitions(ctx: FileContext) -> list[tuple[ast.AST, str, set[str]]]:
    """Yield ``(def_node, name, sibling_names)`` for every function.

    ``sibling_names`` is the set of names defined in the same namespace
    (module body or class body), used to pair ``foo_reference`` with its
    ``foo`` twin.
    """
    results: list[tuple[ast.AST, str, set[str]]] = []

    def scan(body: list[ast.stmt]) -> None:
        names = {stmt.name for stmt in body
                 if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                results.append((stmt, stmt.name, names))
                scan(stmt.body)
            elif isinstance(stmt, ast.ClassDef):
                scan(stmt.body)

    scan(ctx.tree.body)
    return results


@register
class ParityPairCoverageRule(ProjectRule):
    """Every ``foo``/``foo_reference`` twin must share a test file."""

    rule_id = "REPRO002"
    name = "parity-pair-coverage"
    description = ("every public function with a *_reference twin must be "
                   "co-exercised with it by at least one test")

    def check_project(self, project: Project,
                      config: LintConfig) -> Iterable[Finding]:
        corpus = [test_identifiers(ctx) for ctx in project.test_contexts]
        for ctx in project.contexts:
            for node, name, siblings in _definitions(ctx):
                if not name.endswith(_SUFFIX) or name == _SUFFIX:
                    continue
                base = name[:-len(_SUFFIX)]
                if base.startswith("_"):
                    continue
                if base not in siblings:
                    yield Finding(
                        rule_id=self.rule_id, path=ctx.relpath,
                        line=node.lineno, col=node.col_offset,
                        message=(f"reference implementation '{name}' has no "
                                 f"fast-path twin '{base}' in the same "
                                 f"namespace"),
                        hint=("define the vectorized twin alongside it or "
                              "rename the reference"))
                    continue
                covered = any(base in identifiers and name in identifiers
                              for identifiers in corpus)
                if not covered:
                    yield Finding(
                        rule_id=self.rule_id, path=ctx.relpath,
                        line=node.lineno, col=node.col_offset,
                        message=(f"parity pair '{base}'/'{name}' is not "
                                 f"co-exercised by any test file"),
                        hint=("add a test that calls both and asserts "
                              "bit-exact agreement"))
