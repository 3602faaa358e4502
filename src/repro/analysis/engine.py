"""Core of the ``reprolint`` static-analysis engine.

The engine is deliberately small: it parses every target file once into
an :mod:`ast` tree, wraps each in a :class:`FileContext` carrying the
source text and suppression comments, and hands each context to a
registry of per-file domain rules (:class:`FileRule`: RNG discipline,
dtype contracts, magic numbers...).

Findings carry a stable rule ID, a location, and a fix-it hint that the
CLI (:mod:`repro.analysis.cli`) renders.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.errors import ConfigurationError

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes:
        rule_id: stable identifier, e.g. ``"REPRO001"``.
        path: repo-root-relative POSIX path of the offending file.
        line: 1-based line number.
        col: 0-based column offset.
        message: human-readable statement of the violation.
        hint: short fix-it suggestion (may be empty).
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def render(self) -> str:
        """One-line ``path:line:col: ID message`` rendering."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text


class FileContext:
    """A parsed source file plus the lookup helpers rules need.

    Attributes:
        path: absolute path on disk.
        relpath: POSIX path relative to the project root.
        source: full file text.
        lines: source split into physical lines.
        tree: the parsed :class:`ast.Module`.
    """

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._suppressions: dict[int, frozenset[str]] | None = None

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the whole tree (built lazily)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def statement_of(self, node: ast.AST) -> ast.AST:
        """The enclosing statement of an expression node (or the node)."""
        current = node
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return ancestor
            current = ancestor
        return current

    @property
    def suppressions(self) -> dict[int, frozenset[str]]:
        """Map of line number -> rule IDs suppressed on that line.

        A ``# reprolint: disable=REPRO005`` comment suppresses the named
        rules (comma-separated; ``all`` suppresses every rule) for
        findings reported on that physical line.
        """
        if self._suppressions is None:
            table: dict[int, frozenset[str]] = {}
            for number, line in enumerate(self.lines, start=1):
                match = _SUPPRESS_RE.search(line)
                if match:
                    ids = frozenset(
                        part.strip().upper()
                        for part in match.group(1).split(",") if part.strip())
                    table[number] = ids
            self._suppressions = table
        return self._suppressions

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an inline comment silences ``finding``."""
        ids = self.suppressions.get(finding.line)
        if ids is None:
            return False
        return "ALL" in ids or finding.rule_id.upper() in ids

    def line_comment(self, line: int) -> str:
        """The comment text (without ``#``) on a 1-based line, or ``""``."""
        if not 1 <= line <= len(self.lines):
            return ""
        text = self.lines[line - 1]
        index = text.find("#")
        return text[index + 1:].strip() if index >= 0 else ""


class FileRule:
    """Base class for all reprolint rules; each inspects one file at a time.

    Subclasses implement :meth:`check_file` and define class attributes
    ``rule_id`` / ``name`` / ``description`` and optionally
    ``default_scope`` (fnmatch patterns a file's relpath must match for
    the rule to run; ``None`` means every Python file).
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    default_scope: tuple[str, ...] | None = None

    def scope(self, config: LintConfig) -> tuple[str, ...] | None:
        """Effective scope patterns after config overrides."""
        override = config.rule_scopes.get(self.rule_id)
        if override is not None:
            return tuple(override)
        return self.default_scope

    def applies_to(self, ctx: FileContext, config: LintConfig) -> bool:
        """Whether this rule examines ``ctx`` under ``config``."""
        exempt = config.rule_exempt.get(self.rule_id, ())
        if any(fnmatch(ctx.relpath, pattern) for pattern in exempt):
            return False
        patterns = self.scope(config)
        if patterns is None:
            return True
        return any(fnmatch(ctx.relpath, pattern) for pattern in patterns)

    def check_file(self, ctx: FileContext,
                   config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[FileRule]] = {}


def register(rule_class: type[FileRule]) -> type[FileRule]:
    """Class decorator adding a rule to the global registry.

    Raises:
        ConfigurationError: on a duplicate or missing rule ID.
    """
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ConfigurationError(
            f"rule {rule_class.__name__} does not define a rule_id")
    if rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {rule_id}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> dict[str, type[FileRule]]:
    """The registered rules, keyed by rule ID (imports the rule pack)."""
    # The rules subpackage registers itself on import; importing it here
    # keeps `engine` free of import cycles while making the registry
    # self-populating for any entry point.
    import repro.analysis.rules  # noqa: F401  (registration side effect)
    return dict(_REGISTRY)


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def load_contexts(root: Path, targets: Iterable[Path]) -> list[FileContext]:
    """Parse every lint target once, each file at most once.

    A target that fails to parse raises :class:`SyntaxError` (the CLI
    exits 2).
    """
    contexts: list[FileContext] = []
    seen: set[Path] = set()
    for path in _iter_python_files(targets):
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        relpath = _relative_to_root(resolved, root)
        source = resolved.read_text(encoding="utf-8")
        contexts.append(FileContext(resolved, relpath, source))
    return contexts


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_analysis(root: Path, targets: Iterable[Path],
                 config: LintConfig) -> list[Finding]:
    """Run every enabled rule over the targets; return sorted findings.

    Findings silenced by an inline ``# reprolint: disable=`` comment
    are dropped.
    """
    rules = [cls() for rule_id, cls in sorted(all_rules().items())
             if config.rule_enabled(rule_id)]
    kept: list[Finding] = []
    for ctx in load_contexts(root, targets):
        for rule in rules:
            if rule.applies_to(ctx, config):
                kept.extend(finding for finding in rule.check_file(ctx, config)
                            if not ctx.is_suppressed(finding))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept
