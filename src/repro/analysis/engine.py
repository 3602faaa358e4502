"""Core of the ``reprolint`` static-analysis engine.

The engine is deliberately small: it parses every target file once into
an :mod:`ast` tree, wraps each in a :class:`FileContext` carrying the
source text and suppression comments, and hands the contexts to a
registry of domain rules.  Rules come in two flavours:

* :class:`FileRule` — examines one file at a time (RNG discipline,
  dtype contracts, magic numbers...).
* :class:`ProjectRule` — examines the whole tree at once, including the
  test corpus (parity-pair coverage needs to cross-reference ``tests/``).

Findings carry a stable rule ID, a location, and a fix-it hint that the
reporters (:mod:`repro.analysis.reporting`) render.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.errors import ConfigurationError

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Root-relative directory of the test corpus project rules cross-reference.
TESTS_DIR = "tests"


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

    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-insensitive identity (SARIF partial fingerprint)."""
        return (self.rule_id, self.path, self.message)

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


@dataclass
class Project:
    """Everything a :class:`ProjectRule` may inspect.

    Attributes:
        root: project root directory (where ``pyproject.toml`` lives).
        contexts: the lint targets.
        test_contexts: the parsed test corpus (never linted directly by
            file rules, but cross-referenced by coverage-style rules).
        semantic_cell: shared lazy holder of the whole-program semantic
            model, so every semantic rule in one run reuses one model
            (built from the *full* target set, not one rule's scope).
        semantic_origin: the unscoped parent project the model is built
            from when this instance is a per-rule scoped view.
    """

    root: Path
    contexts: list[FileContext] = field(default_factory=list)
    test_contexts: list[FileContext] = field(default_factory=list)
    semantic_cell: list = field(default_factory=list, repr=False)
    semantic_origin: "Project | None" = field(default=None, repr=False)

    def semantic(self):
        """The cached :class:`~repro.analysis.semantic.SemanticModel`."""
        if not self.semantic_cell:
            from repro.analysis.semantic import build_model
            self.semantic_cell.append(
                build_model(self.semantic_origin or self))
        return self.semantic_cell[0]


class Rule:
    """Base class for all reprolint rules.

    Subclasses define class attributes ``rule_id`` / ``name`` /
    ``description`` and optionally ``default_scope`` (fnmatch patterns a
    file's relpath must match for the rule to run; ``None`` means every
    Python file).
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


class FileRule(Rule):
    """A rule that inspects one file at a time."""

    def check_file(self, ctx: FileContext,
                   config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that inspects the whole project at once."""

    def check_project(self, project: Project,
                      config: LintConfig) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
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


def all_rules() -> dict[str, type[Rule]]:
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


def load_project(root: Path, targets: Iterable[Path]) -> Project:
    """Parse the lint targets and the test corpus into a :class:`Project`.

    A target that fails to parse raises :class:`SyntaxError` (the CLI
    exits 2); an unparseable test file is skipped.
    """
    project = Project(root=root)
    seen: set[Path] = set()
    for path in _iter_python_files(targets):
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        relpath = _relative_to_root(resolved, root)
        source = resolved.read_text(encoding="utf-8")
        project.contexts.append(FileContext(resolved, relpath, source))
    tests_dir = root / TESTS_DIR
    if tests_dir.is_dir():
        for path in _iter_python_files([tests_dir]):
            resolved = path.resolve()
            if resolved in seen:
                continue
            relpath = _relative_to_root(resolved, root)
            source = resolved.read_text(encoding="utf-8")
            try:
                project.test_contexts.append(
                    FileContext(resolved, relpath, source))
            except SyntaxError:
                continue
    return project


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
    project = load_project(root, targets)
    rules = [cls() for rule_id, cls in sorted(all_rules().items())
             if config.rule_enabled(rule_id)]
    file_rules = [rule for rule in rules if isinstance(rule, FileRule)]
    project_rules = [rule for rule in rules
                     if isinstance(rule, ProjectRule)]
    for rule in rules:
        if not isinstance(rule, (FileRule, ProjectRule)):
            # pragma: no cover - registry only holds the two kinds
            raise ConfigurationError(
                f"rule {rule.rule_id} is neither a FileRule nor a "
                f"ProjectRule")
    findings: list[Finding] = []
    for ctx in project.contexts:
        for rule in file_rules:
            if rule.applies_to(ctx, config):
                findings.extend(rule.check_file(ctx, config))
    for rule in project_rules:
        scoped = [ctx for ctx in project.contexts
                  if rule.applies_to(ctx, config)]
        sub = Project(root=project.root, contexts=scoped,
                      test_contexts=project.test_contexts,
                      semantic_cell=project.semantic_cell,
                      semantic_origin=project)
        findings.extend(rule.check_project(sub, config))
    by_path = {ctx.relpath: ctx for ctx in project.contexts}
    kept = [finding for finding in findings
            if not (finding.path in by_path
                    and by_path[finding.path].is_suppressed(finding))]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept
