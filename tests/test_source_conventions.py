"""Six source conventions no run can observe.

* **Named literals.**  A numeric literal of magnitude 1e5 or more
  (868 MHz, a 100 ks timeout) lives in a module-level UPPER_CASE
  constant or carries a ``# units:``, ``# datasheet:``, ``# paper:`` or
  ``# spec:`` note on its line.  Exact powers of ten and of two, and
  all-ones masks, are structural and exempt, as are ``repro/units.py``
  (it defines the conversions) and ``repro/analysis/``.
* **Cited constants.**  In the component models (``radio/``, ``fpga/``,
  ``power/``, ``platforms/``) every UPPER_CASE constant whose value
  holds a numeric literal cites its source with ``# datasheet:``,
  ``# paper:`` or ``# spec:``: on its own lines, in the string right
  after it, or in a comment above the contiguous run of assignments it
  belongs to (a blank line or any other statement ends the run).
  Module- and class-level constants count; derived constants (no
  literal) inherit their source.
* **One sub-stream constructor.**  Outside ``repro/seeding.py`` no
  module calls ``default_rng`` or ``SeedSequence`` with a list or tuple
  of seed words: every sub-stream comes from
  :func:`repro.seeding.stream_rng` and its one tag table.  A
  root-seeded ``default_rng(seed)`` is legal everywhere.
* **Module-level imports.**  A ``repro`` import runs at module level
  unless it sits under ``if TYPE_CHECKING:`` or in one of the
  :data:`DEFERRED_IMPORTS` places, each of which names its reason.  The
  runtime import graph is acyclic (``tests/test_package_imports.py``),
  so a function-level import avoids nothing anywhere else.
* **Docstring-only packages.**  A package ``__init__`` holds its
  docstring and nothing else (``repro``'s also sets ``__version__``),
  except the :data:`ENTRY_PACKAGES`.
* **One import path per name.**  Every ``from repro... import name`` in
  ``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` names a
  submodule or a name that module binds at its top level with ``def``,
  ``class`` or an assignment; imports from ``repro`` and the entry
  packages are exempt.  A re-export gives a name a second path and
  makes importing one module load its whole package.

Respelling ``FREQUENCY_HZ`` as its value, rewording a citation,
hand-building a stream that equals its ``stream_rng`` twin, deferring
an import or importing a name through another module changes no
output, so these are text checks.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

THRESHOLD = 100_000.0
"""Smallest literal magnitude that needs a name (100 kHz / 100 ks)."""

UNIT_MARKERS = ("units:", "datasheet:", "paper:", "spec:")
SOURCE_MARKERS = ("datasheet:", "paper:", "spec:")

LITERAL_EXEMPT = ("*/repro/units.py", "*/repro/analysis/*")
COMPONENT_MODELS = ("*/radio/*.py", "*/fpga/*.py", "*/power/*.py",
                    "*/platforms/*.py")
SEEDING = ("*/repro/seeding.py",)
SEEDERS = {"default_rng": "seed", "SeedSequence": "entropy"}

DEFERRED_IMPORTS = {
    # Scenario functions: a caller needing one helper loads no engine.
    "src/repro/analysis/determinism.py": "*",
    # Workload adapters: ``import repro.service`` loads no engine.
    "src/repro/service/workloads.py": "*",
    # The streaming receiver imports the demodulator module.
    "src/repro/phy/lora/demodulator.py": "LoRaDemodulator.receive_all",
}
"""File -> the function (``*``: any) whose ``repro`` imports may stay."""

ENTRY_PACKAGES = ("repro.phy.lora", "repro.ota.fleet", "repro.service")
"""Packages whose ``__init__`` keeps its re-exports: ``perfbench/``
reaches the three headline paths through them."""

IMPORTING_TREES = ("src", "tests", "benchmarks", "examples")

_UPPER = re.compile(r"^[A-Z][A-Z0-9_]*$")


def _comment(lines: list[str], number: int) -> str:
    """Lower-cased text after the first ``#`` on a 1-based line."""
    text = lines[number - 1] if 1 <= number <= len(lines) else ""
    index = text.find("#")
    return text[index + 1:].strip().lower() if index >= 0 else ""


def _numbers(node: ast.AST) -> list[ast.Constant]:
    return [child for child in ast.walk(node)
            if isinstance(child, ast.Constant)
            and isinstance(child.value, (int, float))
            and not isinstance(child.value, bool)]


def _names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _names(element)]
    return []


def _constant(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` assigns only UPPER_CASE names."""
    if isinstance(stmt, ast.Assign):
        names = [name for target in stmt.targets for name in _names(target)]
    elif isinstance(stmt, ast.AnnAssign):
        names = _names(stmt.target)
    else:
        return False
    return bool(names) and all(_UPPER.match(name) for name in names)


def _structural(value: float) -> bool:
    """Exact powers of ten or two, or an all-ones mask."""
    if value == int(value):
        integer = int(value)
        if integer & (integer - 1) == 0 or integer & (integer + 1) == 0:
            return True
    while value >= 10 and value == int(value) and int(value) % 10 == 0:
        value /= 10
    return value == 1.0


def unnamed_literals(source: str) -> list[int]:
    """Lines holding a large literal outside a named constant or note."""
    lines = source.splitlines()
    tree = ast.parse(source)
    named = {getattr(node, "lineno", stmt.lineno)
             for stmt in tree.body if _constant(stmt)
             for node in ast.walk(stmt)}
    return sorted(
        node.lineno for node in _numbers(tree)
        if abs(float(node.value)) >= THRESHOLD
        and not _structural(abs(float(node.value)))
        and node.lineno not in named
        and not any(marker in _comment(lines, node.lineno)
                    for marker in UNIT_MARKERS))


def _cited(text: str) -> bool:
    return any(marker in text.lower() for marker in SOURCE_MARKERS)


def _cited_above(first_line: int, lines: list[str],
                 run_lines: set[int]) -> bool:
    """Whether a comment above the contiguous run holding a line cites."""
    for number in range(first_line - 1, 0, -1):
        text = lines[number - 1].strip()
        if text.startswith("#"):
            if _cited(text):
                return True
        elif not (text and number in run_lines):
            return False
    return False


def _uncited_in(body: list[ast.stmt], lines: list[str]) -> list[int]:
    run_lines = {number for stmt in body
                 if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for number in range(stmt.lineno, stmt.end_lineno + 1)}
    flagged = []
    for index, stmt in enumerate(body):
        if (not _constant(stmt) or stmt.value is None
                or not _numbers(stmt.value)):
            continue
        after = body[index + 1] if index + 1 < len(body) else None
        if (any(_cited(_comment(lines, number))
                for number in range(stmt.lineno, stmt.end_lineno + 1))
                or _cited_above(stmt.lineno, lines, run_lines)
                or (isinstance(after, ast.Expr)
                    and isinstance(after.value, ast.Constant)
                    and isinstance(after.value.value, str)
                    and _cited(after.value.value))):
            continue
        flagged.append(stmt.lineno)
    return flagged


def uncited_constants(source: str) -> list[int]:
    """Lines of module- or class-level constants that cite no source."""
    lines = source.splitlines()
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return sorted(number for body in bodies
                  for number in _uncited_in(body, lines))


def listed_seeds(source: str) -> list[int]:
    """Lines seeding ``default_rng``/``SeedSequence`` with a list/tuple."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name not in SEEDERS:
            continue
        seeds = node.args[:1] + [keyword.value for keyword in node.keywords
                                 if keyword.arg == SEEDERS[name]]
        if any(isinstance(seed, (ast.List, ast.Tuple)) for seed in seeds):
            flagged.append(node.lineno)
    return sorted(flagged)


def deferred_imports(source: str) -> list[tuple[int, str]]:
    """``(line, function)`` of each ``repro`` import inside a function."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                continue
            if in_function and isinstance(child, (ast.Import,
                                                  ast.ImportFrom)):
                modules = ([alias.name for alias in child.names]
                           if isinstance(child, ast.Import)
                           else ["." * child.level + (child.module or "")])
                if any(module.startswith(".")
                       or module.partition(".")[0] == "repro"
                       for module in modules):
                    found.append((child.lineno, ".".join(scope)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,), in_function
                      or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), (), False)
    return found


def _module_level(body: list[ast.stmt]):
    """The statements of ``body`` and of the blocks nested in it."""
    for stmt in body:
        yield stmt
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level(getattr(stmt, field, []))


def defined_names(source: str) -> set[str]:
    """Names a module's top level binds with def, class or assignment."""
    names = set()
    for stmt in _module_level(ast.parse(source).body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(name for target in stmt.targets
                         for name in _names(target))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            names.update(_names(stmt.target))
    return names


def reexported_imports(source: str, package: str,
                       modules: dict[str, set[str]]) -> list[tuple[int, str]]:
    """``(line, module.name)`` of each import of a name ``module`` lacks.

    ``modules`` maps each ``repro`` module to its :func:`defined_names`;
    ``package`` resolves relative imports (``""`` outside ``src/``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level and not package:
            continue
        module = importlib.util.resolve_name(
            "." * node.level + (node.module or ""), package)
        if module not in modules or module in ("repro", *ENTRY_PACKAGES):
            continue
        found += [(node.lineno, f"{module}.{alias.name}")
                  for alias in node.names
                  if alias.name not in modules[module]
                  and f"{module}.{alias.name}" not in modules]
    return sorted(found)


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _violations(check, include, exclude=()) -> list[str]:
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relpath = path.relative_to(REPO_ROOT).as_posix()
        if (include and not any(fnmatch(relpath, p) for p in include)
                or any(fnmatch(relpath, p) for p in exclude)):
            continue
        found += [f"{relpath}:{line}"
                  for line in check(path.read_text(encoding="utf-8"))]
    return found


def test_large_literals_are_named_or_annotated():
    assert _violations(unnamed_literals, (), LITERAL_EXEMPT) == []


def test_component_constants_cite_their_source():
    assert _violations(uncited_constants, COMPONENT_MODELS) == []


def test_sub_streams_come_only_from_seeding():
    assert _violations(listed_seeds, (), SEEDING) == []


def test_repro_imports_run_at_module_level():
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        relpath = path.relative_to(REPO_ROOT).as_posix()
        allowed = DEFERRED_IMPORTS.get(relpath)
        found += [f"{relpath}:{line} in {function}"
                  for line, function
                  in deferred_imports(path.read_text(encoding="utf-8"))
                  if allowed not in ("*", function)]
    assert found == []


def _docstring_or_version(stmt: ast.stmt, package: str) -> bool:
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) \
            and isinstance(stmt.value.value, str)
    return package == "repro" and isinstance(stmt, ast.Assign) \
        and [name for target in stmt.targets
             for name in _names(target)] == ["__version__"]


def test_package_inits_hold_only_their_docstring():
    found = []
    for path in sorted((REPO_ROOT / "src").rglob("__init__.py")):
        package = _module_name(path)
        if package in ENTRY_PACKAGES:
            continue
        found += [f"{path.relative_to(REPO_ROOT).as_posix()}:{stmt.lineno}"
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                  if not _docstring_or_version(stmt, package)]
    assert found == []


def test_imports_name_a_submodule_or_a_name_their_module_defines():
    modules = {_module_name(path): defined_names(
        path.read_text(encoding="utf-8"))
        for path in (REPO_ROOT / "src").rglob("*.py")}
    found = []
    for tree in IMPORTING_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            package = ""
            if tree == "src":
                package = _module_name(path)
                if path.name != "__init__.py":
                    package = package.rpartition(".")[0]
            found += [f"{path.relative_to(REPO_ROOT).as_posix()}:{line} "
                      f"{name}" for line, name in reexported_imports(
                          path.read_text(encoding="utf-8"), package, modules)]
    assert found == []


_LITERALS = '''\
CARRIER_HZ = 868_100_000
TABLE = {"eu": 868_100_000,
         "us": 915_000_000}


def tune(radio, carrier=CARRIER_HZ):
    radio.set_frequency(868_100_000)
    radio.wait(250_000)  # units: microseconds
    radio.mask(0xFFFF_FFFF, 1 << 20, 1_000_000, 1e6, 2.5e9)
    return -2_440_000_000
'''


def test_named_literals_flags_only_bare_large_literals():
    assert unnamed_literals(_LITERALS) == [7, 9, 10]


_CONSTANTS = '''\
SLEEP_CURRENT_A = 30e-6

# datasheet: SX1276 Table 7
RX_CURRENT_A = 10.8e-3
TX_CURRENT_A = 28e-3

WAKE_LATENCY_S = 0.001
IDLE_CURRENT_A = 1.6e-3  # paper: Table 3
RAMP_S = 2e-5
"""Ramp time (spec: 802.15.4 clause 10)."""
TOTAL_A = RX_CURRENT_A + TX_CURRENT_A


class Radio:
    BOOT_S = 0.02
    # paper: Section 5
    RESET_S = 0.5
'''


def test_cited_constants_flags_only_uncited_literal_constants():
    assert uncited_constants(_CONSTANTS) == [1, 7, 15]


_STREAMS = '''\
import numpy as np
from numpy.random import SeedSequence, default_rng

root = np.random.default_rng(seed)
jitter = np.random.default_rng([seed, 0x0177])
place = default_rng(SeedSequence((seed, 0x1E57)))
fold = np.random.SeedSequence(entropy=[seed, node]).generate_state(1)
spawned = np.random.default_rng(np.random.SeedSequence(seed))
'''


def test_listed_seeds_flags_only_hand_built_sub_streams():
    assert listed_seeds(_STREAMS) == [5, 6, 7]


_IMPORTS = '''\
from typing import TYPE_CHECKING

import numpy as np
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.faults import NodeFaults


def run(seed):
    import json
    from repro.sim import Timeline
    if TYPE_CHECKING:
        from repro.ota import AccessPoint


class Receiver:
    from repro.phy import backend

    def receive_all(self):
        import repro.phy.lora.streaming
        from . import codec
'''


def test_deferred_imports_flags_only_function_level_repro_imports():
    assert deferred_imports(_IMPORTS) == [
        (12, "run"), (21, "Receiver.receive_all"),
        (22, "Receiver.receive_all")]


_DEFINITIONS = '''\
import numpy as np
from repro.sim.events import SimEvent

LIMIT = 3
rate: float = 1.5
if LIMIT:
    FLAG = True
try:
    SPEED, GAIN = 1, 2
except ImportError:
    SPEED = 0


def run():
    local = 1


class Model:
    FIELD = 1
'''


def test_defined_names_are_top_level_bindings_not_imports():
    assert defined_names(_DEFINITIONS) == {
        "LIMIT", "rate", "FLAG", "SPEED", "GAIN", "run", "Model"}


_REEXPORTS = '''\
from repro import units
from repro.a import VALUE, b, helper
from repro.phy.lora import LoRaParams
from numpy import pi
from .b import VALUE as value


def late():
    from repro.c import VALUE
'''

_MODULES = {"repro": set(), "repro.units": set(), "repro.a": {"VALUE"},
            "repro.a.b": set(), "repro.c": set(), "repro.phy.lora": set()}


def test_reexported_imports_flags_only_names_the_module_lacks():
    assert reexported_imports(_REEXPORTS, "repro.a", _MODULES) == [
        (2, "repro.a.helper"), (5, "repro.a.b.VALUE"), (9, "repro.c.VALUE")]
    assert reexported_imports(_REEXPORTS, "", _MODULES) == [
        (2, "repro.a.helper"), (9, "repro.c.VALUE")]


@pytest.mark.parametrize("value, structural", [
    (100_000, True), (1e6, True), (2 ** 20, True), (0xFFFF_FFFF, True),
    (868_100_000, False), (125_000.5, False), (2_440_000_000, False)])
def test_powers_of_ten_and_two_are_structural(value, structural):
    assert _structural(float(value)) is structural
