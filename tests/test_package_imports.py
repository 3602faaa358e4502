"""How the package imports: on any supported Python, acyclic, and lean.

* **No tomllib, no repro.analysis.**  ``tomllib`` is stdlib only from
  Python 3.11, while ``pyproject.toml`` declares ``requires-python >=
  3.10``.  A fresh interpreter in which ``tomllib`` cannot be imported
  stands in for 3.10: every public entry package must still import, and
  none of them may pull in ``repro.analysis`` (the pinned determinism
  scenarios, which only the tests and examples load).
* **An acyclic runtime import graph.**  One node per module under
  ``src/repro``; an edge for each module-level ``import`` or ``from ...
  import`` of a ``repro`` module (imports inside a function or under
  ``if TYPE_CHECKING:`` do not run at import time), and an edge to each
  ancestor package of the imported module that is not an ancestor of
  the importer, since Python runs that package's ``__init__`` first.
  ``from repro.ota import minilzo`` is an edge to ``repro.ota.minilzo``.
  A cycle is a place where one module can see another before it has
  finished initializing.
* **Entry fan-out.**  Importing one subsystem in a fresh interpreter
  loads only the layers below it.  A package row imports the package
  and every module in it, so it still means something when the
  package's ``__init__`` holds only a docstring.
"""

from __future__ import annotations

import ast
import graphlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

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

_LOADED = """
import importlib, json, pkgutil, sys
entry = importlib.import_module(sys.argv[1])
if sys.argv[2:]:  # and every module below a package
    for module in pkgutil.walk_packages(getattr(entry, "__path__", ()),
                                        entry.__name__ + "."):
        importlib.import_module(module.name)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""

_PER_NODE_OTA = ("repro.ota.ap", "repro.ota.hardened", "repro.ota.updater",
                 "repro.ota.broadcast", "repro.ota.blocks",
                 "repro.ota.minilzo", "repro.faults.plan")
"""The per-node OTA stack and fault plan: the fleet engine runs neither."""

#: Entry module -> the ``repro`` modules (dotted prefixes) that importing
#: it, and every module in it when it is a package, must not load.
FAN_OUT_LIMITS = {
    "repro.sim": ("repro.core", "repro.ota", "repro.phy", "repro.service",
                  "repro.power", "repro.fpga"),
    "repro.phy.lora": ("repro.core", "repro.ota", "repro.service",
                       "repro.faults", "repro.fpga", "repro.mcu",
                       "repro.power", "repro.radio", "repro.testbed"),
    "repro.faults": ("repro.ota", "repro.core", "repro.service"),
    "repro.service": ("repro.ota", "repro.core", "repro.phy", "repro.fpga"),
    "repro.ota.fleet": _PER_NODE_OTA,
    "repro.phy.ble.channels": ("repro.phy.lora", "repro.ota", "repro.core"),
    "repro.phy.ble.gfsk": ("repro.phy.lora", "repro.ota", "repro.core"),
    "repro.protocols.lorawan.mac": ("repro.core", "repro.ota", "repro.phy",
                                    "repro.radio"),
    "repro.core.sweeps": ("repro.ota", "repro.fpga", "repro.core.tinysdr"),
}


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True,
                          check=True).stdout


def test_entry_packages_import_without_tomllib_or_the_linter():
    report = json.loads(_python(_PROBE, *ENTRY_PACKAGES))
    assert report["failures"] == {}
    assert report["analysis"] == []


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _runtime_imports(node: ast.AST):
    """The import statements that run when ``node``'s body runs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif isinstance(child, ast.If) and ast.unparse(child.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _runtime_imports(ast.Module(child.orelse, []))
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
            yield from _runtime_imports(child)


def _ancestors(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[:depth]) for depth in range(1, len(parts))]


def runtime_import_graph(src: Path = SRC) -> dict[str, set[str]]:
    """Module -> the modules under ``src`` its import runs first."""
    paths = {_module_name(path, src): path for path in src.rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        package = name if path.name == "__init__.py" \
            else name.rpartition(".")[0]
        targets = []
        for stmt in _runtime_imports(ast.parse(path.read_text("utf-8"))):
            if isinstance(stmt, ast.Import):
                targets += [alias.name for alias in stmt.names]
                continue
            base = importlib.util.resolve_name(
                "." * stmt.level + (stmt.module or ""), package)
            targets += [f"{base}.{alias.name}"
                        if f"{base}.{alias.name}" in paths else base
                        for alias in stmt.names]
        own = set(_ancestors(name))
        graph[name] = {module for target in targets if target in paths
                       for module in (target, *_ancestors(target))
                       if module not in own and module != name}
    return graph


def test_runtime_import_graph_is_acyclic():
    try:
        graphlib.TopologicalSorter(runtime_import_graph()).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(reversed(exc.args[1])))


def _loaded_by(entry: str, whole_package: bool = False) -> list[str]:
    flags = ["--whole-package"] if whole_package else []
    return json.loads(_python(_LOADED, entry, *flags))


def test_importing_repro_loads_nothing_else():
    assert _loaded_by("repro") == ["repro"]


@pytest.mark.parametrize("entry", sorted(FAN_OUT_LIMITS))
def test_entry_loads_only_the_layers_below_it(entry):
    banned = FAN_OUT_LIMITS[entry]
    assert [module for module in _loaded_by(entry, whole_package=True)
            if any(module == prefix or module.startswith(prefix + ".")
                   for prefix in banned)] == []


def test_graph_follows_module_level_imports_only(tmp_path):
    package = tmp_path / "repro"
    (package / "a").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a" / "__init__.py").write_text(
        "from repro.a import b\n")
    (package / "a" / "b.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "import repro.c\n"
        "if TYPE_CHECKING:\n"
        "    from repro import d\n"
        "def late():\n"
        "    import repro.d\n")
    (package / "c.py").write_text("")
    (package / "d.py").write_text("from repro.a.b import late\n")
    assert runtime_import_graph(tmp_path) == {
        "repro": set(), "repro.a": {"repro.a.b"}, "repro.a.b": {"repro.c"},
        "repro.c": set(), "repro.d": {"repro.a", "repro.a.b"}}
