"""High-level semantic queries: the questions the project rules ask.

This module assembles the :class:`SemanticModel` (symbol table + call
graph + summaries + sink hits) and exposes the three derived analyses
behind rules REPRO011-013:

* :attr:`SemanticModel.sink_findings` — concrete determinism taint
  arriving at a ledger/cache/report sink (REPRO011).
* :func:`parity_pairs` / :func:`signature_drift` — fast/``*_reference``
  twin pairing and signature comparison (REPRO012).
* :func:`test_identifiers` — every name a test file mentions, which
  REPRO002 uses to decide whether a twin pair is co-exercised.
* :func:`shard_state_findings` — module-level mutable state accessed
  under the fleet entry points while mutated by function code
  (REPRO013).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Iterable

from repro.analysis.astutil import canonical_name, dotted_name
from repro.analysis.semantic.callgraph import CallGraph, build_call_graph
from repro.analysis.semantic.summaries import (
    FunctionSummary,
    compute_summaries,
)
from repro.analysis.semantic.symbols import (
    FunctionSymbol,
    SymbolTable,
    build_symbol_table,
)
from repro.analysis.semantic.taint import SinkHit

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.analysis.engine import FileContext, Project

REFERENCE_SUFFIX = "_reference"


@dataclass(frozen=True)
class SemanticModel:
    """Everything the semantic rules share for one lint run."""

    table: SymbolTable
    graph: CallGraph
    summaries: dict[str, FunctionSummary]
    sink_findings: tuple[SinkHit, ...]


def build_model(project: "Project") -> SemanticModel:
    """Build the whole-program model from a parsed project."""
    table = build_symbol_table(project.contexts)
    graph = build_call_graph(table)
    summaries, hits = compute_summaries(table)
    return SemanticModel(table=table, graph=graph, summaries=summaries,
                         sink_findings=tuple(hits))


# -- REPRO012: parity pairs ---------------------------------------------

@dataclass(frozen=True)
class ParityPair:
    """A fast-path function and its ``*_reference`` twin."""

    fast: FunctionSymbol
    reference: FunctionSymbol


def parity_pairs(table: SymbolTable) -> list[ParityPair]:
    """Every ``foo``/``foo_reference`` pair in the same namespace."""
    pairs: list[ParityPair] = []
    for qualname in sorted(table.functions):
        symbol = table.functions[qualname]
        name = symbol.name
        if not name.endswith(REFERENCE_SUFFIX) or name == REFERENCE_SUFFIX:
            continue
        base = name[: -len(REFERENCE_SUFFIX)]
        if base.startswith("_"):
            continue
        fast_qualname = qualname[: -len(name)] + base
        fast = table.functions.get(fast_qualname)
        if fast is not None:
            pairs.append(ParityPair(fast=fast, reference=symbol))
    return pairs


def _positional(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args]


def signature_drift(pair: ParityPair) -> str | None:
    """Describe how the twins' signatures diverge, or ``None``.

    The fast path may append *extra* trailing parameters as long as
    they are defaulted (the plan-cache/output-buffer injection idiom);
    everything the reference accepts, the fast path must accept under
    the same name, position and kind.
    """
    fast, ref = pair.fast.node.args, pair.reference.node.args
    fast_pos, ref_pos = _positional(pair.fast.node), _positional(
        pair.reference.node)
    if fast_pos[: len(ref_pos)] != ref_pos:
        return (f"positional parameters differ: fast has {fast_pos}, "
                f"reference has {ref_pos}")
    extra = len(fast_pos) - len(ref_pos)
    if extra > len(fast.defaults):
        return (f"fast path adds {extra} positional parameter(s) without "
                f"defaults beyond the reference's {ref_pos}")
    if (fast.vararg is None) != (ref.vararg is None):
        return "one twin takes *args and the other does not"
    fast_kw = [a.arg for a in fast.kwonlyargs]
    ref_kw = [a.arg for a in ref.kwonlyargs]
    missing = [name for name in ref_kw if name not in fast_kw]
    if missing:
        return (f"fast path is missing keyword-only parameter(s) "
                f"{missing} of the reference")
    for name in fast_kw:
        if name in ref_kw:
            continue
        index = fast_kw.index(name)
        if fast.kw_defaults[index] is None:
            return (f"fast path adds required keyword-only parameter "
                    f"'{name}' absent from the reference")
    if (fast.kwarg is None) != (ref.kwarg is None):
        return "one twin takes **kwargs and the other does not"
    return None


def test_identifiers(ctx: "FileContext") -> frozenset[str]:
    """Every name a test file could use to reach a function."""
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return frozenset(names)


# -- REPRO013: shard safety ---------------------------------------------

#: Call targets whose result is mutable shared state when bound at
#: module level.
_MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.Counter",
    "collections.deque", "collections.OrderedDict",
    "defaultdict", "Counter", "deque", "OrderedDict",
})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
})


def _is_mutable_initializer(node: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = canonical_name(node.func, aliases) or dotted_name(node.func)
        return name in _MUTABLE_CALLS
    return False


def mutable_module_state(table: SymbolTable) -> dict[str, ast.AST]:
    """Module-level mutable bindings, keyed by ``module.name``."""
    bindings: dict[str, ast.AST] = {}
    for module, mod in table.modules.items():
        for name, value in mod.module_assigns.items():
            if _is_mutable_initializer(value, mod.aliases):
                bindings[f"{module}.{name}"] = value
    return bindings


@dataclass(frozen=True)
class StateAccess:
    """One function touching one module-level mutable binding."""

    binding: str
    function: FunctionSymbol
    line: int
    col: int
    is_write: bool


def _local_names(node: ast.FunctionDef | ast.AsyncFunctionDef,
                 ) -> frozenset[str]:
    """Names the function binds locally (params + any store)."""
    names = set(_positional(node))
    args = node.args
    if args.vararg is not None:
        names.add(args.vararg.arg)
    names.update(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    globals_: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Global):
            globals_.update(child.names)
        elif isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)):
            names.add(child.id)
    return frozenset(names - globals_)


def state_accesses(table: SymbolTable) -> list[StateAccess]:
    """Every read/write of a mutable module binding inside a function."""
    bindings = mutable_module_state(table)
    accesses: list[StateAccess] = []
    for qualname in sorted(table.functions):
        symbol = table.functions[qualname]
        mod = table.modules[symbol.module]
        local = _local_names(symbol.node)
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(symbol.node):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(symbol.node):
            binding: str | None = None
            if isinstance(node, ast.Name) and node.id not in local:
                candidate = f"{symbol.module}.{node.id}"
                if candidate in bindings:
                    binding = candidate
            elif isinstance(node, ast.Attribute):
                candidate = canonical_name(node, mod.aliases)
                if candidate in bindings and candidate.rpartition(
                        ".")[0] != symbol.module:
                    binding = candidate
            if binding is None:
                continue
            accesses.append(StateAccess(
                binding=binding, function=symbol,
                line=node.lineno, col=node.col_offset,
                is_write=_is_mutation(node, parents)))
    return accesses


def _is_mutation(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether this reference is the receiver of a mutation."""
    parent = parents.get(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                 (ast.Store, ast.Del)):
        return True
    if isinstance(parent, ast.Attribute) and parent.value is node:
        grand = parents.get(parent)
        if (isinstance(grand, ast.Call) and grand.func is parent
                and parent.attr in _MUTATOR_METHODS):
            return True
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            return True
    if isinstance(parent, ast.Subscript) and parent.value is node:
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            return True
        grand = parents.get(parent)
        if isinstance(grand, ast.AugAssign) and grand.target is parent:
            return True
    return False


@dataclass(frozen=True)
class ShardHazard:
    """A shard-unsafe access for REPRO013 to report."""

    access: StateAccess
    writers: tuple[str, ...]


def shard_state_findings(model: SemanticModel,
                         root_patterns: Iterable[str]
                         ) -> list[ShardHazard]:
    """Mutable module state touched under the fleet entry points.

    A binding is hazardous when some function mutates it (its value
    then depends on call history, which shard layout changes) and code
    reachable from a ``root_patterns`` entry point touches it.
    """
    accesses = state_accesses(model.table)
    writers: dict[str, set[str]] = {}
    for access in accesses:
        if access.is_write:
            writers.setdefault(access.binding, set()).add(
                access.function.display)
    roots = [qualname
             for qualname, symbol in model.table.functions.items()
             if any(fnmatch(symbol.name, pattern)
                    for pattern in root_patterns)]
    reachable = model.graph.reachable(roots)
    hazards: list[ShardHazard] = []
    seen: set[tuple[str, int, int]] = set()
    for access in accesses:
        if access.binding not in writers:
            continue
        if access.function.qualname not in reachable:
            continue
        key = (access.function.relpath, access.line, access.col)
        if key in seen:
            continue
        seen.add(key)
        hazards.append(ShardHazard(
            access=access,
            writers=tuple(sorted(writers[access.binding]))))
    hazards.sort(key=lambda h: (h.access.function.relpath, h.access.line,
                                h.access.col))
    return hazards
