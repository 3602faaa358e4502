"""Call graph over the project symbol table.

Edges are resolved call expressions plus bare references (a function
passed as a value — ``pool.map(_shard_worker, tasks)`` — counts as an
edge, because the callee will run).  Reachability is a plain BFS; the
shard-safety rule uses it to ask "is this helper reachable from the
fleet entry point" (REPRO013).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.semantic.symbols import FunctionSymbol, SymbolTable


@dataclass(frozen=True)
class CallGraph:
    """Immutable qualname -> callee-qualnames adjacency."""

    edges: Mapping[str, frozenset[str]]

    def callees(self, qualname: str) -> frozenset[str]:
        """Direct callees of ``qualname`` (empty when unknown)."""
        return self.edges.get(qualname, frozenset())

    def reachable(self, roots: Iterable[str]) -> frozenset[str]:
        """Every qualname reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        queue = deque(root for root in roots if root in self.edges)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, frozenset()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return frozenset(seen)


def _function_edges(table: SymbolTable,
                    symbol: FunctionSymbol) -> frozenset[str]:
    mod = table.modules[symbol.module]
    targets: set[str] = set()
    for node in ast.walk(symbol.node):
        resolved: FunctionSymbol | None = None
        if isinstance(node, ast.Call):
            resolved = table.resolve_call(mod, symbol.class_name, node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            resolved = table.resolve_name(mod, node.id)
        if resolved is not None and resolved.qualname != symbol.qualname:
            targets.add(resolved.qualname)
    return frozenset(targets)


def build_call_graph(table: SymbolTable) -> CallGraph:
    """Resolve every call/reference in every function body to edges."""
    edges = {qualname: _function_edges(table, symbol)
             for qualname, symbol in table.functions.items()}
    return CallGraph(edges=edges)
