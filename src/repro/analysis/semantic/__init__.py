"""Whole-program semantic analysis for the reprolint engine.

The per-file rules (REPRO001-010) pattern-match one AST at a time and
cannot see a nondeterministic value flowing *between* modules.  This
subpackage closes that gap with a small, deliberately conservative
semantic layer built from the very ASTs the engine already parses:

* :mod:`~repro.analysis.semantic.symbols` — a project-wide symbol
  table: every module, function and method keyed by dotted qualname,
  with import aliases resolved through package re-exports.
* :mod:`~repro.analysis.semantic.callgraph` — the import/call graph
  over those symbols, with breadth-first reachability queries.
* :mod:`~repro.analysis.semantic.taint` — an intraprocedural dataflow
  pass tracking "determinism taint" from sources (``time.time``,
  ``os.urandom``, unseeded ``random.*``/``np.random.*``, set iteration
  order, ``id()``, environment reads) into sinks (timeline records,
  ``SimEvent`` payloads, plan-cache keys, fleet reports).
* :mod:`~repro.analysis.semantic.summaries` — per-function call
  summaries (which parameters flow to the return value or into a sink)
  iterated to a fixpoint, which is what makes the taint pass
  effectively interprocedural.
* :mod:`~repro.analysis.semantic.queries` — the high-level questions
  the project rules ask: tainted-sink findings (REPRO011), parity
  signature drift (REPRO012), shard-unsafe module state (REPRO013).

The model is built once per lint run (see
:meth:`repro.analysis.engine.Project.semantic`) and shared by every
semantic rule.
"""

from repro.analysis.semantic.callgraph import CallGraph, build_call_graph
from repro.analysis.semantic.queries import (
    ParityPair,
    SemanticModel,
    ShardHazard,
    build_model,
    parity_pairs,
    shard_state_findings,
    signature_drift,
)
from repro.analysis.semantic.summaries import (
    FunctionSummary,
    compute_summaries,
)
from repro.analysis.semantic.symbols import (
    FunctionSymbol,
    ModuleSymbols,
    SymbolTable,
    build_symbol_table,
    module_name_for,
)
from repro.analysis.semantic.taint import SinkHit, Taint, analyze_function

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "FunctionSymbol",
    "ModuleSymbols",
    "ParityPair",
    "SemanticModel",
    "ShardHazard",
    "SinkHit",
    "SymbolTable",
    "Taint",
    "analyze_function",
    "build_call_graph",
    "build_model",
    "build_symbol_table",
    "compute_summaries",
    "module_name_for",
    "parity_pairs",
    "shard_state_findings",
    "signature_drift",
]
