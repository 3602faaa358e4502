"""Determinism-taint dataflow: sources, propagation, sinks.

The pass is intraprocedural with call summaries.  Inside one function
it runs a forward may-analysis over the statement list (two iterations,
which stabilises simple loop-carried flow), mapping local names to sets
of :class:`Taint` atoms.  Three taint kinds exist:

* ``value`` — the value itself is nondeterministic (``time.time()``,
  ``os.urandom``, unseeded ``random.*``/``numpy.random.*``, ``id()``,
  environment reads, process/thread identity).
* ``order`` — the value was *derived from* hash-seed-dependent
  iteration order (something iterated a ``set``/``frozenset``);
  ``sorted``/``min``/``max``/``sum``/``len`` launder order-taint,
  nothing launders value-taint.
* ``set`` — latent: the value *is* a hash-ordered collection.  It only
  becomes ``order`` taint when the collection is observably iterated
  (``for``/comprehension, ``list()``/``tuple()``/``iter()``-style
  conversion, ``.join``, argless ``.pop()``, ``*``-unpack).  Membership
  tests, ``len``, and attribute projection are order-independent and
  drop it — so ``kinds={A, B}`` used for ``event.kind in kinds`` stays
  clean.
* ``param`` — the taint is conditional on what the caller passes in;
  these atoms never produce findings directly, they become the
  function's summary (see :mod:`repro.analysis.semantic.summaries`).

Sinks are where nondeterminism becomes a reproducibility bug: timeline
``record(...)`` calls, ``SimEvent`` payloads, ``get_or_build`` plan
cache keys, and the fleet engine's ``FleetReport`` arrays.  A sink fed only
``param`` taint charges the parameter in the summary; concrete taint
reaching a sink is an immediate :class:`SinkHit` — the raw material of
rule REPRO011.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.analysis.astutil import canonical_name
from repro.analysis.semantic.symbols import FunctionSymbol, SymbolTable

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.analysis.semantic.summaries import FunctionSummary

KIND_VALUE = "value"
KIND_ORDER = "order"
KIND_SET = "set"
KIND_PARAM = "param"


@dataclass(frozen=True)
class Taint:
    """One taint atom: a kind plus a human-readable provenance."""

    kind: str
    reason: str


TaintSet = frozenset[Taint]
EMPTY: TaintSet = frozenset()

#: Canonical callables whose return value is nondeterministic.
VALUE_SOURCES: dict[str, str] = {
    "time.time": "wall clock time.time()",
    "time.time_ns": "wall clock time.time_ns()",
    "time.monotonic": "monotonic clock time.monotonic()",
    "time.monotonic_ns": "monotonic clock time.monotonic_ns()",
    "time.perf_counter": "wall clock time.perf_counter()",
    "time.perf_counter_ns": "wall clock time.perf_counter_ns()",
    "os.urandom": "os.urandom()",
    "os.getenv": "environment read os.getenv()",
    "os.getpid": "process identity os.getpid()",
    "os.getloadavg": "host load os.getloadavg()",
    "os.listdir": "unsorted directory listing os.listdir()",
    "id": "object identity id()",
    "hash": "hash-seed-dependent hash()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
    "secrets.randbits": "secrets.randbits()",
    "threading.get_ident": "thread identity threading.get_ident()",
    "multiprocessing.current_process": "process identity "
                                       "multiprocessing.current_process()",
}

#: Canonical prefixes that hit process-global RNG state.  Anything
#: under these is a value source unless exempted below (constructors of
#: *seeded* generator objects are the sanctioned alternative).
VALUE_SOURCE_PREFIXES: dict[str, str] = {
    "random.": "process-global random.*",
    "numpy.random.": "process-global numpy.random.*",
}

#: Names under a source prefix that are only nondeterministic when
#: called with no seed argument (unseeded constructors).
SEEDED_CONSTRUCTORS = frozenset({
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.RandomState",
})

#: Builtins whose result does not depend on the argument's iteration
#: order — they launder ``order`` taint (but never ``value`` taint).
ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "len"})

#: Builtins that observably iterate their argument: latent ``set``
#: taint passing through them becomes active ``order`` taint.
ITERATING_BUILTINS = frozenset({
    "list", "tuple", "iter", "next", "enumerate", "reversed", "map",
    "filter", "zip",
})

#: Builtin constructors producing a hash-ordered collection.
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})

_SET_REASON = "set iteration order"
SET_TAINT: TaintSet = frozenset({Taint(KIND_SET, _SET_REASON)})


def _activate_order(taint: TaintSet) -> TaintSet:
    """Iteration observed: latent set-ness becomes order taint."""
    if not any(t.kind == KIND_SET for t in taint):
        return taint
    return frozenset(Taint(KIND_ORDER, t.reason)
                     if t.kind == KIND_SET else t for t in taint)


def _drop_set(taint: TaintSet) -> TaintSet:
    """Order-independent observation: latent set-ness is irrelevant."""
    return frozenset(t for t in taint if t.kind != KIND_SET)

#: Attribute reads that are themselves nondeterministic values.
ATTRIBUTE_SOURCES: dict[str, str] = {
    "os.environ": "environment read os.environ",
    "sys.argv": "process arguments sys.argv",
}

#: Method names that are determinism sinks when the callee cannot be
#: resolved to a project function (resolved callees are handled through
#: their summaries instead, so sinks are never double-counted).
#: ``None`` means every argument is checked; otherwise the listed
#: positional indices plus keyword names.
SINK_METHODS: dict[str, tuple[str, tuple[int, ...] | None,
                              frozenset[str]]] = {
    "record": ("timeline record", None, frozenset()),
    "get_or_build": ("plan-cache key", (0,), frozenset({"key"})),
}

#: Constructors that are sinks, by simple name: the sink label and the
#: canonical names a call may resolve to (the bare name is a use inside
#: the defining module, or one the import table cannot resolve).
SINK_CALLS: dict[str, tuple[str, frozenset[str]]] = {
    "SimEvent": ("SimEvent payload", frozenset({
        "SimEvent", "repro.sim.events.SimEvent", "repro.sim.SimEvent"})),
    "FleetReport": ("fleet report", frozenset({
        "FleetReport", "repro.ota.fleet.engine.FleetReport",
        "repro.ota.fleet.FleetReport"})),
}


@dataclass(frozen=True)
class SinkHit:
    """Concrete (non-``param``) taint arriving at a sink call."""

    relpath: str
    line: int
    col: int
    sink: str
    reasons: tuple[str, ...]
    function: str
    via: str = ""

    def describe(self) -> str:
        """One-phrase description used in finding messages."""
        sources = ", ".join(self.reasons)
        text = f"nondeterministic value from {sources} reaches {self.sink}"
        if self.via:
            text += f" via call to {self.via}"
        return text


def _source_taint(canonical: str | None, call: ast.Call) -> TaintSet:
    """Taint produced by calling ``canonical`` (may be empty)."""
    if canonical is None:
        return EMPTY
    if canonical in VALUE_SOURCES:
        return frozenset({Taint(KIND_VALUE, VALUE_SOURCES[canonical])})
    if canonical in SEEDED_CONSTRUCTORS:
        if not call.args and not call.keywords:
            return frozenset({Taint(KIND_VALUE,
                                    f"unseeded {canonical}()")})
        return EMPTY
    for prefix, reason in VALUE_SOURCE_PREFIXES.items():
        if canonical.startswith(prefix):
            return frozenset({Taint(KIND_VALUE,
                                    f"{reason} ({canonical})")})
    return EMPTY


class _FunctionTaint(ast.NodeVisitor):
    """One function's taint environment and sink collection."""

    def __init__(self, symbol: FunctionSymbol, table: SymbolTable,
                 summaries: Mapping[str, "FunctionSummary"]) -> None:
        self.symbol = symbol
        self.table = table
        self.mod = table.modules[symbol.module]
        self.summaries = summaries
        self.env: dict[str, TaintSet] = {}
        self.return_taint: set[Taint] = set()
        self.sink_hits: dict[tuple[int, int, str], SinkHit] = {}
        self.param_sinks: dict[int, set[str]] = {}
        self.param_names = self._bind_params()

    # -- setup ---------------------------------------------------------

    def _bind_params(self) -> list[str]:
        args = self.symbol.node.args
        ordered = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg is not None:
            ordered.append(args.vararg.arg)
        ordered.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg is not None:
            ordered.append(args.kwarg.arg)
        for index, name in enumerate(ordered):
            self.env[name] = frozenset({Taint(KIND_PARAM, str(index))})
        return ordered

    def run(self) -> None:
        """Two forward passes over the body (loop-carried stabilising)."""
        for _ in range(2):
            for stmt in self.symbol.node.body:
                self.visit(stmt)

    # -- expression evaluation -----------------------------------------

    def taint_of(self, node: ast.AST | None) -> TaintSet:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Attribute):
            dotted = canonical_name(node, self.mod.aliases)
            if dotted in ATTRIBUTE_SOURCES:
                return frozenset({Taint(KIND_VALUE,
                                        ATTRIBUTE_SOURCES[dotted])})
            # Projecting an attribute yields a different object; the
            # receiver's latent set-ness does not survive it.
            return _drop_set(self.taint_of(node.value))
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        if isinstance(node, (ast.Set,)):
            return self._union(node.elts) | SET_TAINT
        if isinstance(node, ast.SetComp):
            return self._comp_taint(node) | SET_TAINT
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comp_taint(node)
        if isinstance(node, ast.DictComp):
            return (self._comp_taint(node, values=(node.key, node.value)))
        if isinstance(node, (ast.List, ast.Tuple)):
            return self._union(node.elts)
        if isinstance(node, ast.Dict):
            parts = [k for k in node.keys if k is not None] + node.values
            return self._union(parts)
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left) | self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values)
        if isinstance(node, ast.Compare):
            # Membership / equality against a set is order-independent.
            return _drop_set(self.taint_of(node.left)
                             | self._union(node.comparators))
        if isinstance(node, ast.IfExp):
            return (self.taint_of(node.body) | self.taint_of(node.orelse)
                    | self.taint_of(node.test))
        if isinstance(node, ast.JoinedStr):
            return self._union([v.value for v in node.values
                                if isinstance(v, ast.FormattedValue)])
        if isinstance(node, ast.Subscript):
            # Sets are not subscriptable, so the receiver proved itself
            # order-addressed; latent set-ness is dropped.
            return (_drop_set(self.taint_of(node.value))
                    | self.taint_of(node.slice))
        if isinstance(node, ast.Starred):
            return _activate_order(self.taint_of(node.value))
        if isinstance(node, ast.NamedExpr):
            taint = self.taint_of(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = taint
            return taint
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return EMPTY

    def _union(self, nodes: list[ast.AST] | list[ast.expr]) -> TaintSet:
        taint: TaintSet = EMPTY
        for node in nodes:
            taint = taint | self.taint_of(node)
        return taint

    def _comp_taint(self, node: ast.AST,
                    values: tuple[ast.AST, ...] | None = None) -> TaintSet:
        taint: TaintSet = EMPTY
        for comp in node.generators:
            iter_taint = _activate_order(self.taint_of(comp.iter))
            for name in ast.walk(comp.target):
                if isinstance(name, ast.Name):
                    self.env[name.id] = iter_taint
            taint = taint | iter_taint
        if values is None:
            values = (node.elt,)
        for value in values:
            taint = taint | self.taint_of(value)
        return taint

    # -- calls ---------------------------------------------------------

    def _arg_taints(self, call: ast.Call) -> list[tuple[str | None,
                                                        TaintSet]]:
        """(keyword-or-None, taint) for every argument, in order."""
        pairs: list[tuple[str | None, TaintSet]] = []
        for arg in call.args:
            pairs.append((None, self.taint_of(arg)))
        for keyword in call.keywords:
            pairs.append((keyword.arg, self.taint_of(keyword.value)))
        return pairs

    def _record_sink(self, call: ast.Call, label: str, taints: TaintSet,
                     via: str = "") -> None:
        concrete = sorted({t.reason for t in taints
                           if t.kind in (KIND_VALUE, KIND_ORDER)})
        params = {int(t.reason) for t in taints if t.kind == KIND_PARAM}
        if concrete:
            key = (call.lineno, call.col_offset, label)
            self.sink_hits[key] = SinkHit(
                relpath=self.symbol.relpath, line=call.lineno,
                col=call.col_offset, sink=label,
                reasons=tuple(concrete), function=self.symbol.display,
                via=via)
        for index in params:
            self.param_sinks.setdefault(index, set()).add(label)

    def _summary_call(self, call: ast.Call, callee: FunctionSymbol,
                      summary: "FunctionSummary",
                      pairs: list[tuple[str | None, TaintSet]]) -> TaintSet:
        """Apply a project callee's summary at this call site."""
        callee_params = _param_names(callee)
        offset = 1 if callee.class_name is not None and _is_method_call(
            call) else 0
        by_index: dict[int, TaintSet] = {}
        spilled: TaintSet = EMPTY
        position = offset
        for keyword, taint in pairs:
            if keyword is None:
                by_index[position] = by_index.get(position, EMPTY) | taint
                position += 1
            elif keyword in callee_params:
                index = callee_params.index(keyword)
                by_index[index] = by_index.get(index, EMPTY) | taint
            else:
                spilled = spilled | taint
        result = set(summary.intrinsic_return)
        for index in summary.param_to_return:
            result.update(by_index.get(index, EMPTY))
            result.update(spilled)
        for index, labels in summary.param_to_sink.items():
            incoming = by_index.get(index, EMPTY) | spilled
            if incoming:
                for label in sorted(labels):
                    self._record_sink(call, label, incoming,
                                      via=callee.display)
        return frozenset(result)

    def _pattern_sinks(self, call: ast.Call, canonical: str | None,
                       pairs: list[tuple[str | None, TaintSet]],
                       arg_taint: TaintSet) -> None:
        """Structural sink checks (run whether or not the callee resolved)."""
        simple: str | None = None
        if isinstance(call.func, ast.Attribute):
            simple = call.func.attr
        elif isinstance(call.func, ast.Name):
            simple = call.func.id
        if simple in SINK_METHODS:
            label, positions, keywords = SINK_METHODS[simple]
            checked: TaintSet = EMPTY
            position = 0
            for keyword, taint in pairs:
                if positions is None:
                    checked = checked | taint
                elif keyword is None:
                    if position in positions:
                        checked = checked | taint
                    position += 1
                elif keyword in keywords:
                    checked = checked | taint
            if checked:
                self._record_sink(call, label, checked)
        if simple in SINK_CALLS and arg_taint:
            label, names = SINK_CALLS[simple]
            if canonical in names:
                self._record_sink(call, label, arg_taint)

    def _taint_of_call(self, call: ast.Call) -> TaintSet:
        canonical = canonical_name(call.func, self.mod.aliases)
        source = _source_taint(canonical, call)
        if source:
            # Arguments may still flow through (rare for real sources).
            return source

        pairs = self._arg_taints(call)
        arg_taint: TaintSet = EMPTY
        for _, taint in pairs:
            arg_taint = arg_taint | taint
        self._pattern_sinks(call, canonical, pairs, arg_taint)

        callee = self.table.resolve_call(self.mod, self.symbol.class_name,
                                         call)
        if callee is not None and callee.qualname in self.summaries:
            return self._summary_call(call, callee,
                                      self.summaries[callee.qualname],
                                      pairs)

        func_taint = (self.taint_of(call.func.value)
                      if isinstance(call.func, ast.Attribute) else EMPTY)
        combined = arg_taint | func_taint
        if canonical in ORDER_SANITIZERS:
            return frozenset(t for t in combined
                             if t.kind not in (KIND_ORDER, KIND_SET))
        if canonical in SET_CONSTRUCTORS:
            return _drop_set(combined) | SET_TAINT
        if canonical in ITERATING_BUILTINS:
            return _activate_order(combined)
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            # ``sep.join(s)`` serialises iteration order; ``s.pop()``
            # with no argument removes an arbitrary element.
            if attr == "join" or (attr == "pop" and not call.args):
                return _activate_order(combined)
        return combined

    # -- statements ----------------------------------------------------

    def _assign_target(self, target: ast.AST, taint: TaintSet) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, taint)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, taint)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                self.env[base.id] = self.env.get(base.id, EMPTY) | taint

    def visit_Assign(self, node: ast.Assign) -> None:
        taint = self.taint_of(node.value)
        for target in node.targets:
            self._assign_target(target, taint)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assign_target(node.target, self.taint_of(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        taint = self.taint_of(node.value)
        if isinstance(node.target, ast.Name):
            taint = taint | self.env.get(node.target.id, EMPTY)
        self._assign_target(node.target, taint)

    def visit_Return(self, node: ast.Return) -> None:
        self.return_taint.update(self.taint_of(node.value))

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        # `x.sort()` launders order taint in place.
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "sort"
                and isinstance(value.func.value, ast.Name)):
            name = value.func.value.id
            self.env[name] = frozenset(
                t for t in self.env.get(name, EMPTY)
                if t.kind not in (KIND_ORDER, KIND_SET))
            return
        self.taint_of(value)

    def visit_For(self, node: ast.For) -> None:
        self._assign_target(node.target,
                            _activate_order(self.taint_of(node.iter)))
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit_For(node)  # type: ignore[arg-type]

    def visit_While(self, node: ast.While) -> None:
        self.taint_of(node.test)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_If(self, node: ast.If) -> None:
        self.taint_of(node.test)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            taint = self.taint_of(item.context_expr)
            if item.optional_vars is not None:
                self._assign_target(item.optional_vars, taint)
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self.visit_With(node)  # type: ignore[arg-type]

    def visit_Try(self, node: ast.Try) -> None:
        for stmt in (node.body + node.orelse + node.finalbody):
            self.visit(stmt)
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)

    def visit_Match(self, node: ast.AST) -> None:  # pragma: no cover
        for case in node.cases:
            for stmt in case.body:
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs: analyse the body in the enclosing environment
        # (closures read outer locals); their params start clean.
        for arg in node.args.posonlyargs + node.args.args:
            self.env.setdefault(arg.arg, EMPTY)
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.expr):
            self.taint_of(node)
        else:
            super().generic_visit(node)


def _param_names(symbol: FunctionSymbol) -> list[str]:
    args = symbol.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _is_method_call(call: ast.Call) -> bool:
    """Whether the call goes through an instance (skipping ``self``)."""
    return (isinstance(call.func, ast.Attribute)
            and not (isinstance(call.func.value, ast.Name)
                     and call.func.value.id == "cls"))


def analyze_function(symbol: FunctionSymbol, table: SymbolTable,
                     summaries: Mapping[str, "FunctionSummary"]
                     ) -> tuple["FunctionSummary", list[SinkHit]]:
    """Analyse one function body against the current summaries.

    Returns the function's (possibly updated) summary and the concrete
    sink hits observed inside it.
    """
    from repro.analysis.semantic.summaries import FunctionSummary

    analysis = _FunctionTaint(symbol, table, summaries)
    analysis.run()
    param_to_return = frozenset(
        int(t.reason) for t in analysis.return_taint
        if t.kind == KIND_PARAM)
    intrinsic = frozenset(t for t in analysis.return_taint
                          if t.kind != KIND_PARAM)
    param_to_sink = {index: frozenset(labels)
                     for index, labels in sorted(
                         analysis.param_sinks.items())}
    summary = FunctionSummary(
        param_to_return=param_to_return,
        intrinsic_return=intrinsic,
        param_to_sink=param_to_sink)
    hits = sorted(analysis.sink_hits.values(),
                  key=lambda h: (h.relpath, h.line, h.col, h.sink))
    return summary, hits
