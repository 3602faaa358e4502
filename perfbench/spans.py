"""Outside-in tracing: wrappers around the program's public calls.

The tracer patches instance, class or module attributes with wrappers
that record a span per call: name, start, end, parent span and
operation id.  Spans stay in memory; :func:`self_times`,
:func:`stage_table` and :func:`unattributed_share` turn them into
per-stage busy and self time, and :func:`chrome_trace` exports them for
chrome://tracing or Perfetto.  Nothing in the program changes;
uninstalling restores every attribute.
"""

from __future__ import annotations

import time
from typing import Any, Callable

ROOT = "op"
"""Name of the span the benchmark opens around each operation."""

# Span record layout: [name, start, end, parent index (-1: none), op id].
NAME, START, END, PARENT, OP = range(5)

Work = Callable[[tuple, dict, Any], dict[str, float]]
"""Extracts work counts from a call: ``(args, kwargs, result) -> counts``."""


class Tracer:
    """Span recorder with attribute-level install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[tuple[str, str], float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one operation."""
        self._op = op_id
        self._enter(ROOT)

    def end_op(self) -> None:
        """Close the root span opened by :meth:`begin_op`."""
        self._exit(time.perf_counter())

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def _exit(self, end: float) -> None:
        self.spans[self._stack.pop()][END] = end

    def count(self, name: str, counts: dict[str, float]) -> None:
        """Add work counts under a stage name."""
        for key, value in counts.items():
            self.work[(name, key)] = self.work.get((name, key), 0.0) + value

    def wrap(self, name: str, fn: Callable, work: Work | None = None
             ) -> Callable:
        """A wrapper that records a ``name`` span around each ``fn`` call."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(time.perf_counter())
            if work is not None:
                tracer.count(name, work(args, kwargs, result))
            return result

        return traced

    def install(self, target: Any, attr: str, name: str,
                work: Work | None = None) -> None:
        """Replace ``target.attr`` with a traced wrapper.

        ``target`` may be an instance, a class or a module.  An
        attribute the target lacks is left alone and its stage name
        added to :attr:`missing`: the program no longer has that layer
        where the benchmark looks for it, and a traced run that reported
        it as zero would read as the best possible gain.
        """
        if not hasattr(target, attr):
            self.missing.add(name)
            return
        owned = hasattr(target, "__dict__") and attr in vars(target)
        raw = vars(target)[attr] if owned else None
        setattr(target, attr, self.wrap(name, getattr(target, attr), work))
        self._patches.append((target, attr, owned, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            target, attr, owned, raw = self._patches.pop()
            if owned:
                setattr(target, attr, raw)
            else:
                delattr(target, attr)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children nest inside their parent, so subtracting only direct
    children never double-counts a grandchild.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def unattributed_share(spans: list[list]) -> float:
    """Share of the operations' time that no traced stage covers.

    This is the self time of the :data:`ROOT` spans over their total
    duration: the part of each operation spent outside every wrapped
    call.  The named stages' self times sum to the rest.
    """
    total = uncovered = 0.0
    for own, span in zip(self_times(spans), spans):
        if span[NAME] == ROOT:
            total += span[END] - span[START]
            uncovered += own
    return uncovered / total


def stage_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name calls, inclusive time and self time, in seconds.

    Inclusive time counts a name once per outermost call, so recursion
    through the same name is not double-counted.
    """
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span[NAME],
                               {"calls": 0, "inclusive_s": 0.0,
                                "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            row["inclusive_s"] += span[END] - span[START]
    return table


def chrome_trace(spans: list[list], limit: int = 50_000) -> dict:
    """The first ``limit`` spans as a Chrome trace-event document."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = spans[0][START]
    events = [{"name": span[NAME], "ph": "X", "pid": 1, "tid": 1,
               "ts": (span[START] - origin) * 1e6,
               "dur": (span[END] - span[START]) * 1e6,
               "args": {"op": span[OP]}}
              for span in spans[:limit]]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
