"""Hierarchical timeline rollups and the bounded-memory JSONL spill.

A 20-node campaign can afford a full :class:`~repro.sim.Timeline`
ledger — a few hundred thousand :class:`~repro.sim.events.SimEvent`
objects.  A 100k-node fleet campaign cannot: tens of millions of event
rows would dominate RAM before the first query ran.  This module holds
the two fleet-scale alternatives:

* :class:`TimelineRollup` — the hierarchical aggregate of a ledger:
  per ``(kind, component)`` event counts, busy time and energy.  Rollups
  merge associatively, so per-shard aggregates combine into a campaign
  aggregate without ever materializing the union ledger.
* :class:`StreamingLedgerWriter` — an incremental JSON-Lines writer
  with a bounded in-memory row buffer.  Producers append one row at a
  time, or a batch of pre-serialized lines; the buffer drains to disk
  every ``buffer_rows`` rows, so the resident cost of spilling a
  million-row ledger is a few kilobytes.
  :func:`read_jsonl_records` is the matching generator-based reader.

The spill format follows :mod:`repro.sim.trace`: one JSON object per
line, each carrying a ``record`` tag naming its type.  Every reader of
either format parses a line with :func:`parse_jsonl_line` and reads a
row's fields with :func:`record_fields`, so malformed input raises a
:class:`~repro.errors.ConfigurationError` naming what is wrong.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NoReturn

from repro.errors import ConfigurationError
from repro.sim.timeline import Timeline

DEFAULT_BUFFER_ROWS = 1024
"""Rows buffered in memory before the spill writer drains to disk."""

NUMBER = (int, float)
"""The types a JSON number decodes to (a bool is not one here)."""

_ROLLUP_FIELDS = {"kind": (str,), "component": (str,), "count": (int,),
                  "time_s": NUMBER, "energy_j": NUMBER}


class RollupBin:
    """One cell of a rollup: aggregate of all events sharing a key.

    Attributes:
        count: number of events aggregated.
        time_s: summed event durations.
        energy_j: summed event energies.
    """

    __slots__ = ("count", "time_s", "energy_j")

    def __init__(self, count: int = 0, time_s: float = 0.0,
                 energy_j: float = 0.0) -> None:
        self.count = count
        self.time_s = time_s
        self.energy_j = energy_j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RollupBin):
            return NotImplemented
        return (self.count == other.count
                and self.time_s == other.time_s
                and self.energy_j == other.energy_j)

    def __repr__(self) -> str:
        return (f"RollupBin(count={self.count}, time_s={self.time_s!r}, "
                f"energy_j={self.energy_j!r})")


class TimelineRollup:
    """Per ``(kind, component)`` aggregate of a (possibly virtual) ledger.

    The rollup is the fleet-scale stand-in for a full ledger: it answers
    the questions the replay views answer (how many events of each kind,
    how much busy time, how much energy) without holding the events.
    Merging is associative and order-preserving over float sums only when
    callers keep a fixed merge order — the fleet engine always merges
    shards in shard order, which is what makes its totals shard-count
    invariant.
    """

    def __init__(self) -> None:
        self._bins: dict[tuple[str, str], RollupBin] = {}

    # -- accumulation ------------------------------------------------------

    def add(self, kind: str, component: str, count: int = 1,
            time_s: float = 0.0, energy_j: float = 0.0) -> None:
        """Fold ``count`` events worth of time/energy into one cell.

        Raises:
            ConfigurationError: for negative counts or durations.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if time_s < 0.0:
            raise ConfigurationError(f"time must be >= 0, got {time_s!r}")
        if count == 0 and time_s == 0.0 and energy_j == 0.0:
            return
        cell = self._bins.get((kind, component))
        if cell is None:
            cell = RollupBin()
            self._bins[(kind, component)] = cell
        cell.count += count
        cell.time_s += time_s
        cell.energy_j += energy_j

    def merge(self, other: "TimelineRollup") -> None:
        """Fold another rollup into this one, cell by cell."""
        for (kind, component), cell in other._bins.items():
            self.add(kind, component, count=cell.count,
                     time_s=cell.time_s, energy_j=cell.energy_j)

    @classmethod
    def from_timeline(cls, timeline: Timeline) -> "TimelineRollup":
        """Aggregate a materialized ledger (replayed in append order)."""
        rollup = cls()
        for event in timeline:
            rollup.add(event.kind, event.component,
                       time_s=event.duration_s, energy_j=event.energy_j)
        return rollup

    # -- views -------------------------------------------------------------

    @property
    def bins(self) -> dict[tuple[str, str], RollupBin]:
        """The cells, keyed by ``(kind, component)`` (live view)."""
        return self._bins

    def count(self, kind: str, component: str | None = None) -> int:
        """Events of ``kind`` (for one component, or summed over all)."""
        return sum(cell.count for (k, c), cell in self._bins.items()
                   if k == kind and (component is None or c == component))

    def time_s(self, kind: str, component: str | None = None) -> float:
        """Busy time of ``kind`` (one component, or summed over all)."""
        return sum(cell.time_s for (k, c), cell in self._bins.items()
                   if k == kind and (component is None or c == component))

    def by_kind(self) -> dict[str, int]:
        """Event counts collapsed over components, keyed by kind."""
        totals: dict[str, int] = {}
        for (kind, _), cell in self._bins.items():
            totals[kind] = totals.get(kind, 0) + cell.count
        return totals

    @property
    def total_events(self) -> int:
        """Events aggregated across every cell."""
        return sum(cell.count for cell in self._bins.values())

    @property
    def total_time_s(self) -> float:
        """Busy time aggregated across every cell."""
        return sum(cell.time_s for cell in self._bins.values())

    @property
    def total_energy_j(self) -> float:
        """Energy aggregated across every cell."""
        return sum(cell.energy_j for cell in self._bins.values())

    # -- serialization -----------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Spill rows (``record: "rollup"``), sorted for determinism."""
        return [{"record": "rollup", "kind": kind, "component": component,
                 "count": cell.count, "time_s": cell.time_s,
                 "energy_j": cell.energy_j}
                for (kind, component), cell in sorted(self._bins.items())]

    @classmethod
    def from_rows(cls, rows: Iterable[dict[str, Any]]) -> "TimelineRollup":
        """Rebuild a rollup from its spill rows.

        Raises:
            ConfigurationError: for a row that is not a rollup record,
                or naming a field that is missing or ill-typed.
        """
        rollup = cls()
        for row in rows:
            rollup.add(**record_fields(row, "rollup", _ROLLUP_FIELDS))
        return rollup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimelineRollup):
            return NotImplemented
        return self._bins == other._bins

    def __repr__(self) -> str:
        return (f"<TimelineRollup cells={len(self._bins)} "
                f"events={self.total_events}>")


class StreamingLedgerWriter:
    """Incremental JSONL writer with a bounded in-memory buffer.

    Rows accumulate in a list of pre-serialized lines and drain to the
    underlying file every ``buffer_rows`` rows, so writing a ledger of
    any length keeps O(``buffer_rows``) rows resident.  The writer
    tracks ``rows_written`` and the high-water mark ``max_buffered`` so
    callers (and the fleet benchmark) can assert the bound held.

    Use as a context manager::

        with StreamingLedgerWriter(path) as writer:
            writer.write_row({"record": "node", ...})
    """

    def __init__(self, path: str | Path,
                 buffer_rows: int = DEFAULT_BUFFER_ROWS) -> None:
        if buffer_rows < 1:
            raise ConfigurationError(
                f"buffer_rows must be >= 1, got {buffer_rows}")
        self.path = Path(path)
        self.buffer_rows = buffer_rows
        self.rows_written = 0
        self.max_buffered = 0
        self._buffer: list[str] = []
        self._handle = self.path.open("w", encoding="utf-8")
        self._closed = False

    def write_row(self, record: dict[str, Any]) -> None:
        """Serialize one row; drains the buffer when it fills.

        Raises:
            ConfigurationError: when the writer is already closed.
        """
        self.write_lines([json.dumps(record)])

    def write_rows(self, records: Iterable[dict[str, Any]]) -> None:
        """Write many rows through the same bounded buffer."""
        for record in records:
            self.write_row(record)

    def write_lines(self, lines: list[str]) -> None:
        """Buffer a batch of already-serialized rows (no newlines).

        Rows already buffered drain first when the batch would not fit,
        so at most ``buffer_rows`` rows are ever resident.

        Raises:
            ConfigurationError: when the writer is already closed, or
                the batch is longer than ``buffer_rows``.
        """
        if self._closed:
            raise ConfigurationError("writer is closed")
        if len(lines) > self.buffer_rows:
            raise ConfigurationError(
                f"a batch of {len(lines)} lines exceeds buffer_rows="
                f"{self.buffer_rows}")
        if len(self._buffer) + len(lines) > self.buffer_rows:
            self.flush()
        self._buffer.extend(lines)
        if len(self._buffer) > self.max_buffered:
            self.max_buffered = len(self._buffer)
        if len(self._buffer) >= self.buffer_rows:
            self.flush()

    def flush(self) -> None:
        """Drain the buffer to disk."""
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self.rows_written += len(self._buffer)
            self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._closed = True

    def __enter__(self) -> "StreamingLedgerWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _reject_non_finite(token: str) -> NoReturn:
    raise ValueError(f"non-finite number {token} is not valid JSON "
                     "(RFC 8259)")


def parse_jsonl_line(line: str) -> dict[str, Any]:
    """One JSON Lines row: a JSON object, as RFC 8259 defines JSON.

    Raises:
        ConfigurationError: quoting the line when it is not JSON, holds
            ``NaN``, ``Infinity`` or ``-Infinity``, or is not an object.
    """
    try:
        row = json.loads(line, parse_constant=_reject_non_finite)
    except ValueError as exc:
        raise ConfigurationError(f"{exc}: {line.strip()}") from None
    if not isinstance(row, dict):
        raise ConfigurationError(
            f"expected a JSON object per line, got {row!r}")
    return row


def record_fields(row: Any, record: str,
                  fields: Mapping[str, tuple[type, ...]],
                  defaults: Mapping[str, Any] = MappingProxyType({})
                  ) -> dict[str, Any]:
    """The ``fields`` of a row tagged ``record``, each one of its types.

    An absent field reads as its ``defaults`` value, else as ``None``.

    Raises:
        ConfigurationError: when ``row`` is not an object tagged
            ``record``, or naming a field whose value has another type.
    """
    if not isinstance(row, dict) or row.get("record") != record:
        raise ConfigurationError(f"expected a {record} row, got {row!r}")
    values = {name: row.get(name, defaults.get(name)) for name in fields}
    for name, types in fields.items():
        if not isinstance(values[name], types) \
                or isinstance(values[name], bool) and bool not in types:
            raise ConfigurationError(f"{record} field {name!r} is missing "
                                     f"or ill-typed: {values[name]!r}")
    return values


def read_jsonl_records(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield spill rows one at a time (never loads the whole file).

    Raises:
        ConfigurationError: for a line :func:`parse_jsonl_line` rejects.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield parse_jsonl_line(line)
