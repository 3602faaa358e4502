"""Trace exporters for the simulation timeline.

Two formats:

* **JSONL** — one JSON object per line (a ``timeline`` header followed
  by one ``event`` row per ledger entry).  Loss-free: :func:`from_jsonl`
  reconstructs an equal :class:`Timeline`, so traces can be archived
  with benchmark results and re-queried later.
* **Chrome ``trace_event``** — the ``{"traceEvents": [...]}`` document
  ``chrome://tracing`` / Perfetto load.  Components map to threads and
  every interval becomes a complete (``"ph": "X"``) event, which renders
  a campaign as a flame-style lane chart: radio packets, MCU
  decompression and FPGA boots each on their own lane.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.sim.events import SimEvent
from repro.sim.stream import NUMBER, parse_jsonl_line, record_fields
from repro.sim.timeline import Timeline

_HEADER_RECORD = "timeline"
_EVENT_RECORD = "event"

_HEADER_FIELDS = {"now_s": NUMBER, "events": (int,)}
_EVENT_FIELDS = {"t_start_s": NUMBER, "duration_s": NUMBER,
                 "kind": (str,), "component": (str,), "label": (str,),
                 "power_w": (*NUMBER, type(None)),
                 "energy_override_j": (*NUMBER, type(None)),
                 "advanced": (bool,)}
_EVENT_DEFAULTS = {"label": "", "advanced": False}

MICROSECONDS_PER_SECOND = 1e6
"""Chrome trace timestamps are microseconds."""


# -- JSONL ------------------------------------------------------------------

def _event_to_dict(event: SimEvent) -> dict:
    return {
        "record": _EVENT_RECORD,
        "t_start_s": event.t_start_s,
        "duration_s": event.duration_s,
        "kind": event.kind,
        "component": event.component,
        "label": event.label,
        "power_w": event.power_w,
        "energy_override_j": event.energy_override_j,
        "advanced": event.advanced,
    }


def to_jsonl(timeline: Timeline) -> str:
    """Serialize a timeline as JSON Lines (header + one row per event)."""
    lines = [json.dumps({"record": _HEADER_RECORD,
                         "now_s": timeline.now_s,
                         "events": len(timeline)})]
    lines.extend(json.dumps(_event_to_dict(event)) for event in timeline)
    return "\n".join(lines) + "\n"


def write_jsonl(timeline: Timeline, path: str | Path) -> Path:
    """Write the JSONL serialization to ``path``."""
    target = Path(path)
    target.write_text(to_jsonl(timeline), encoding="utf-8")
    return target


def from_jsonl(text: str) -> Timeline:
    """Reconstruct a timeline from its JSONL serialization.

    Raises:
        ConfigurationError: for a line that is not a JSON object, a
            missing/invalid header, an event row with a missing or
            ill-typed field (naming it), or fewer or more rows than the
            header's count (a truncated trace).
    """
    rows = [parse_jsonl_line(line) for line in text.splitlines()
            if line.strip()]
    if not rows:
        raise ConfigurationError("empty timeline serialization")
    header = record_fields(rows[0], _HEADER_RECORD, _HEADER_FIELDS)
    if header["events"] != len(rows) - 1:
        raise ConfigurationError(
            f"timeline header counts {header['events']!r} events, "
            f"found {len(rows) - 1} rows")
    timeline = Timeline()
    for row in rows[1:]:
        timeline._append(SimEvent(**record_fields(
            row, _EVENT_RECORD, _EVENT_FIELDS, _EVENT_DEFAULTS)))
    timeline.advance_to(float(header["now_s"]))
    return timeline


# -- Chrome trace_event -----------------------------------------------------

def to_chrome_trace(timeline: Timeline) -> dict:
    """Render the ledger as a Chrome ``trace_event`` document.

    Components become threads (one lane each in the viewer); every
    event becomes a complete ``"X"`` slice carrying its kind, power and
    energy in ``args``.  Zero-duration markers are emitted as instant
    ``"i"`` events so delivered-fragment and failure marks stay visible.
    """
    components = timeline.components()
    tids = {component: index + 1
            for index, component in enumerate(components)}
    trace_events: list[dict] = [
        {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
         "args": {"name": component}}
        for component, tid in tids.items()]
    for event in timeline:
        base = {
            "name": event.label or event.kind,
            "cat": event.kind,
            "pid": 0,
            "tid": tids[event.component],
            "ts": event.t_start_s * MICROSECONDS_PER_SECOND,
            "args": {
                "kind": event.kind,
                "power_w": event.power_w,
                "energy_j": event.energy_j,
                "advanced": event.advanced,
            },
        }
        if event.duration_s > 0:
            base["ph"] = "X"
            base["dur"] = event.duration_s * MICROSECONDS_PER_SECOND
        else:
            base["ph"] = "i"
            base["s"] = "t"
        trace_events.append(base)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(timeline: Timeline, path: str | Path) -> Path:
    """Write the Chrome trace JSON document to ``path``."""
    target = Path(path)
    target.write_text(json.dumps(to_chrome_trace(timeline)),
                      encoding="utf-8")
    return target
