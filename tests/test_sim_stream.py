"""Streaming timeline machinery: rollups and the spill writer.

Covers the two fleet-scale primitives in :mod:`repro.sim`:
hierarchical :class:`TimelineRollup` aggregates (associative merges,
ledger equivalence, row round-trips) and the bounded-memory
:class:`StreamingLedgerWriter` JSONL spill, plus the typed errors both
JSONL readers (spill rows and ledger traces) raise for malformed rows.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    FLASH_BUSY,
    PACKET_RX,
    PACKET_TX,
    RollupBin,
    StreamingLedgerWriter,
    Timeline,
    TimelineRollup,
    from_jsonl,
    read_jsonl_records,
)


def _sample_timeline(offset: float = 0.0, events: int = 5) -> Timeline:
    timeline = Timeline()
    timeline.advance_to(offset)
    for index in range(events):
        timeline.record(PACKET_RX, "node_radio", label=f"seq={index}",
                        duration_s=0.25, power_w=0.04)
        timeline.record(PACKET_TX, "node_radio", duration_s=0.05,
                        power_w=0.12)
    return timeline


# -- rollups ---------------------------------------------------------------


def test_rollup_aggregates_and_queries():
    rollup = TimelineRollup()
    rollup.add(PACKET_RX, "node_radio", count=3, time_s=0.75,
               energy_j=0.03)
    rollup.add(PACKET_RX, "node_radio", count=2, time_s=0.5,
               energy_j=0.02)
    rollup.add(PACKET_TX, "node_radio", count=1, time_s=0.05)
    assert rollup.count(PACKET_RX) == 5
    assert rollup.time_s(PACKET_RX) == pytest.approx(1.25)
    assert rollup.count(PACKET_RX, "node_radio") == 5
    assert rollup.count(PACKET_RX, "flash") == 0
    assert rollup.total_events == 6
    assert rollup.by_kind() == {PACKET_RX: 5, PACKET_TX: 1}


def test_rollup_matches_ledger_replay():
    timeline = _sample_timeline()
    rollup = TimelineRollup.from_timeline(timeline)
    assert rollup.count(PACKET_RX) == timeline.count(kinds={PACKET_RX})
    assert rollup.time_s(PACKET_RX) \
        == timeline.time_s(kinds={PACKET_RX})
    assert rollup.total_energy_j == pytest.approx(
        timeline.total_energy_j())
    assert rollup.total_events == len(timeline)


def test_rollup_merge_is_associative_in_fixed_order():
    parts = [TimelineRollup.from_timeline(_sample_timeline(events=n))
             for n in (3, 5, 7)]
    merged = TimelineRollup()
    for part in parts:
        merged.merge(part)
    whole = TimelineRollup()
    for part in parts:
        for (kind, component), cell in part.bins.items():
            whole.add(kind, component, count=cell.count,
                      time_s=cell.time_s, energy_j=cell.energy_j)
    assert merged == whole
    assert merged.total_events == 2 * (3 + 5 + 7)


def test_rollup_rows_round_trip():
    rollup = TimelineRollup.from_timeline(_sample_timeline())
    rollup.add(FLASH_BUSY, "flash", count=2, time_s=0.01, energy_j=0.001)
    rebuilt = TimelineRollup.from_rows(rollup.to_rows())
    assert rebuilt == rollup
    with pytest.raises(ConfigurationError):
        TimelineRollup.from_rows([{"record": "node"}])


_EVENT = {"record": "event", "t_start_s": 0.0, "duration_s": 0.25,
          "kind": PACKET_RX, "component": "node_radio", "label": "",
          "power_w": 0.04, "energy_override_j": None, "advanced": True}
_ROLLUP = {"record": "rollup", "kind": PACKET_RX, "component": "node_radio",
           "count": 2, "time_s": 0.5, "energy_j": 0.02}


def _trace(row) -> str:
    """A one-event trace whose event line is ``row``."""
    header = {"record": "timeline", "now_s": 1.0, "events": 1}
    line = row if isinstance(row, str) else json.dumps(row)
    return json.dumps(header) + "\n" + line + "\n"


def _without(row: dict, name: str) -> dict:
    return {key: value for key, value in row.items() if key != name}


MALFORMED = {
    "event-without-t_start_s":
        (lambda: from_jsonl(_trace(_without(_EVENT, "t_start_s"))),
         "'t_start_s'"),
    "non-json-line": (lambda: from_jsonl(_trace("{not json")), "not json"),
    "top-level-array": (lambda: from_jsonl("[1, 2]\n"), "JSON object"),
    "string-t_start_s":
        (lambda: from_jsonl(_trace({**_EVENT, "t_start_s": "0.0"})),
         "'t_start_s'"),
    "rollup-without-energy_j":
        (lambda: TimelineRollup.from_rows([_without(_ROLLUP, "energy_j")]),
         "'energy_j'"),
    "rollup-count-not-a-number":
        (lambda: TimelineRollup.from_rows([{**_ROLLUP, "count": "abc"}]),
         "'count'"),
    "non-object-rollup-row":
        (lambda: TimelineRollup.from_rows([[1, 2]]), "rollup row"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_ledger_readers_raise_typed_errors_for_malformed_rows(case):
    read, match = MALFORMED[case]
    with pytest.raises(ConfigurationError, match=match):
        read()


def test_rollup_rejects_negative_input():
    rollup = TimelineRollup()
    with pytest.raises(ConfigurationError):
        rollup.add(PACKET_RX, "node_radio", count=-1)
    with pytest.raises(ConfigurationError):
        rollup.add(PACKET_RX, "node_radio", time_s=-0.5)
    assert RollupBin(1, 0.5, 0.01) == RollupBin(1, 0.5, 0.01)
    assert RollupBin(1, 0.5, 0.01) != RollupBin(2, 0.5, 0.01)


# -- streaming spill -------------------------------------------------------


def test_streaming_writer_bounds_resident_rows(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with StreamingLedgerWriter(path, buffer_rows=8) as writer:
        for index in range(100):
            writer.write_row({"record": "node", "node": index})
        assert writer.max_buffered <= 8
    rows = list(read_jsonl_records(path))
    assert writer.rows_written == 100
    assert [row["node"] for row in rows] == list(range(100))


def test_streaming_writer_rejects_use_after_close(tmp_path):
    writer = StreamingLedgerWriter(tmp_path / "x.jsonl")
    writer.write_row({"record": "a"})
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(ConfigurationError):
        writer.write_row({"record": "b"})
    with pytest.raises(ConfigurationError):
        StreamingLedgerWriter(tmp_path / "y.jsonl", buffer_rows=0)


def test_reader_rejects_non_object_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "ok"}\n[1, 2, 3]\n')
    with pytest.raises(ConfigurationError):
        list(read_jsonl_records(path))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_reader_rejects_non_finite_numbers(tmp_path, token):
    # RFC 8259 has no NaN or Infinity; Python's json module accepts them
    # unless told otherwise.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "ok", "energy_j": 1.0}\n'
                    f'{{"record": "node", "energy_j": {token}}}\n')
    rows = read_jsonl_records(path)
    assert next(rows)["energy_j"] == 1.0
    with pytest.raises(ConfigurationError):
        next(rows)


def test_write_lines_keeps_the_bound_and_the_order(tmp_path):
    path = tmp_path / "ledger.jsonl"
    buffer_rows = 8
    written = 0
    with StreamingLedgerWriter(path, buffer_rows=buffer_rows) as writer:
        for size in (1, buffer_rows - 1, buffer_rows, buffer_rows, 1,
                     buffer_rows - 1):
            writer.write_row({"record": "row", "n": written})
            written += 1
            writer.write_lines([json.dumps({"record": "line", "n": n})
                                for n in range(written, written + size)])
            written += size
            assert writer.max_buffered <= buffer_rows
    lines = path.read_text().splitlines()
    assert writer.rows_written == len(lines) == written
    assert writer.max_buffered == buffer_rows
    assert [row["n"] for row in read_jsonl_records(path)] \
        == list(range(written))


def test_write_lines_rejects_oversized_batches_and_use_after_close(
        tmp_path):
    writer = StreamingLedgerWriter(tmp_path / "x.jsonl", buffer_rows=4)
    with pytest.raises(ConfigurationError):
        writer.write_lines(['{"record": "a"}'] * 5)
    writer.write_lines(['{"record": "a"}'] * 4)
    assert writer.max_buffered == 4
    writer.close()
    with pytest.raises(ConfigurationError):
        writer.write_lines(['{"record": "b"}'])
    assert writer.rows_written == 4

