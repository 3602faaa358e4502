"""Unit tests for the repro.sim timeline core and trace exporters."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.power.meter import EnergyMeter
from repro.sim import (
    MCU_RUN,
    PACKET_DELIVERED,
    PACKET_RX,
    PACKET_TX,
    SLEEP,
    SimEvent,
    Timeline,
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)


class TestSimEvent:
    def test_energy_prefers_override_then_power(self):
        explicit = SimEvent(0.0, 2.0, PACKET_RX, "radio",
                            power_w=0.5, energy_override_j=0.125)
        assert explicit.energy_j == 0.125
        integrated = SimEvent(0.0, 2.0, PACKET_RX, "radio", power_w=0.5)
        assert integrated.energy_j == 1.0
        unattributed = SimEvent(0.0, 2.0, PACKET_RX, "radio")
        assert unattributed.energy_j == 0.0

    def test_t_end(self):
        event = SimEvent(1.5, 0.25, PACKET_RX, "radio")
        assert event.t_end_s == 1.75

    def test_shifted_translates_and_marks_non_advancing(self):
        event = SimEvent(1.0, 2.0, PACKET_RX, "radio", label="x",
                         power_w=0.1)
        moved = event.shifted(10.0)
        assert moved.t_start_s == 11.0
        assert moved.duration_s == 2.0
        assert moved.advanced is False
        assert moved.label == "x"

    @pytest.mark.parametrize("kwargs", [
        dict(t_start_s=-1.0, duration_s=0.0),
        dict(t_start_s=0.0, duration_s=-0.5),
        dict(t_start_s=0.0, duration_s=1.0, power_w=-2.0),
    ])
    def test_invalid_numbers_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimEvent(kind=PACKET_RX, component="radio", **kwargs)

    def test_empty_kind_or_component_rejected(self):
        with pytest.raises(ConfigurationError):
            SimEvent(0.0, 0.0, "", "radio")
        with pytest.raises(ConfigurationError):
            SimEvent(0.0, 0.0, PACKET_RX, "")


class TestTimelineClock:
    def test_events_are_ordered_and_clock_advances(self):
        timeline = Timeline()
        timeline.record(PACKET_RX, "radio", duration_s=1.0)
        timeline.record(PACKET_TX, "radio", duration_s=0.5)
        timeline.record(SLEEP, "mcu", duration_s=2.0)
        starts = [event.t_start_s for event in timeline]
        assert starts == [0.0, 1.0, 1.5]
        assert timeline.now_s == 3.5

    def test_non_advancing_event_leaves_clock(self):
        timeline = Timeline()
        timeline.record(PACKET_RX, "radio", duration_s=1.0)
        timeline.record(MCU_RUN, "flash", duration_s=5.0, advance=False,
                        t_start_s=0.25)
        assert timeline.now_s == 1.0
        assert timeline.events[-1].t_start_s == 0.25

    def test_advancing_event_rejects_explicit_start(self):
        with pytest.raises(ConfigurationError):
            Timeline().record(PACKET_RX, "radio", duration_s=1.0,
                              t_start_s=5.0)

    def test_advance_to_never_goes_backwards(self):
        timeline = Timeline()
        timeline.advance_to(4.0)
        assert timeline.now_s == 4.0
        with pytest.raises(ConfigurationError):
            timeline.advance_to(3.0)

    @pytest.mark.parametrize("field, call", [
        ("duration_s", lambda t: t.record(SLEEP, "mcu",
                                          duration_s=math.nan)),
        ("duration_s", lambda t: t.record(SLEEP, "mcu",
                                          duration_s=math.inf)),
        ("power_w", lambda t: t.record(SLEEP, "mcu", power_w=math.nan)),
        ("energy_override_j", lambda t: t.record(
            SLEEP, "mcu", energy_override_j=math.nan)),
        ("energy_override_j", lambda t: t.record(
            SLEEP, "mcu", energy_override_j=-1.0)),
        ("t_start_s", lambda t: t.record(SLEEP, "mcu", t_start_s=math.nan,
                                         advance=False)),
        ("time_s", lambda t: t.advance_to(math.nan)),
        ("time_s", lambda t: t.advance_to(math.inf)),
    ], ids=["duration-nan", "duration-inf", "power-nan", "energy-nan",
            "energy-negative", "start-nan", "advance-nan", "advance-inf"])
    def test_non_finite_or_negative_values_rejected(self, field, call):
        timeline = Timeline()
        with pytest.raises(ConfigurationError, match=field):
            call(timeline)
        assert timeline.now_s == 0.0 and len(timeline) == 0

    def test_merge_splices_shifted_non_advancing_copies(self):
        session = Timeline()
        session.record(PACKET_RX, "radio", duration_s=1.0)
        session.record(PACKET_DELIVERED, "radio")
        campaign = Timeline()
        campaign.advance_to(100.0)
        campaign.merge(session, offset_s=100.0)
        assert campaign.now_s == 100.0
        assert [event.t_start_s for event in campaign] == [100.0, 101.0]
        assert all(not event.advanced for event in campaign)


class TestTimelineViews:
    @pytest.fixture()
    def timeline(self):
        timeline = Timeline()
        timeline.record(PACKET_RX, "radio", duration_s=1.0, power_w=0.04)
        timeline.record(PACKET_TX, "radio", duration_s=0.5, power_w=0.12)
        timeline.record(MCU_RUN, "mcu", duration_s=2.0, power_w=0.0145)
        timeline.record(MCU_RUN, "flash", duration_s=3.0, advance=False,
                        t_start_s=0.0, energy_override_j=0.5)
        return timeline

    def test_time_filters(self, timeline):
        assert timeline.time_s() == 6.5
        assert timeline.time_s(advancing_only=True) == 3.5
        assert timeline.time_s(kinds={PACKET_RX, PACKET_TX}) == 1.5
        assert timeline.time_s(component="mcu") == 2.0
        assert timeline.time_s(since=2) == 5.0

    def test_energy_views(self, timeline):
        assert timeline.energy_j(component="radio") \
            == 1.0 * 0.04 + 0.5 * 0.12
        assert timeline.energy_j(kinds={MCU_RUN}, component="flash") == 0.5
        assert timeline.total_energy_j() == timeline.energy_j()

    def test_count_and_components(self, timeline):
        assert timeline.count(kinds={MCU_RUN}) == 2
        assert timeline.components() == ("radio", "mcu", "flash")
        assert len(timeline) == 4

    def test_by_component_maps(self, timeline):
        assert timeline.time_by_component() == {
            "radio": 1.5, "mcu": 2.0, "flash": 3.0}
        energy = timeline.energy_by_component()
        assert energy["flash"] == 0.5

    def test_checkpoint_scopes_queries(self, timeline):
        mark = timeline.checkpoint()
        timeline.record(SLEEP, "mcu", duration_s=10.0)
        assert timeline.time_s(since=mark) == 10.0

    def test_energy_view_matches_meter(self):
        timeline = Timeline()
        meter = EnergyMeter(timeline)
        meter.record("active", 0.0145, 0.2)
        meter.record("sleep", 30e-6, 59.8)
        assert meter.total_energy_j == timeline.total_energy_j()
        assert meter.total_time_s == timeline.now_s


class TestTraceRoundTrip:
    @pytest.fixture()
    def timeline(self):
        timeline = Timeline()
        timeline.record(PACKET_RX, "radio", label="data seq=0",
                        duration_s=0.125, power_w=0.04)
        timeline.record(PACKET_DELIVERED, "radio", label="seq=0")
        timeline.record(MCU_RUN, "flash", duration_s=0.5, advance=False,
                        t_start_s=0.0, energy_override_j=0.25)
        timeline.advance_to(10.0)
        return timeline

    def test_jsonl_round_trip_is_lossless(self, timeline):
        restored = from_jsonl(to_jsonl(timeline))
        assert restored.now_s == timeline.now_s
        assert restored.events == timeline.events

    def test_jsonl_file_round_trip(self, timeline, tmp_path):
        path = write_jsonl(timeline, tmp_path / "trace.jsonl")
        restored = from_jsonl(path.read_text(encoding="utf-8"))
        assert restored.events == timeline.events

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            from_jsonl("")
        with pytest.raises(ConfigurationError):
            from_jsonl(json.dumps({"record": "nope"}))

    def test_from_jsonl_rejects_a_truncated_trace(self, timeline):
        rows = to_jsonl(timeline).splitlines()
        with pytest.raises(ConfigurationError, match="3 events, found 2"):
            from_jsonl("\n".join(rows[:-1]))

    def test_from_jsonl_rejects_a_nan_row(self, timeline):
        text = to_jsonl(timeline).replace('"duration_s": 0.125',
                                          '"duration_s": NaN')
        with pytest.raises(ConfigurationError, match="duration_s"):
            from_jsonl(text)

    def test_chrome_trace_structure(self, timeline, tmp_path):
        document = to_chrome_trace(timeline)
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == {"radio", "flash"}
        assert len(slices) == 2  # the two interval events
        assert len(instants) == 1  # the zero-duration delivery marker
        rx = next(s for s in slices if s["cat"] == PACKET_RX)
        assert rx["ts"] == 0.0
        assert rx["dur"] == 0.125 * 1e6
        assert rx["args"]["energy_j"] == 0.125 * 0.04
        written = write_chrome_trace(timeline, tmp_path / "trace.json")
        assert json.loads(written.read_text(encoding="utf-8")) == document

    def test_components_map_to_stable_thread_ids(self, timeline):
        events = to_chrome_trace(timeline)["traceEvents"]
        tid_by_name = {e["args"]["name"]: e["tid"]
                       for e in events if e["ph"] == "M"}
        assert tid_by_name == {"radio": 1, "flash": 2}
