"""Fixture: REPRO011 true negatives."""

from repro.ota.fleet import FleetReport

DWELL_S = 0.5


def log_latency(timeline, dwell_s=DWELL_S):
    timeline.record("rx_window", duration_s=dwell_s)


def pick_channel(timeline, channels):
    active = {name for name in channels}
    chosen = sorted(active)[0]
    timeline.record("hop", label=chosen)


def classify(timeline, kind):
    allowed = {"lora", "fsk"}
    flag = 1.0 if kind in allowed else 0.0
    timeline.record("classify", duration_s=flag)


def count_active(timeline, kinds, events):
    dwell = sum(1 for event in events if event.kind in kinds)
    timeline.record("dwell", duration_s=dwell)


def build_report(config, arrays, rollup):
    return FleetReport(config, rollup=rollup, **arrays)
