"""Fixture: REPRO011 true positives."""

import os
import time

from repro.ota.fleet import FleetReport


def log_latency(timeline):
    started = time.time()
    timeline.record("rx_window", duration_s=started)


def stamp():
    return time.time()


def relay_stamp(timeline):
    timeline.record("stamp", duration_s=stamp())


def pick_channel(timeline, channels):
    active = {name for name in channels}
    chosen = next(iter(active))
    timeline.record("hop", label=chosen)


def salt_key(cache, node_id):
    salt = os.environ["REPRO_SALT"]
    return cache.get_or_build(f"plan-{node_id}-{salt}", list)


def emit(events):
    events.append(SimEvent(kind="tick", payload=time.time_ns()))


def stamp_report(config, rollup):
    return FleetReport(config, node_ids=time.time_ns(), rollup=rollup)
