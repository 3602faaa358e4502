"""Reproduce paper Fig. 13: BLE beacon transmissions across channels.

The envelope-detector view of one advertising event: three beacons on
channels 37/38/39 separated by the platform's 220 us frequency-switch
delay (an iPhone 8 needs ~350 us).  We build the actual event waveform -
three GFSK bursts with silence during hops - and measure the gaps off
the envelope, exactly like the paper's oscilloscope setup.
"""

import numpy as np
from _report import format_table, publish

from repro.dsp.measure import envelope
from repro.phy.ble.channels import (
    IPHONE8_HOP_DELAY_S,
    TINYSDR_HOP_DELAY_S,
    advertising_event,
    beacon_airtime_s,
)
from repro.phy.ble.gfsk import GfskConfig, GfskModulator
from repro.phy.ble.packet import AdvPacket


def run_fig13():
    config = GfskConfig()
    packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"fig13")
    airtime = beacon_airtime_s(len(packet.pdu()))
    schedule = advertising_event(airtime, TINYSDR_HOP_DELAY_S)
    modulator = GfskModulator(config)
    fs = config.sample_rate_hz
    total = int((schedule[-1].start_time_s + airtime) * fs) + 1
    waveform = np.zeros(total, dtype=complex)
    for burst in schedule:
        bits = packet.air_bits(burst.channel)
        samples = modulator.modulate(np.asarray(bits))
        start = int(burst.start_time_s * fs)
        waveform[start:start + samples.size] = samples

    env = envelope(waveform, smoothing_samples=8)
    active = env > 0.5
    edges = np.flatnonzero(np.diff(active.astype(int)))
    # edges alternate: rise, fall, rise, fall...
    gaps = []
    for fall, rise in zip(edges[1::2], edges[2::2]):
        gaps.append((rise - fall) / fs)
    return schedule, gaps


def test_fig13_advertising_hops(benchmark):
    schedule, gaps = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    rows = [[str(burst.channel), f"{burst.frequency_hz / 1e6:.0f} MHz",
             f"{burst.start_time_s * 1e6:.0f} us",
             f"{burst.duration_s * 1e6:.0f} us"] for burst in schedule]
    rows.append(["-", "measured hop gaps",
                 " / ".join(f"{gap * 1e6:.0f} us" for gap in gaps),
                 f"iPhone 8: {IPHONE8_HOP_DELAY_S * 1e6:.0f} us"])
    publish("fig13_ble_hopping", format_table(
        "Fig. 13: BLE Beacons Signal (3 advertising channels)",
        ["Channel", "Frequency", "Start", "Duration"], rows))

    assert [burst.channel for burst in schedule] == [37, 38, 39]
    assert len(gaps) == 2
    for gap in gaps:
        # 220 us within envelope-detector resolution.
        assert abs(gap - TINYSDR_HOP_DELAY_S) < 20e-6
        # Faster than the iPhone 8 comparison point.
        assert gap < IPHONE8_HOP_DELAY_S
