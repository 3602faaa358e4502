"""Section 6, packet level: full concurrent packets on an endpoint.

The paper's research study demodulates concurrent chirp *symbols*
(Fig. 15); the natural end-to-end question is whether two complete
packets - preambles, sync, headers, payloads, CRCs - survive full
overlap.  This bench transmits overlapping SF8/BW125 and SF8/BW250
packets at a range of power levels and reports per-branch packet
success, alongside the endpoint budget (17 % of the FPGA, ~210 mW)
that makes the capability meaningful on an IoT device.
"""

import numpy as np
from _report import format_table, publish

from repro.channel import LinkBudget, ReceivedSignal, receive
from repro.fpga import concurrent_rx_design
from repro.phy.lora import ConcurrentReceiver, LoRaModulator, LoRaParams
from repro.power.pmu import PlatformState, PowerManagementUnit

RSSI_SWEEP = [-100.0, -108.0, -114.0, -118.0, -121.0]
PACKETS_PER_POINT = 8


def run_concurrent_packets(rng):
    receiver = ConcurrentReceiver([LoRaParams(8, 125e3),
                                   LoRaParams(8, 250e3)])
    branch125, branch250 = receiver.branch_params
    mod125 = LoRaModulator(branch125)
    mod250 = LoRaModulator(branch250)
    budget = LinkBudget(bandwidth_hz=receiver.sample_rate_hz)
    results = []
    for rssi in RSSI_SWEEP:
        ok125 = ok250 = 0
        for trial in range(PACKETS_PER_POINT):
            p125 = bytes((trial,)) + b"node-125"
            p250 = bytes((trial,)) + b"node-250"
            w125 = mod125.modulate(p125)
            w250 = mod250.modulate(p250)
            stream = receive(
                [ReceivedSignal(w125, rssi, start_sample=500),
                 ReceivedSignal(w250, rssi, start_sample=800)],
                budget, rng,
                num_samples=max(500 + w125.size, 800 + w250.size) + 4096)
            decoded = receiver.receive_packets(stream)
            ok125 += int(decoded[0] is not None and decoded[0].crc_ok
                         and decoded[0].payload == p125)
            ok250 += int(decoded[1] is not None and decoded[1].crc_ok
                         and decoded[1].payload == p250)
        results.append((rssi, ok125 / PACKETS_PER_POINT,
                        ok250 / PACKETS_PER_POINT))
    return results


def test_concurrent_packet_reception(benchmark, rng):
    results = benchmark.pedantic(run_concurrent_packets, args=(rng,),
                                 rounds=1, iterations=1)
    design = concurrent_rx_design([8, 8])
    pmu = PowerManagementUnit()
    pmu.enter_state(PlatformState.CONCURRENT_RX)
    rows = [[f"{rssi:.0f}", f"{s125 * 100:.0f}%", f"{s250 * 100:.0f}%"]
            for rssi, s125, s250 in results]
    rows.append(["endpoint budget",
                 f"{design.lut_utilization * 100:.0f}% LUTs",
                 f"{pmu.battery_power_w() * 1e3:.0f} mW"])
    publish("concurrent_packets", format_table(
        "Section 6 end-to-end: overlapping packet success vs RSSI",
        ["RSSI (dBm)", "BW125 packets", "BW250 packets"], rows))

    # Comfortable region: everything decodes.
    for rssi, s125, s250 in results[:3]:
        assert s125 == 1.0, rssi
        assert s250 == 1.0, rssi
    # The capability fits the endpoint (the paper's headline for §6).
    assert design.lut_utilization < 0.2
    assert pmu.battery_power_w() < 0.25
