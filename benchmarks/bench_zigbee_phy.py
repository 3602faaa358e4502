"""Supporting claim: tinySDR's 4 MHz bandwidth covers ZigBee (Table 1).

The AT86RF215 carries a built-in O-QPSK modem; our from-scratch
802.15.4 PHY runs at 2 Mchip/s inside the platform's 4 MHz interface.
This bench measures its frame error rate against RSSI and checks the
DSSS processing gain puts sensitivity in the -97 dBm class of
commercial 802.15.4 radios.
"""

import numpy as np
from _report import format_table, publish

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.errors import DemodulationError
from repro.phy.oqpsk.frame import Ieee802154Frame, Ieee802154Transceiver

RSSI_SWEEP = [-90.0, -94.0, -97.0, -100.0, -103.0, -106.0, -109.0, -112.0]
FRAMES_PER_POINT = 15
COMMERCIAL_SENSITIVITY_DBM = -97.0


def run_zigbee(rng):
    transceiver = Ieee802154Transceiver(samples_per_chip=2)
    frame = Ieee802154Frame(psdu=b"zigbee sensitivity frame")
    waveform = transceiver.transmit(frame)
    budget = LinkBudget(bandwidth_hz=transceiver.modulator.sample_rate_hz,
                        noise_figure_db=6.0)
    results = []
    for rssi in RSSI_SWEEP:
        errors = 0
        for _ in range(FRAMES_PER_POINT):
            stream = receive([ReceivedSignal(waveform, rssi)], budget,
                             rng, num_samples=waveform.size)
            try:
                received = transceiver.receive(stream)
                ok = received.crc_ok and received.psdu == frame.psdu
            except DemodulationError:
                ok = False
            errors += int(not ok)
        results.append((rssi, errors / FRAMES_PER_POINT))
    return results


def test_zigbee_phy_sensitivity(benchmark, rng):
    results = benchmark.pedantic(run_zigbee, args=(rng,), rounds=1,
                                 iterations=1)
    rows = [[f"{rssi:.0f}", f"{fer * 100:.0f}%"] for rssi, fer in results]
    publish("zigbee_phy", format_table(
        "802.15.4 O-QPSK frame error rate vs RSSI (2 Mchip/s DSSS)",
        ["RSSI (dBm)", "FER"], rows))

    qualifying = [rssi for rssi, fer in results if fer <= 0.1]
    sensitivity = min(qualifying)
    # Commercial-class sensitivity (CC2650 datasheet: -97 dBm at 1% PER).
    assert sensitivity <= COMMERCIAL_SENSITIVITY_DBM + 2.0
    # Waterfall shape.
    assert results[0][1] == 0.0
    assert results[-1][1] > 0.5
