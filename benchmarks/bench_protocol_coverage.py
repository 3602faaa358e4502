"""Supporting claim: tinySDR's 4 MHz bandwidth covers the IoT protocols.

Table 1 and section 2 claim the platform supports "LoRa, SIGFOX, LTE-M,
NB-IoT, ZigBee and Bluetooth" within its 4 MHz of bandwidth.  This bench
checks the bandwidth arithmetic for all six and runs an *actual PHY
round-trip* for every protocol this repository implements end to end
(LoRa, BLE, ZigBee/802.15.4, Sigfox-class UNB).
"""

import numpy as np
from _report import format_table, publish

from repro.channel.awgn import awgn
from repro.phy.ble.gfsk import GfskDemodulator, GfskModulator
from repro.phy.ble.packet import AdvPacket, bits_to_bytes_lsb_first
from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams
from repro.phy.oqpsk.frame import Ieee802154Frame, Ieee802154Transceiver
from repro.phy.unb.dbpsk import UnbDemodulator, UnbFrame, UnbModulator
from repro.platforms.catalog import (
    IOT_PROTOCOL_BANDWIDTHS_HZ,
    get_platform,
    supports_protocol,
)

PLATFORM_BANDWIDTH_HZ = 4e6


def run_roundtrips(rng):
    results = {}

    lora = LoRaParams(8, 125e3)
    decoded = LoRaDemodulator(lora).receive(
        awgn(LoRaModulator(lora).modulate(b"lora"), 5.0, rng))
    results["LoRa"] = decoded.payload == b"lora" and decoded.crc_ok

    packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"ble")
    bits = packet.air_bits(37)
    wave = GfskModulator().modulate(np.asarray(bits))
    decided = GfskDemodulator().demodulate(awgn(wave, 20.0, rng),
                                           bits.size)
    results["Bluetooth"] = bits_to_bytes_lsb_first(decided) == \
        packet.air_bytes(37)

    transceiver = Ieee802154Transceiver()
    frame = Ieee802154Frame(psdu=b"zigbee")
    received = transceiver.receive(
        awgn(transceiver.transmit(frame), 3.0, rng))
    results["ZigBee"] = received.crc_ok and received.psdu == b"zigbee"

    unb = UnbFrame(device_id=1, payload=b"sfx")
    unb_bits = unb.to_bits()
    unb_wave = UnbModulator().modulate(unb_bits)
    unb_rx = UnbDemodulator().demodulate(awgn(unb_wave, 15.0, rng),
                                         unb_bits.size)
    results["Sigfox"] = UnbFrame.from_bits(unb_rx) == unb
    return results


def test_protocol_coverage(benchmark, rng):
    roundtrips = benchmark.pedantic(run_roundtrips, args=(rng,), rounds=1,
                                    iterations=1)
    tinysdr = get_platform("TinySDR")
    rows = []
    for protocol, bandwidth in IOT_PROTOCOL_BANDWIDTHS_HZ.items():
        verified = roundtrips.get(protocol)
        rows.append([
            protocol,
            f"{bandwidth / 1e3:g} kHz",
            "yes" if supports_protocol(tinysdr, protocol) else "no",
            {True: "PASS", False: "FAIL", None: "bandwidth check only"}
            [verified],
        ])
    publish("protocol_coverage", format_table(
        "Protocol coverage within tinySDR's 4 MHz (Table 1 claim)",
        ["Protocol", "Needs", "Fits in 4 MHz", "PHY round-trip"], rows))

    # Every protocol the paper names fits the platform bandwidth.
    for protocol in IOT_PROTOCOL_BANDWIDTHS_HZ:
        assert supports_protocol(tinysdr, protocol), protocol
        assert IOT_PROTOCOL_BANDWIDTHS_HZ[protocol] <= \
            PLATFORM_BANDWIDTH_HZ
    # Every implemented PHY round-trips.
    assert all(roundtrips.values()), roundtrips
