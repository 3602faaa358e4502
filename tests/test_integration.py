"""Cross-module integration tests.

Each test exercises a full pipeline the way the deployed system would:
samples crossing the LVDS interface into the demodulator, LoRaWAN frames
riding the LoRa PHY over a noisy channel, OTA updates flowing through
compression, the MAC, flash and FPGA configuration, and duty-cycled
battery-life accounting through the PMU.
"""

import numpy as np
import pytest

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.core.firmware import get_firmware
from repro.core.tinysdr import TinySdr
from repro.fpga.fifo import SampleFifo
from repro.ota.flash import BOOT_OFFSET
from repro.ota.mac import OtaLink
from repro.phy.ble.packet import AdvPacket
from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams
from repro.power.battery import LIPO_1000MAH
from repro.power.meter import duty_cycle_profile
from repro.power.pmu import PlatformState, PowerManagementUnit
from repro.protocols.lorawan.mac import (
    DeviceIdentity,
    LoRaWanDevice,
    NetworkServer,
)
from repro.radio.at86rf215 import At86Rf215
from repro.radio.iqword import (
    bits_to_words,
    find_word_alignment,
    samples_to_words,
    words_to_bits,
    words_to_samples,
)

PARAMS = LoRaParams(8, 125e3)


class TestLvdsToDemodulator:
    def test_packet_survives_word_interface(self, rng):
        """Modulate -> 13-bit I/Q words -> serial bits -> deserialize ->
        demodulate: the paper's full Fig. 4/6 data path."""
        modulator = LoRaModulator(PARAMS)
        payload = b"across the LVDS link"
        waveform = modulator.modulate(payload) * 0.8  # leave ADC headroom
        words = samples_to_words(waveform)
        bits = words_to_bits(words)
        # The deserializer cold-starts misaligned by a few bits.
        stream_bits = np.concatenate(
            [rng.integers(0, 2, 11).astype(np.uint8), bits])
        offset = find_word_alignment(stream_bits)
        recovered = words_to_samples(bits_to_words(stream_bits, offset))
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        stream = receive([ReceivedSignal(recovered, -100.0,
                                         start_sample=600)],
                         budget, rng,
                         num_samples=recovered.size + 3000)
        decoded = LoRaDemodulator(PARAMS).receive(stream)
        assert decoded.payload == payload
        assert decoded.crc_ok is True

    def test_radio_rx_chain_preserves_packet(self, rng):
        """Channel output -> AT86RF215 AGC/ADC -> demodulator."""
        modulator = LoRaModulator(PARAMS)
        payload = b"through the radio"
        waveform = modulator.modulate(payload)
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        stream = receive([ReceivedSignal(waveform, -110.0,
                                         start_sample=1024)],
                         budget, rng, num_samples=waveform.size + 4096)
        radio = At86Rf215()
        radio.wake()
        radio.enter_rx()
        conditioned = radio.receive(stream)
        decoded = LoRaDemodulator(PARAMS).receive(conditioned)
        assert decoded.payload == payload

    def test_fifo_buffers_realtime_burst(self, rng):
        """Samples stream through the 126 kB FIFO without loss."""
        modulator = LoRaModulator(PARAMS)
        waveform = modulator.modulate(b"fifo")
        fifo = SampleFifo()
        for start in range(0, waveform.size, 1000):
            fifo.write(waveform[start:start + 1000])
        buffered = fifo.read(len(fifo))
        assert np.allclose(buffered, waveform)


class TestLoRaWanOverPhy:
    def test_abp_uplink_over_the_air(self, rng):
        """LoRaWAN frame -> LoRa PHY -> AWGN -> PHY -> network server."""
        from repro.protocols.lorawan.frames import SessionKeys
        session = SessionKeys(nwk_skey=bytes(range(16)),
                              app_skey=bytes(range(16, 32)))
        device = LoRaWanDevice(session=session, dev_addr=0x26011001)
        server = NetworkServer()
        server.personalize(0x26011001, session)

        phy_payload = device.uplink(b"temperature=21.5", fport=7)
        modulator = LoRaModulator(PARAMS)
        waveform = modulator.modulate(phy_payload)
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        stream = receive([ReceivedSignal(waveform, -115.0,
                                         start_sample=512)],
                         budget, rng, num_samples=waveform.size + 2048)
        received = LoRaDemodulator(PARAMS).receive(stream)
        assert received.crc_ok is True
        frame = server.handle_uplink(received.payload)
        assert frame.payload == b"temperature=21.5"
        assert frame.fport == 7

    def test_otaa_join_over_the_air(self, rng):
        identity = DeviceIdentity(dev_eui=1, app_eui=2,
                                  app_key=bytes(range(16)))
        server = NetworkServer()
        server.register(identity)
        device = LoRaWanDevice(identity=identity)

        def over_the_air(payload: bytes) -> bytes:
            modulator = LoRaModulator(PARAMS)
            waveform = modulator.modulate(payload)
            budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
            stream = receive(
                [ReceivedSignal(waveform, -100.0, start_sample=512)],
                budget, rng, num_samples=waveform.size + 2048)
            decoded = LoRaDemodulator(PARAMS).receive(stream)
            assert decoded.crc_ok is True
            return decoded.payload

        accept = server.handle_join_request(over_the_air(
            device.start_join(0x77)))
        device.complete_join(over_the_air(accept))
        assert device.activated
        frame = server.handle_uplink(over_the_air(device.uplink(b"hi")))
        assert frame.payload == b"hi"


class TestOtaEndToEnd:
    def test_node_updates_and_runs_new_protocol(self, rng):
        """A LoRa node takes a BLE firmware update over the backbone and
        immediately transmits BLE beacons - the testbed's core loop."""
        node = TinySdr()
        node.load_firmware("lora_modem")
        node.configure_lora(PARAMS)
        node.transmit_lora(b"before update")

        report = node.take_ota_update(
            "ble_beacon", OtaLink(downlink_rssi_dbm=-95.0), rng)
        assert report.transfer.packets_delivered > 0
        installed = node.flash.read(
            BOOT_OFFSET, len(get_firmware("ble_beacon").fpga_bitstream))
        assert installed == get_firmware("ble_beacon").fpga_bitstream

        records = node.transmit_ble_beacons(AdvPacket(bytes(6), b"updated"))
        assert len(records) == 3

    def test_update_energy_fits_battery_budget(self, rng):
        """Paper 5.3: ~2100 LoRa updates (we land within 2x) on 1000 mAh."""
        node = TinySdr()
        node.load_firmware("ble_beacon")
        report = node.take_ota_update(
            "lora_modem", OtaLink(downlink_rssi_dbm=-100.0), rng)
        updates = LIPO_1000MAH.operations_supported(report.node_energy_j)
        assert 1000 < updates < 4500


class TestDutyCycledLifetime:
    def test_daily_sensor_report_lasts_years(self):
        """A node waking once an hour to send one LoRa packet."""
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=14.0)
        tx_power = pmu.battery_power_w()
        pmu.enter_state(PlatformState.SLEEP)
        sleep_power = pmu.battery_power_w()
        airtime = PARAMS.airtime_s(20)
        meter = duty_cycle_profile(
            active_power_w=tx_power, active_time_s=airtime,
            sleep_power_w=sleep_power, period_s=3600.0,
            wakeup_power_w=0.120, wakeup_time_s=0.022)
        years = LIPO_1000MAH.lifetime_years(meter.average_power_w)
        assert years > 5.0

    def test_usrp_class_sleep_kills_battery_in_days(self):
        """The same duty cycle with 2.82 W 'sleep' dies in under a week -
        the paper's Table 1 argument."""
        meter = duty_cycle_profile(
            active_power_w=3.0, active_time_s=PARAMS.airtime_s(20),
            sleep_power_w=2.820, period_s=3600.0)
        days = LIPO_1000MAH.lifetime_s(meter.average_power_w) / 86400
        assert days < 7.0
