"""Tests for the core package: timings, firmware, sweeps, TinySdr facade."""

import numpy as np
import pytest

from repro.core.firmware import available_firmware, get_firmware
from repro.core.sweeps import (
    SweepPoint,
    ble_bit_error_rate,
    find_sensitivity_dbm,
    lora_symbol_error_rate,
    sweep_rssi,
)
from repro.core.timing import (
    meets_ble_advertising_hop,
    meets_lorawan_rx1,
    platform_timings,
    wakeup_penalty_vs_commercial,
)
from repro.core.tinysdr import TinySdr
from repro.errors import (
    ConfigurationError,
    DemodulationError,
    FpgaError,
)
from repro.ota.mac import OtaLink
from repro.phy.ble.packet import AdvPacket
from repro.phy.lora import LoRaParams


class TestTimings:
    def test_table4_values(self):
        table = dict(platform_timings().as_table())
        assert table["Sleep to Radio Operation"] == pytest.approx(22.0,
                                                                  rel=0.05)
        assert table["Radio Setup"] == pytest.approx(1.2)
        assert table["TX to RX"] == pytest.approx(0.045)
        assert table["RX to TX"] == pytest.approx(0.011)
        assert table["Frequency Switch"] == pytest.approx(0.220)

    def test_wakeup_dominated_by_fpga(self):
        timings = platform_timings()
        assert timings.sleep_to_radio_s > timings.radio_setup_s

    def test_wakeup_penalty_about_4x(self):
        assert wakeup_penalty_vs_commercial() == pytest.approx(4.0, rel=0.1)

    def test_protocol_feasibility(self):
        assert meets_lorawan_rx1()
        assert meets_ble_advertising_hop()


class TestFirmware:
    def test_registry_contents(self):
        assert available_firmware() == [
            "ble_beacon", "concurrent_rx", "lora_modem", "lora_rx_only"]

    def test_images_cached(self):
        assert get_firmware("ble_beacon") is get_firmware("ble_beacon")

    def test_bitstream_size(self):
        assert len(get_firmware("lora_modem").fpga_bitstream) == 579 * 1024

    def test_unknown_firmware_rejected(self):
        with pytest.raises(ConfigurationError):
            get_firmware("wifi")

    def test_lut_counts_track_designs(self):
        assert get_firmware("ble_beacon").fpga_luts < \
            get_firmware("concurrent_rx").fpga_luts


class TestSweeps:
    def test_lora_ser_zero_at_high_rssi(self, rng):
        point = lora_symbol_error_rate(LoRaParams(8, 125e3), -100.0, 50, rng)
        assert point.error_rate == 0.0
        assert point.trials == 50

    def test_lora_ser_one_at_tiny_rssi(self, rng):
        point = lora_symbol_error_rate(LoRaParams(8, 125e3), -140.0, 50, rng)
        assert point.error_rate > 0.9

    def test_waterfall_near_sensitivity(self, rng):
        # -126 dBm is the paper's SF8/BW125 sensitivity.  Our simulated
        # receiver demodulates cleanly there and collapses a few dB
        # below - the waterfall lands within ~2 dB of the paper's.
        above = lora_symbol_error_rate(LoRaParams(8, 125e3), -126.0, 100,
                                       rng)
        below = lora_symbol_error_rate(LoRaParams(8, 125e3), -135.0, 200,
                                       rng)
        assert above.error_rate < 0.1
        assert below.error_rate > 0.5

    def test_ble_ber_low_at_high_rssi(self, rng):
        point = ble_bit_error_rate(-70.0, 2000, rng)
        assert point.error_rate < 1e-3

    def test_sweep_and_sensitivity_extraction(self, rng):
        points = [SweepPoint(-120.0, 0.01, 100),
                  SweepPoint(-125.0, 0.05, 100),
                  SweepPoint(-130.0, 0.80, 100)]
        assert find_sensitivity_dbm(points, threshold=0.1) == -125.0

    def test_sensitivity_extraction_failure(self):
        with pytest.raises(DemodulationError):
            find_sensitivity_dbm([SweepPoint(-120.0, 0.9, 10)])

    def test_sweep_rssi_helper(self, rng):
        points = sweep_rssi(
            lambda rssi: lora_symbol_error_rate(
                LoRaParams(7, 125e3), rssi, 20, rng),
            [-100.0, -110.0])
        assert [p.rssi_dbm for p in points] == [-100.0, -110.0]


class TestTinySdrFacade:
    def test_lora_loopback(self):
        node = TinySdr()
        node.load_firmware("lora_modem")
        node.configure_lora(LoRaParams(8, 125e3))
        record = node.transmit_lora(b"loop", tx_power_dbm=10.0)
        decoded = node.receive_lora(record.samples)
        assert decoded.payload == b"loop"
        assert decoded.crc_ok is True

    def test_lora_requires_lora_firmware(self):
        node = TinySdr()
        node.load_firmware("ble_beacon")
        with pytest.raises(FpgaError):
            node.configure_lora(LoRaParams(8, 125e3))

    def test_ble_requires_ble_firmware(self):
        node = TinySdr()
        node.load_firmware("lora_modem")
        with pytest.raises(FpgaError):
            node.transmit_ble_beacons(AdvPacket(bytes(6), b""))

    def test_ble_event_hops_three_channels(self):
        node = TinySdr(frequency_hz=2.44e9)
        node.load_firmware("ble_beacon")
        records = node.transmit_ble_beacons(AdvPacket(bytes(6), b"hi"))
        assert len(records) == 3

    def test_wake_before_firmware_rejected(self):
        node = TinySdr()
        with pytest.raises(FpgaError):
            node.wake()

    def test_sleep_wake_cycle_reboots_fpga(self):
        node = TinySdr()
        node.load_firmware("lora_modem")
        node.sleep()
        assert not node.configurator.configured
        latency = node.wake()
        assert latency == pytest.approx(22e-3, rel=0.1)
        assert node.configurator.configured

    def test_sleep_energy_accounting(self):
        node = TinySdr()
        node.load_firmware("lora_modem")
        node.sleep()
        node.record_sleep(3600.0)
        report = node.energy_report()
        # One hour at 30 uW.
        assert report["sleep"] == pytest.approx(30e-6 * 3600, rel=0.1)

    def test_record_sleep_requires_sleeping(self):
        node = TinySdr()
        node.load_firmware("lora_modem")
        with pytest.raises(ConfigurationError):
            node.record_sleep(10.0)

    def test_ota_update_switches_firmware(self, rng):
        node = TinySdr()
        node.load_firmware("lora_modem")
        report = node.take_ota_update(
            "ble_beacon", OtaLink(downlink_rssi_dbm=-90.0), rng)
        assert node.firmware.name == "ble_beacon"
        assert report.total_time_s > 0
        # The new personality is usable immediately.
        node.transmit_ble_beacons(AdvPacket(bytes(6), b"post-ota"))

    def test_timing_table_exposed(self):
        node = TinySdr()
        assert len(node.timing_table()) == 5
