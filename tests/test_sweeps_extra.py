"""Additional coverage of the sweep harness and reference models."""

import numpy as np
import pytest

from repro.core.sweeps import (
    MAX_RESIDUAL_CFO_BINS,
    ble_beacon_error_rate,
    ble_bit_error_rate,
    lora_packet_error_rate,
    lora_symbol_error_rate,
)
from repro.phy.ble.gfsk import GfskConfig
from repro.phy.lora import LoRaModulator, LoRaParams
from repro.radio.sx1276 import (
    packet_error_probability,
    symbol_error_probability,
)


class TestLoRaSweeps:
    def test_packet_sweep_clean_at_strong_rssi(self, rng):
        point = lora_packet_error_rate(LoRaParams(8, 125e3), -100.0,
                                       b"abc", 5, rng)
        assert point.error_rate == 0.0
        assert point.trials == 5

    def test_packet_sweep_broken_at_weak_rssi(self, rng):
        point = lora_packet_error_rate(LoRaParams(8, 125e3), -138.0,
                                       b"abc", 5, rng)
        assert point.error_rate == 1.0

    def test_packet_sweep_survives_header_with_bad_coding_rate(self):
        # At this seed a noise-corrupted header passes its checksum while
        # announcing CR 4/9; that packet is a header failure, not a
        # CodingError that ends the sweep.
        point = lora_packet_error_rate(LoRaParams(7, 125e3), -128.0,
                                       b"tinysdr per", 20,
                                       np.random.default_rng(3))
        assert point.error_rate == 1.0
        assert point.trials == 20

    def test_ideal_vs_quantized_tx_agree_at_high_snr(self, rng):
        for quantized in (True, False):
            point = lora_packet_error_rate(
                LoRaParams(8, 125e3), -105.0, b"x", 4, rng,
                quantized_tx=quantized)
            assert point.error_rate == 0.0

    def test_symbol_sweep_without_cfo_is_better(self, rng):
        # Disabling the residual CFO must never hurt.
        rssi = -129.0
        with_cfo = np.mean([
            lora_symbol_error_rate(LoRaParams(8, 125e3), rssi, 150, rng,
                                   residual_cfo=True).error_rate
            for _ in range(4)])
        without_cfo = np.mean([
            lora_symbol_error_rate(LoRaParams(8, 125e3), rssi, 150, rng,
                                   residual_cfo=False).error_rate
            for _ in range(4)])
        assert without_cfo <= with_cfo + 0.05

    def test_cfo_budget_is_subbin(self):
        assert 0.0 < MAX_RESIDUAL_CFO_BINS < 0.5

    def test_sf_ladder_orders_sensitivity(self, rng):
        # At a fixed weak RSSI, higher SF has a lower error rate.
        rssi = -129.0
        ser_sf7 = lora_symbol_error_rate(LoRaParams(7, 125e3), rssi, 200,
                                         rng).error_rate
        ser_sf10 = lora_symbol_error_rate(LoRaParams(10, 125e3), rssi, 50,
                                          rng).error_rate
        assert ser_sf10 < ser_sf7


class TestBleSweeps:
    def test_bit_sweep_trials_counted(self, rng):
        point = ble_bit_error_rate(-70.0, 500, rng)
        assert point.trials == 500

    def test_beacon_sweep_counts_whole_packets(self, rng):
        point = ble_beacon_error_rate(-70.0, 3, rng, adv_data=b"ab")
        # (preamble 1 + AA 4 + header 2 + addr 6 + data 2 + CRC 3) bytes
        assert point.trials == 3 * 18 * 8

    def test_custom_config_respected(self, rng):
        config = GfskConfig(samples_per_symbol=8)
        point = ble_bit_error_rate(-60.0, 200, rng, config=config)
        assert point.error_rate == 0.0


class TestSx1276Analytic:
    def test_ser_tracks_simulation_order_of_magnitude(self, rng):
        # The analytic union bound and the sample-level simulation must
        # agree on where the waterfall is (within ~3 dB).
        params = LoRaParams(8, 125e3)
        analytic_sens = next(
            rssi for rssi in np.arange(-115.0, -140.0, -0.5)
            if packet_error_probability(params, rssi, 8) > 0.5)
        simulated = []
        for rssi in np.arange(-124.0, -137.0, -2.0):
            point = lora_symbol_error_rate(params, float(rssi), 100, rng)
            if point.error_rate > 0.3:
                simulated.append(rssi)
                break
        assert simulated, "simulation never broke in the sweep"
        assert abs(simulated[0] - analytic_sens) <= 5.0

    def test_ser_bounds(self):
        assert symbol_error_probability(8, 30.0) == 0.0
        assert symbol_error_probability(8, -40.0) == 1.0

    def test_per_increases_with_payload(self):
        params = LoRaParams(8, 125e3)
        rssi = -126.0
        assert packet_error_probability(params, rssi, 200) >= \
            packet_error_probability(params, rssi, 10)

    def test_sx1276_sample_level_modulator_is_ideal(self):
        sx1276_tx = LoRaModulator(LoRaParams(8, 125e3), quantized=False)
        waveform = sx1276_tx.modulate(b"ideal chirps")
        assert np.allclose(np.abs(waveform), 1.0)
