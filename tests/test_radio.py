"""Tests for the radio substrate: I/Q words, LVDS, AT86RF215, front-ends,
the SX1276 link budget."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FramingError, PowerError, RadioError
from repro.phy.lora import LoRaParams
from repro.power.profiles import IQ_RADIO_SLEEP_W
from repro.radio.at86rf215 import (
    RADIO_SETUP_S,
    At86Rf215,
    RadioState,
    tx_power_draw_w,
)
from repro.radio.frontend import SE2435L, SKY66112, FrontendMode, RfFrontend
from repro.radio.iqword import (
    IqWord,
    bits_to_words,
    find_word_alignment,
    pack_word,
    samples_to_words,
    unpack_word,
    words_to_bits,
    words_to_samples,
)
from repro.radio.lvds import (
    LvdsTiming,
    ddr_merge,
    ddr_split,
    inject_bit_errors,
    verify_paper_budget,
)
from repro.radio.sx1276 import (
    packet_error_probability,
    sensitivity_dbm,
    symbol_error_probability,
)


class TestIqWord:
    def test_pack_unpack_roundtrip(self):
        word = IqWord(i_code=-4096, q_code=4095, i_control=1, q_control=0)
        assert unpack_word(pack_word(word)) == word

    def test_sync_patterns_in_packed_word(self):
        value = pack_word(IqWord(0, 0))
        assert (value >> 30) == 0b10  # I_SYNC
        assert ((value >> 14) & 0b11) == 0b01  # Q_SYNC

    def test_unpack_rejects_bad_sync(self):
        good = pack_word(IqWord(100, -100))
        with pytest.raises(FramingError):
            unpack_word(good ^ (1 << 31))

    def test_pack_rejects_overflow_code(self):
        with pytest.raises(FramingError):
            pack_word(IqWord(i_code=4096, q_code=0))

    def test_samples_roundtrip_within_lsb(self, rng):
        samples = (rng.uniform(-0.9, 0.9, 64)
                   + 1j * rng.uniform(-0.9, 0.9, 64))
        words = samples_to_words(samples)
        recovered = words_to_samples(words)
        assert np.max(np.abs(recovered - samples)) < 2 ** -12

    def test_bitstream_roundtrip(self, rng):
        samples = rng.uniform(-0.5, 0.5, 16) + 0j
        words = samples_to_words(samples)
        bits = words_to_bits(words)
        assert bits.size == 16 * 32
        assert np.array_equal(bits_to_words(bits), words)

    @pytest.mark.parametrize("misalignment", [0, 1, 7, 31])
    def test_alignment_search(self, misalignment, rng):
        words = samples_to_words(rng.uniform(-0.9, 0.9, 20) + 0j)
        bits = words_to_bits(words)
        prefix = rng.integers(0, 2, misalignment).astype(np.uint8)
        # Guard: make sure the random prefix can't fake a full sync word.
        stream = np.concatenate([prefix, bits])
        offset = find_word_alignment(stream)
        recovered = words_to_samples(bits_to_words(stream, offset))
        expected = words_to_samples(words)
        assert np.allclose(recovered[:expected.size - 1],
                           expected[:expected.size - 1])

    def test_alignment_failure_raises(self):
        with pytest.raises(FramingError):
            find_word_alignment(np.zeros(256, dtype=np.uint8))


class TestLvds:
    def test_paper_budget_numbers(self):
        budget = verify_paper_budget()
        assert budget["required_bps"] == pytest.approx(128e6)
        assert budget["link_bps"] == pytest.approx(128e6)
        # 64 MHz DDR carries exactly one 32-bit word per 4 MHz sample.
        assert budget["margin"] == pytest.approx(1.0)

    def test_ddr_split_merge_roundtrip(self, rng):
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        rising, falling = ddr_split(bits)
        assert np.array_equal(ddr_merge(rising, falling), bits)

    def test_ddr_split_rejects_odd(self):
        with pytest.raises(FramingError):
            ddr_split(np.ones(3, dtype=np.uint8))

    def test_single_data_rate_halves_throughput(self):
        assert LvdsTiming(double_data_rate=False).bit_rate_bps == \
            pytest.approx(64e6)

    def test_supports_sample_rate(self):
        assert LvdsTiming().supports_sample_rate(4e6)
        assert not LvdsTiming(clock_hz=32e6).supports_sample_rate(4e6)

    def test_bit_errors_detected_by_sync_check(self, rng):
        words = samples_to_words(rng.uniform(-0.9, 0.9, 100) + 0j)
        bits = words_to_bits(words)
        corrupted = inject_bit_errors(bits, 0.05, rng)
        with pytest.raises(FramingError):
            # Enough corruption must hit a sync field somewhere.
            for offset in range(0, corrupted.size, 32):
                bits_to_words(corrupted[offset:offset + 32])
                word = int(bits_to_words(corrupted[offset:offset + 32])[0])
                unpack_word(word)


class TestAt86Rf215:
    def test_state_machine_happy_path(self):
        radio = At86Rf215()
        assert radio.state == RadioState.SLEEP
        radio.wake()
        assert radio.state == RadioState.TRXOFF
        radio.enter_rx()
        assert radio.state == RadioState.RX
        radio.enter_tx()
        assert radio.state == RadioState.TX
        radio.sleep()
        assert radio.state == RadioState.SLEEP

    def test_turnaround_latencies(self):
        radio = At86Rf215()
        radio.wake()
        radio.enter_tx()
        assert radio.enter_rx() == pytest.approx(45e-6)
        assert radio.enter_tx() == pytest.approx(11e-6)

    def test_frequency_switch_latency(self):
        radio = At86Rf215(frequency_hz=2_402_000_000)
        radio.wake()
        assert radio.set_frequency(2_480_000_000) == pytest.approx(220e-6)

    def test_rejects_out_of_band_frequency(self):
        with pytest.raises(RadioError):
            At86Rf215(frequency_hz=1_500_000_000)
        radio = At86Rf215()
        radio.wake()
        with pytest.raises(RadioError):
            radio.set_frequency(600e6)

    def test_all_three_bands_accepted(self):
        for frequency in (433e6, 915e6, 2.44e9):
            At86Rf215(frequency_hz=frequency)

    def test_tx_requires_wake(self):
        radio = At86Rf215()
        with pytest.raises(RadioError):
            radio.enter_tx()

    def test_transmit_quantizes(self):
        radio = At86Rf215()
        radio.wake()
        radio.enter_tx()
        out = radio.transmit(np.exp(2j * np.pi * 0.1 * np.arange(64)))
        grid = 2.0 ** -12
        assert np.allclose(np.round(out.real / grid), out.real / grid)

    def test_receive_agc_scales_to_headroom(self, rng):
        radio = At86Rf215()
        radio.wake()
        radio.enter_rx()
        tiny = 1e-6 * (rng.normal(size=512) + 1j * rng.normal(size=512))
        out = radio.receive(tiny)
        rms = np.sqrt(np.mean(np.abs(out) ** 2))
        assert rms == pytest.approx(0.25, rel=0.2)

    def test_tx_power_limits(self):
        radio = At86Rf215()
        radio.set_tx_power(14.0)
        with pytest.raises(ConfigurationError):
            radio.set_tx_power(15.0)

    def test_power_draw_rises_with_output(self):
        assert tx_power_draw_w(14.0) > tx_power_draw_w(0.0)

    def test_energy_accounting(self):
        radio = At86Rf215()
        radio.wake()
        radio.enter_rx()
        radio.receive(np.zeros(40_000, dtype=complex))  # 10 ms at 4 MHz
        energy = radio.energy_consumed_j()
        assert energy > 0
        # 10 ms of 50 mW RX is 0.5 mJ; allow for setup overheads.
        assert energy == pytest.approx(0.5e-3, rel=0.5)

    def test_energy_charges_each_dwell_at_its_own_tx_power(self):
        radio = At86Rf215()
        radio.set_tx_power(-10.0)
        radio.wake()
        radio.enter_tx()
        radio.transmit(np.zeros(4_000, dtype=complex))  # 1 ms at 4 MHz
        radio.set_tx_power(14.0)
        radio.transmit(np.zeros(4_000, dtype=complex))
        energy = radio.energy_consumed_j()
        assert energy == radio.timeline.energy_j()
        assert energy == pytest.approx(
            tx_power_draw_w(-10.0) * 1e-3 + tx_power_draw_w(14.0) * 1e-3
            + IQ_RADIO_SLEEP_W * RADIO_SETUP_S, rel=1e-12)


class TestFrontends:
    def test_pa_gain_and_saturation(self):
        frontend = RfFrontend(SE2435L)
        frontend.set_mode(FrontendMode.PA)
        assert frontend.output_power_dbm(10.0) == pytest.approx(26.0)
        assert frontend.output_power_dbm(20.0) == pytest.approx(30.0)

    def test_bypass_is_transparent(self):
        frontend = RfFrontend(SKY66112)
        frontend.set_mode(FrontendMode.BYPASS)
        assert frontend.output_power_dbm(5.0) == pytest.approx(5.0)

    def test_sleep_mode_power(self):
        frontend = RfFrontend(SE2435L)
        assert frontend.power_draw_w() == pytest.approx(1e-6 * 3.5)

    def test_bypass_power_at_most_280ua(self):
        frontend = RfFrontend(SKY66112)
        frontend.set_mode(FrontendMode.BYPASS)
        assert frontend.power_draw_w() <= 280e-6 * SKY66112.supply_v + 1e-12

    def test_sleep_output_raises(self):
        frontend = RfFrontend(SE2435L)
        with pytest.raises(PowerError):
            frontend.output_power_dbm(0.0)

    def test_required_drive(self):
        frontend = RfFrontend(SE2435L)
        assert frontend.required_drive_dbm(30.0) == pytest.approx(14.0)
        with pytest.raises(ConfigurationError):
            frontend.required_drive_dbm(31.0)

    def test_lna_improves_noise_figure(self):
        frontend = RfFrontend(SE2435L)
        frontend.set_mode(FrontendMode.LNA)
        cascaded = frontend.rx_noise_figure_db(6.0)
        assert cascaded < 6.0
        frontend.set_mode(FrontendMode.BYPASS)
        assert frontend.rx_noise_figure_db(6.0) == pytest.approx(6.0)


class TestSx1276:
    def test_sensitivity_sf8_bw125(self):
        assert sensitivity_dbm(LoRaParams(8, 125e3)) == pytest.approx(
            -127.0, abs=0.5)

    def test_sensitivity_sf12_bw125(self):
        assert sensitivity_dbm(LoRaParams(12, 125e3)) == pytest.approx(
            -137.0, abs=0.5)

    def test_sensitivity_worsens_with_bandwidth(self):
        assert sensitivity_dbm(LoRaParams(8, 250e3)) > \
            sensitivity_dbm(LoRaParams(8, 125e3))

    def test_ser_monotone_in_snr(self):
        sers = [symbol_error_probability(8, snr)
                for snr in (-16, -12, -8, -4)]
        assert sers == sorted(sers, reverse=True)

    def test_per_waterfall(self):
        params = LoRaParams(8, 125e3)
        assert packet_error_probability(params, -115.0, 30) < 0.01
        assert packet_error_probability(params, -132.0, 30) > 0.99
