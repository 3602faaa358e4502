"""Tests for the channel substrate: AWGN, path loss, impairments, links."""

import numpy as np
import pytest

from repro.channel.awgn import awgn, complex_noise, noise_only
from repro.channel.impairments import (
    apply_cfo,
    apply_dc_offset,
    apply_iq_imbalance,
    apply_phase_noise,
    ppm_to_hz,
)
from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.channel.pathloss import LogDistanceModel
from repro.errors import ChannelError
from repro.units import noise_floor_dbm


class TestAwgn:
    def test_noise_power_matches_request(self, rng):
        noise = complex_noise(200_000, 0.5, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.5, rel=0.02)

    def test_awgn_achieves_target_snr(self, rng):
        signal = np.exp(2j * np.pi * 0.05 * np.arange(100_000))
        noisy = awgn(signal, 10.0, rng)
        noise_power = np.mean(np.abs(noisy - signal) ** 2)
        assert 10 * np.log10(1.0 / noise_power) == pytest.approx(10.0,
                                                                 abs=0.2)

    def test_explicit_signal_power_reference(self, rng):
        # Half the block is silence; the nominal power keeps SNR honest.
        signal = np.concatenate([np.ones(1000), np.zeros(1000)]).astype(
            complex)
        noisy = awgn(signal, 20.0, rng, signal_power=1.0)
        noise = noisy - signal
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(0.01, rel=0.2)

    def test_rejects_empty(self, rng):
        with pytest.raises(ChannelError):
            awgn(np.array([]), 10.0, rng)

    def test_rejects_zero_signal_without_reference(self, rng):
        with pytest.raises(ChannelError):
            awgn(np.zeros(100), 10.0, rng)

    def test_noise_only_segment(self, rng):
        segment = noise_only(5000, 2.0, rng)
        assert np.mean(np.abs(segment) ** 2) == pytest.approx(2.0, rel=0.1)

    def test_noise_is_circular(self, rng):
        noise = complex_noise(100_000, 1.0, rng)
        assert np.mean(noise.real * noise.imag) == pytest.approx(0.0,
                                                                 abs=0.01)


class TestLogDistance:
    def test_free_space_exponent_matches_fspl(self):
        model = LogDistanceModel(frequency_hz=915e6, exponent=2.0)
        from repro.units import free_space_path_loss_db
        assert model.mean_path_loss_db(100.0) == pytest.approx(
            free_space_path_loss_db(100.0, 915e6))

    def test_loss_monotone_in_distance(self):
        model = LogDistanceModel(frequency_hz=915e6, exponent=3.0)
        losses = [model.mean_path_loss_db(d) for d in (10, 100, 500, 1000)]
        assert losses == sorted(losses)

    def test_shadowing_draw_varies(self, rng):
        model = LogDistanceModel(frequency_hz=915e6, shadowing_sigma_db=4.0)
        draws = {model.path_loss_db(100.0, rng) for _ in range(10)}
        assert len(draws) > 1

    def test_no_rng_means_median(self):
        model = LogDistanceModel(frequency_hz=915e6, shadowing_sigma_db=4.0)
        assert model.path_loss_db(100.0) == model.mean_path_loss_db(100.0)

    def test_received_power(self):
        model = LogDistanceModel(frequency_hz=915e6, exponent=2.0)
        rssi = model.received_power_dbm(14.0, 100.0, tx_gain_dbi=6.0)
        assert rssi == pytest.approx(20.0 - model.mean_path_loss_db(100.0))

    def test_range_inverts_received_power(self):
        model = LogDistanceModel(frequency_hz=915e6, exponent=2.9)
        distance = model.range_for_sensitivity_m(14.0, -126.0)
        rssi = model.received_power_dbm(14.0, distance)
        assert rssi == pytest.approx(-126.0, abs=0.01)

    def test_range_fails_without_budget(self):
        model = LogDistanceModel(frequency_hz=915e6)
        with pytest.raises(ChannelError):
            model.range_for_sensitivity_m(-10.0, 25.0)

    def test_rejects_unphysical_exponent(self):
        with pytest.raises(ChannelError):
            LogDistanceModel(frequency_hz=915e6, exponent=0.5)


class TestImpairments:
    def test_cfo_shifts_spectrum(self):
        fs = 1e6
        signal = np.ones(4096, dtype=complex)
        shifted = apply_cfo(signal, 100e3, fs)
        spectrum = np.abs(np.fft.fft(shifted))
        peak_hz = np.fft.fftfreq(4096, 1 / fs)[np.argmax(spectrum)]
        assert peak_hz == pytest.approx(100e3, abs=fs / 4096)

    def test_cfo_preserves_power(self, rng):
        signal = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        shifted = apply_cfo(signal, 12345.0, 1e6)
        assert np.allclose(np.abs(shifted), np.abs(signal))

    def test_ppm_conversion(self):
        assert ppm_to_hz(20.0, 915e6) == pytest.approx(18300.0)

    def test_phase_noise_preserves_magnitude(self, rng):
        signal = np.ones(1000, dtype=complex)
        noisy = apply_phase_noise(signal, 0.1, rng)
        assert np.allclose(np.abs(noisy), 1.0)

    def test_zero_phase_noise_identity(self, rng):
        signal = np.ones(100, dtype=complex)
        assert np.allclose(apply_phase_noise(signal, 0.0, rng), signal)

    def test_iq_imbalance_changes_image(self):
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 0.1 * n)
        impaired = apply_iq_imbalance(tone, gain_imbalance_db=1.0,
                                      phase_imbalance_rad=0.05)
        spectrum = np.abs(np.fft.fft(impaired))
        image_bin = 4096 - 410
        signal_bin = 410
        # The image is present but well below the carrier.
        assert spectrum[image_bin] > 1.0
        assert spectrum[image_bin] < 0.2 * spectrum[signal_bin]

    def test_dc_offset(self):
        out = apply_dc_offset(np.zeros(10, dtype=complex), 0.1 + 0.2j)
        assert np.allclose(out, 0.1 + 0.2j)


class TestLinkBudget:
    def test_noise_floor_passthrough(self):
        budget = LinkBudget(bandwidth_hz=125e3, noise_figure_db=6.0)
        assert budget.noise_floor_dbm == pytest.approx(
            noise_floor_dbm(125e3, 6.0))

    def test_snr_rssi_inverse(self):
        budget = LinkBudget(bandwidth_hz=125e3)
        assert budget.rssi_dbm(budget.snr_db(-120.0)) == pytest.approx(-120.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ChannelError):
            LinkBudget(bandwidth_hz=0.0)


class TestReceive:
    def test_noise_floor_is_unit_power(self, rng):
        budget = LinkBudget(bandwidth_hz=125e3)
        window = receive([], budget, rng, num_samples=100_000)
        assert np.mean(np.abs(window) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_signal_power_relative_to_floor(self, rng):
        budget = LinkBudget(bandwidth_hz=125e3, noise_figure_db=6.0)
        floor = budget.noise_floor_dbm
        signal = np.exp(2j * np.pi * 0.01 * np.arange(50_000))
        window = receive([ReceivedSignal(signal, floor + 10.0)], budget, rng)
        total = np.mean(np.abs(window) ** 2)
        assert total == pytest.approx(11.0, rel=0.05)  # 10x signal + 1x noise

    def test_start_sample_placement(self, rng):
        budget = LinkBudget(bandwidth_hz=125e3)
        burst = np.ones(100, dtype=complex)
        window = receive(
            [ReceivedSignal(burst, budget.noise_floor_dbm + 30.0,
                            start_sample=500)],
            budget, rng, num_samples=1000)
        early = np.mean(np.abs(window[:400]) ** 2)
        inside = np.mean(np.abs(window[500:600]) ** 2)
        assert inside > 100 * early

    def test_signal_must_fit_window(self, rng):
        budget = LinkBudget(bandwidth_hz=125e3)
        with pytest.raises(ChannelError):
            receive([ReceivedSignal(np.ones(100, dtype=complex), -100.0,
                                    start_sample=950)],
                    budget, rng, num_samples=1000)

    def test_window_length_needed_without_signals(self, rng):
        with pytest.raises(ChannelError):
            receive([], LinkBudget(bandwidth_hz=125e3), rng)

    def test_two_signals_superpose(self, rng):
        budget = LinkBudget(bandwidth_hz=125e3)
        floor = budget.noise_floor_dbm
        a = np.exp(2j * np.pi * 0.10 * np.arange(20_000))
        b = np.exp(2j * np.pi * 0.25 * np.arange(20_000))
        window = receive([ReceivedSignal(a, floor + 20.0),
                          ReceivedSignal(b, floor + 20.0)], budget, rng)
        spectrum = np.abs(np.fft.fft(window))
        bins = np.argsort(spectrum)[-2:]
        assert set(bins) == {2000, 5000}
