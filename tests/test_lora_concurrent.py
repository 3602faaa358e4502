"""Tests for concurrent orthogonal LoRa reception (paper section 6)."""

import numpy as np
import pytest

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.core.sweeps import concurrent_symbol_error_rates
from repro.errors import ConfigurationError, DemodulationError
from repro.phy.lora import ConcurrentReceiver, LoRaParams, align_to_rate
from repro.phy.lora.chirp import chirp_train

BW125 = LoRaParams(8, 125e3)
BW250 = LoRaParams(8, 250e3)


class TestConstruction:
    def test_common_rate_is_max_bandwidth(self):
        receiver = ConcurrentReceiver([BW125, BW250])
        assert receiver.sample_rate_hz == pytest.approx(250e3)

    def test_branch_oversampling(self):
        receiver = ConcurrentReceiver([BW125, BW250])
        assert receiver.branch_params[0].oversampling == 2
        assert receiver.branch_params[1].oversampling == 1

    def test_rejects_non_orthogonal_pair(self):
        # SF8/BW125 and SF10/BW250 share a chirp slope.
        with pytest.raises(ConfigurationError):
            ConcurrentReceiver([BW125, LoRaParams(10, 250e3)])

    def test_rejects_identical_configs(self):
        with pytest.raises(ConfigurationError):
            ConcurrentReceiver([BW125, BW125])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ConcurrentReceiver([])

    def test_align_rejects_non_power_ratio(self):
        with pytest.raises(ConfigurationError):
            align_to_rate(BW125, 375e3)

    def test_fft_lengths(self):
        receiver = ConcurrentReceiver([BW125, BW250])
        assert receiver.fpga_fft_lengths() == [512, 256]


class TestConcurrentDemodulation:
    def _run(self, rssi_a, rssi_b, rng, n_a=30):
        receiver = ConcurrentReceiver([BW125, BW250])
        branch_a, branch_b = receiver.branch_params
        duration = n_a * branch_a.samples_per_symbol
        n_b = duration // branch_b.samples_per_symbol
        syms_a = rng.integers(0, 256, n_a)
        syms_b = rng.integers(0, 256, n_b)
        wave_a = chirp_train(branch_a, syms_a, quantized=True)
        wave_b = chirp_train(branch_b, syms_b, quantized=True)
        budget = LinkBudget(bandwidth_hz=receiver.sample_rate_hz)
        stream = receive([ReceivedSignal(wave_a, rssi_a),
                          ReceivedSignal(wave_b, rssi_b)], budget, rng,
                         num_samples=duration)
        results = receiver.demodulate(stream, [n_a, n_b])
        errors_a = int(np.sum(results[0].symbols != syms_a))
        errors_b = int(np.sum(results[1].symbols != syms_b))
        return errors_a / n_a, errors_b / n_b

    def test_both_decode_at_high_snr(self, rng):
        ser_a, ser_b = self._run(-100.0, -100.0, rng)
        assert ser_a == 0.0
        assert ser_b == 0.0

    def test_both_decode_near_sensitivity(self, rng):
        # ~6 dB above each configuration's single-link sensitivity.
        ser_a, ser_b = self._run(-117.0, -114.0, rng, n_a=40)
        assert ser_a < 0.1
        assert ser_b < 0.1

    def test_strong_interferer_breaks_weak_branch(self, rng):
        # BW125 at its sensitivity, BW250 40 dB hotter: interference
        # dominates noise and the weak branch collapses (Fig. 15b).
        ser_weak_quiet, _ = self._run(-121.0, -121.0, rng, n_a=40)
        ser_weak_loud, _ = self._run(-121.0, -85.0, rng, n_a=40)
        assert ser_weak_loud > ser_weak_quiet + 0.2

    def test_single_branch_works(self, rng):
        receiver = ConcurrentReceiver([BW250])
        syms = rng.integers(0, 256, 20)
        wave = chirp_train(BW250, syms, quantized=True)
        budget = LinkBudget(bandwidth_hz=250e3)
        stream = receive([ReceivedSignal(wave, -100.0)], budget, rng)
        results = receiver.demodulate(stream, [20])
        assert np.array_equal(results[0].symbols, syms)

    def test_symbol_count_mismatch_rejected(self, rng):
        receiver = ConcurrentReceiver([BW125, BW250])
        with pytest.raises(ConfigurationError):
            receiver.demodulate(np.zeros(4096, dtype=complex), [4])

    def test_stream_too_short_rejected(self):
        receiver = ConcurrentReceiver([BW125, BW250])
        with pytest.raises(DemodulationError):
            receiver.demodulate(np.zeros(256, dtype=complex), [10, 10])

    def test_negative_symbol_count_rejected(self):
        # A negative count must not slice from the stream's end and
        # demodulate whatever whole symbols remain.
        receiver = ConcurrentReceiver([BW125, BW250])
        with pytest.raises(DemodulationError):
            receiver.demodulate(np.zeros(4096, dtype=complex), [-1, 2])


class TestSweepHelper:
    def test_sweep_points_report_trials(self, rng):
        point_a, point_b = concurrent_symbol_error_rates(
            BW125, BW250, -100.0, -100.0, 16, rng)
        assert point_a.trials == 16
        assert point_b.trials == 32  # BW250 symbols are half as long
        assert point_a.error_rate == 0.0
        assert point_b.error_rate == 0.0

    def test_orthogonality_loss_is_small_at_equal_power(self, rng):
        # Equal received powers: each branch decodes with only a small
        # penalty (paper: 0.5-2 dB of sensitivity).
        point_a, point_b = concurrent_symbol_error_rates(
            BW125, BW250, -115.0, -112.0, 60, rng)
        assert point_a.error_rate < 0.1
        assert point_b.error_rate < 0.1
