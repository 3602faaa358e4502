"""Tests for the on-board ML substrate and the carrier-sense study."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ml.carrier_sense import (
    extract_features,
    run_carrier_sense_study,
    synthesize_dataset,
)
from repro.ml.mlp import MlpClassifier, QuantizedMlp, fpga_inference_cost
from repro.phy.lora import LoRaParams

PARAMS = LoRaParams(8, 125e3)


class TestMlp:
    def _xor_data(self, rng, n=400):
        x = rng.integers(0, 2, (n, 2)).astype(float)
        y = (x[:, 0].astype(int) ^ x[:, 1].astype(int))
        return x + rng.normal(0, 0.1, x.shape), y

    def test_learns_xor(self, rng):
        # The classic non-linearly-separable check.
        x, y = self._xor_data(rng)
        model = MlpClassifier.create(2, 8, 2, rng)
        model.train(x, y, epochs=300, learning_rate=0.3, rng=rng)
        accuracy = np.mean(model.predict(x) == y)
        assert accuracy > 0.95

    def test_loss_decreases(self, rng):
        x, y = self._xor_data(rng)
        model = MlpClassifier.create(2, 8, 2, rng)
        losses = model.train(x, y, epochs=100, learning_rate=0.3, rng=rng)
        assert losses[-1] < losses[0]

    def test_quantized_model_tracks_float(self, rng):
        x, y = self._xor_data(rng)
        model = MlpClassifier.create(2, 8, 2, rng)
        model.train(x, y, epochs=300, learning_rate=0.3, rng=rng)
        quantized = model.quantize()
        agreement = np.mean(quantized.predict(x) == model.predict(x))
        assert agreement > 0.9

    def test_quantized_weights_are_8bit(self, rng):
        model = MlpClassifier.create(4, 6, 2, rng)
        quantized = model.quantize()
        assert quantized.w1_q.max() <= 127
        assert quantized.w1_q.min() >= -127

    def test_mac_count(self, rng):
        model = MlpClassifier.create(32, 16, 2, rng)
        assert model.multiply_accumulates == 32 * 16 + 16 * 2

    def test_mismatched_training_data_rejected(self, rng):
        model = MlpClassifier.create(2, 4, 2, rng)
        with pytest.raises(ConfigurationError):
            model.train(np.zeros((10, 2)), np.zeros(5, dtype=int))

    def test_layer_sizes_validated(self, rng):
        with pytest.raises(ConfigurationError):
            MlpClassifier.create(0, 4, 2, rng)


class TestInferenceCost:
    def test_latency_scales_with_macs(self):
        small = fpga_inference_cost(100)
        large = fpga_inference_cost(10_000)
        assert large["latency_s"] > small["latency_s"]

    def test_fits_alongside_lora_modem(self):
        from repro.fpga.resources import LFE5U_25F_LUTS, lora_rx_design
        cost = fpga_inference_cost(544)
        assert cost["luts"] + lora_rx_design(8).luts < LFE5U_25F_LUTS / 2

    def test_inference_is_submicrojoule(self):
        cost = fpga_inference_cost(544)
        assert cost["energy_per_inference_j"] < 1e-6

    def test_rejects_zero_macs(self):
        with pytest.raises(ConfigurationError):
            fpga_inference_cost(0)


class TestCarrierSense:
    def test_features_separate_busy_from_idle(self, rng):
        features, labels = synthesize_dataset(PARAMS, (-8.0, -4.0), 40,
                                              rng)
        busy_peak = features[labels == 1][:, 0].mean()
        idle_peak = features[labels == 0][:, 0].mean()
        assert busy_peak > idle_peak + 0.5

    def test_feature_window_length_enforced(self):
        with pytest.raises(ConfigurationError):
            extract_features(np.zeros(100, dtype=complex), PARAMS)

    def test_dataset_is_balanced(self, rng):
        _, labels = synthesize_dataset(PARAMS, (-8.0, -4.0), 25, rng)
        assert labels.sum() == 25
        assert labels.size == 50

    def test_study_detects_subnoise_lora(self, rng):
        study = run_carrier_sense_study(
            rng, snr_range_db=(-10.0, -2.0), train_per_class=200,
            test_per_class=80, epochs=40)
        # Energy detection is blind below 0 dB SNR; the learned detector
        # is not - the DeepSense result in miniature.
        assert study.float_accuracy > 0.9
        # Quantization costs almost nothing.
        assert study.quantized_accuracy > study.float_accuracy - 0.05
        # Local inference beats shipping raw I/Q by orders of magnitude.
        assert study.energy_advantage > 1e4

    def test_accuracy_degrades_gracefully_with_snr(self, rng):
        easy = run_carrier_sense_study(
            rng, snr_range_db=(-8.0, -2.0), train_per_class=150,
            test_per_class=60, epochs=30)
        hard = run_carrier_sense_study(
            rng, snr_range_db=(-24.0, -18.0), train_per_class=150,
            test_per_class=60, epochs=30)
        assert easy.float_accuracy > hard.float_accuracy
