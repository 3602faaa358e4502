"""Learning-based carrier sense for LoRa (the DeepSense use case).

The paper cites DeepSense [41] - "Enabling carrier sense in low-power
wide area networks using deep learning" - as the kind of on-board ML
tinySDR enables.  The problem: LoRa signals live *below* the noise
floor, so energy detection cannot tell a busy channel from an idle one;
a learned detector examining spectral features can.

This module builds the full study: feature extraction from raw I/Q
(log-magnitude spectra of dechirped windows), dataset synthesis at
sub-noise SNRs, training/quantization via :mod:`repro.ml.mlp`, and the
energy comparison that motivates on-board inference - classify locally
for microjoules versus transmitting raw samples to the cloud for
millijoules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.errors import ConfigurationError
from repro.ml.mlp import MlpClassifier, fpga_inference_cost
from repro.phy.lora.chirp import chirp_train, ideal_downchirp
from repro.phy.lora.params import LoRaParams
from repro.power.profiles import iq_radio_tx_w

FEATURE_BINS = 32

STUDY_BANDWIDTH_HZ = 125e3
"""LoRa channel bandwidth the carrier-sense study samples at."""
"""Spectral features per window: the dechirped FFT folded into 32 bins."""


def extract_features(window: np.ndarray, params: LoRaParams) -> np.ndarray:
    """Dechirp one symbol window and bin its log-magnitude spectrum.

    Dechirping concentrates any LoRa energy into a narrow spectral line
    while leaving noise flat - the feature a tiny classifier can use at
    SNRs where total energy says nothing.

    Raises:
        ConfigurationError: for the wrong window length.
    """
    window = np.asarray(window, dtype=np.complex128)
    expected = params.samples_per_symbol
    if window.size != expected:
        raise ConfigurationError(
            f"expected {expected} samples, got {window.size}")
    dechirped = window * ideal_downchirp(params)
    spectrum = np.abs(np.fft.fft(dechirped))
    folded = spectrum.reshape(FEATURE_BINS, -1).max(axis=1)
    # A chirp's peak bin is uniformly random (it encodes the symbol), so
    # order statistics - not bin positions - carry the busy/idle signal;
    # sorting makes the feature vector permutation-canonical.
    ordered = np.sort(folded)[::-1]
    log_mag = np.log10(ordered + 1e-9)
    return (log_mag - log_mag.mean()) / (log_mag.std() + 1e-9)


def synthesize_dataset(params: LoRaParams, snr_range_db: tuple[float, float],
                       samples_per_class: int,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Balanced busy/idle dataset at sub-noise SNRs.

    Busy windows contain one random LoRa chirp at an SNR drawn from
    ``snr_range_db``; idle windows are pure noise.

    Returns:
        ``(features, labels)`` with label 1 = channel busy.
    """
    if samples_per_class < 1:
        raise ConfigurationError("need at least one sample per class")
    budget = LinkBudget(bandwidth_hz=params.sample_rate_hz)
    floor = budget.noise_floor_dbm
    features = []
    labels = []
    sym = params.samples_per_symbol
    for _ in range(samples_per_class):
        # Idle: noise only.
        idle = receive([], budget, rng, num_samples=sym)
        features.append(extract_features(idle, params))
        labels.append(0)
        # Busy: a chirp at a random sub-noise SNR and symbol value.
        snr = rng.uniform(*snr_range_db)
        symbol = int(rng.integers(0, params.chips_per_symbol))
        waveform = chirp_train(params, np.asarray([symbol]))
        busy = receive([ReceivedSignal(waveform, floor + snr)], budget,
                       rng, num_samples=sym)
        features.append(extract_features(busy, params))
        labels.append(1)
    return np.asarray(features), np.asarray(labels)


@dataclass(frozen=True)
class CarrierSenseStudy:
    """Results of the end-to-end carrier-sense experiment.

    Attributes:
        float_accuracy: test accuracy of the float model.
        quantized_accuracy: test accuracy after 8-bit quantization.
        fpga_cost: LUT/latency/energy estimate for on-board inference.
        tx_raw_energy_j: energy to ship one window of raw I/Q instead.
        energy_advantage: how many times cheaper local inference is.
    """

    float_accuracy: float
    quantized_accuracy: float
    fpga_cost: dict[str, float]
    tx_raw_energy_j: float
    energy_advantage: float


def run_carrier_sense_study(rng: np.random.Generator,
                            params: LoRaParams | None = None,
                            snr_range_db: tuple[float, float] = (-10.0, -2.0),
                            train_per_class: int = 400,
                            test_per_class: int = 150,
                            hidden_units: int = 16,
                            epochs: int = 60) -> CarrierSenseStudy:
    """Train, quantize and cost the busy/idle detector end to end."""
    params = params or LoRaParams(8, STUDY_BANDWIDTH_HZ)
    train_x, train_y = synthesize_dataset(params, snr_range_db,
                                          train_per_class, rng)
    test_x, test_y = synthesize_dataset(params, snr_range_db,
                                        test_per_class, rng)
    model = MlpClassifier.create(FEATURE_BINS, hidden_units, 2, rng)
    model.train(train_x, train_y, epochs=epochs, rng=rng)
    float_accuracy = float(np.mean(model.predict(test_x) == test_y))
    quantized = model.quantize()
    quantized_accuracy = float(np.mean(quantized.predict(test_x) == test_y))

    cost = fpga_inference_cost(model.multiply_accumulates)
    # The alternative: transmit the window's raw I/Q (13-bit I + Q per
    # sample) over LoRa at SF8/BW125, 14 dBm, for the cloud to classify.
    raw_bytes = int(np.ceil(params.samples_per_symbol * 26 / 8))
    airtime = params.airtime_s(min(raw_bytes, 255))
    packets = int(np.ceil(raw_bytes / 255))
    tx_energy = packets * airtime * iq_radio_tx_w(14.0)
    return CarrierSenseStudy(
        float_accuracy=float_accuracy,
        quantized_accuracy=quantized_accuracy,
        fpga_cost=cost,
        tx_raw_energy_j=tx_energy,
        energy_advantage=tx_energy / cost["energy_per_inference_j"])
