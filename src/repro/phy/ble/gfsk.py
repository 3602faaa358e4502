"""GFSK modulation and demodulation for BLE beacons.

Paper section 4.2: "we upsample and apply a Gaussian filter to the
bitstream.  This gives us the desired changes in frequency which we
integrate to get the phase.  We then feed the phase to sine and cosine
functions to get the final I and Q samples."  :class:`GfskModulator`
follows exactly that pipeline, optionally through the same quantized
sin/cos LUTs the FPGA uses.

The receiver is the classic noncoherent quadrature discriminator a BLE
chip like the CC2650 implements: low-pass filter, per-sample phase
difference, integrate over each symbol, decide on the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import design_lowpass, filter_block
from repro.dsp.nco import Nco, NcoConfig
from repro.dsp.pulse import frequency_to_phase, shape_bits
from repro.errors import ConfigurationError, DemodulationError
from repro.phy import backend

BLE_BIT_RATE_BPS = 1_000_000
BLE_MODULATION_INDEX = 0.5
"""Nominal h; the spec allows 0.45..0.55."""

BLE_BT_PRODUCT = 0.5


@dataclass(frozen=True)
class GfskConfig:
    """GFSK waveform parameters.

    Attributes:
        bit_rate_bps: symbol rate (1 Mb/s for BLE 4.x advertising).
        samples_per_symbol: oversampling (4 matches the AT86RF215's 4 MHz
            I/Q rate against BLE's 1 Mb/s).
        modulation_index: h; peak-to-peak frequency deviation is
            ``h * bit_rate``.
        bt_product: Gaussian filter bandwidth-time product.
    """

    bit_rate_bps: float = BLE_BIT_RATE_BPS
    samples_per_symbol: int = 4
    modulation_index: float = BLE_MODULATION_INDEX
    bt_product: float = BLE_BT_PRODUCT

    def __post_init__(self) -> None:
        if self.bit_rate_bps <= 0:
            raise ConfigurationError(
                f"bit rate must be positive, got {self.bit_rate_bps!r}")
        if self.samples_per_symbol < 2:
            raise ConfigurationError(
                "need at least 2 samples per symbol for the discriminator, "
                f"got {self.samples_per_symbol}")
        if not 0.1 <= self.modulation_index <= 2.0:
            raise ConfigurationError(
                f"modulation index {self.modulation_index!r} out of range")
        if self.bt_product <= 0:
            raise ConfigurationError(
                f"BT product must be positive, got {self.bt_product!r}")

    @property
    def sample_rate_hz(self) -> float:
        """Baseband sample rate."""
        return self.bit_rate_bps * self.samples_per_symbol

    @property
    def deviation_hz(self) -> float:
        """Single-sided peak frequency deviation ``h * Rb / 2``."""
        return self.modulation_index * self.bit_rate_bps / 2.0


class GfskModulator:
    """Gaussian-shaped FSK modulator, optionally LUT-quantized."""

    def __init__(self, config: GfskConfig | None = None,
                 quantized: bool = True,
                 nco_config: NcoConfig | None = None) -> None:
        self.config = config or GfskConfig()
        self.quantized = quantized
        self._nco = Nco(nco_config or NcoConfig(
            phase_bits=32, table_address_bits=10, amplitude_bits=13)) \
            if quantized else None

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Modulate a bit array into complex baseband samples.

        Raises:
            ConfigurationError: for non-binary input.
        """
        bits = np.asarray(bits, dtype=np.int64)
        if bits.size == 0:
            return np.zeros(0, dtype=np.complex128)
        frequency = shape_bits(bits, self.config.bt_product,
                               self.config.samples_per_symbol)
        phase = frequency_to_phase(frequency, self.config.deviation_hz,
                                   self.config.sample_rate_hz)
        if self._nco is None:
            return np.exp(1j * phase)
        modulus = 1 << self._nco.config.phase_bits
        integer_phase = np.round(
            np.mod(phase / (2.0 * np.pi), 1.0) * modulus).astype(np.int64)
        return self._nco.from_phase_sequence(integer_phase)


class GfskDemodulator:
    """Noncoherent discriminator receiver.

    Pipeline: channel-select FIR -> phase-difference discriminator ->
    integrate-and-dump over each symbol -> sign decision.

    The discriminator and integrate-and-dump kernels live in
    :mod:`repro.phy.backend`.
    """

    def __init__(self, config: GfskConfig | None = None,
                 filter_taps: int = 24) -> None:
        self.config = config or GfskConfig()
        cutoff = 0.6 * self.config.bit_rate_bps
        nyquist = self.config.sample_rate_hz / 2.0
        self._taps = None
        if cutoff < nyquist * 0.95:
            self._taps = design_lowpass(filter_taps, cutoff,
                                        self.config.sample_rate_hz)

    def instantaneous_frequency(self, samples: np.ndarray) -> np.ndarray:
        """Per-sample phase increments (radians/sample) after filtering.

        Raises:
            DemodulationError: when a sample is NaN or infinite, or
                fewer than 2 samples arrive.
        """
        samples = backend.finite_samples(samples)
        if samples.size < 2:
            raise DemodulationError("need at least 2 samples to discriminate")
        if self._taps is not None:
            samples = filter_block(self._taps, samples)
        return backend.discriminate(samples)

    def demodulate(self, samples: np.ndarray, num_bits: int,
                   start_sample: int = 0) -> np.ndarray:
        """Recover ``num_bits`` symbol decisions from an aligned stream.

        Bit-exact with :meth:`demodulate_reference` (sequential
        in-symbol accumulation).

        Args:
            samples: complex baseband stream.
            num_bits: symbols to decide.
            start_sample: index of the first sample of the first symbol.

        Raises:
            DemodulationError: if the stream is too short or holds a NaN
                or infinite sample.
        """
        sps = self.config.samples_per_symbol
        needed = start_sample + num_bits * sps
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.size < needed:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot supply {num_bits} "
                f"bits from offset {start_sample}")
        freq = self.instantaneous_frequency(samples)
        metrics = backend.integrate_bits(freq, start_sample, num_bits, sps)
        return (metrics > 0.0).astype(np.int64)

    def demodulate_reference(self, samples: np.ndarray, num_bits: int,
                             start_sample: int = 0) -> np.ndarray:
        """One-bit-per-iteration scalar twin of :meth:`demodulate`."""
        sps = self.config.samples_per_symbol
        needed = start_sample + num_bits * sps
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.size < needed:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot supply {num_bits} "
                f"bits from offset {start_sample}")
        freq = self.instantaneous_frequency(samples)
        bits = np.empty(num_bits, dtype=np.int64)
        for i in range(num_bits):
            begin = start_sample + i * sps
            # The discriminator output is one sample shorter than the
            # stream, so the final window may be truncated.
            window = freq[begin:begin + sps]
            metric = float(window[0]) if window.size else 0.0
            for j in range(1, window.size):
                metric = metric + window[j]
            bits[i] = 1 if metric > 0.0 else 0
        return bits

    def correlate_bits(self, samples: np.ndarray,
                       pattern_bits: np.ndarray,
                       max_offset: int | None = None) -> int:
        """Find the sample offset where a known bit pattern best matches.

        Used to locate the preamble + access address in a capture (the
        BLE receiver's syncword correlator).

        Returns:
            The best-matching start sample of the pattern.

        Raises:
            DemodulationError: if the stream is shorter than the pattern.
        """
        sps = self.config.samples_per_symbol
        pattern = np.asarray(pattern_bits, dtype=np.float64) * 2.0 - 1.0
        template = np.repeat(pattern, sps)
        freq = self.instantaneous_frequency(samples)
        if freq.size < template.size:
            raise DemodulationError(
                "stream shorter than the correlation pattern")
        limit = freq.size - template.size
        if max_offset is not None:
            limit = min(limit, max_offset)
        correlation = np.correlate(freq[:limit + template.size], template,
                                   mode="valid")
        return int(np.argmax(correlation))
