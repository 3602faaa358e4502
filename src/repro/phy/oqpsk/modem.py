"""O-QPSK modulation and demodulation with half-sine pulse shaping.

802.15.4's 2.4 GHz PHY transmits the chip stream as offset QPSK:
even-indexed chips ride the I rail, odd-indexed chips the Q rail delayed
by half a chip, each shaped by a half-sine pulse - which makes the
envelope constant (MSK-equivalent) and PA-friendly.  The receiver
matched-filters each rail and samples at the chip centers to recover
soft chips for the despreader.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.phy import backend
from repro.phy.oqpsk.spreading import CHIP_RATE_HZ


class OqpskModulator:
    """Half-sine-shaped O-QPSK chip modulator.

    Args:
        samples_per_chip: oversampling; 2 gives the 4 MHz rate the
            AT86RF215 interface runs at (2 Mchip/s x 2).
    """

    def __init__(self, samples_per_chip: int = 2) -> None:
        if samples_per_chip < 2 or samples_per_chip % 2:
            raise ConfigurationError(
                "need an even oversampling >= 2 for the half-chip offset, "
                f"got {samples_per_chip}")
        self.samples_per_chip = samples_per_chip
        self.sample_rate_hz = CHIP_RATE_HZ * samples_per_chip
        # Half-sine pulse spanning 2 chip periods (the O-QPSK pulse).
        n = np.arange(2 * samples_per_chip)
        self._pulse = np.sin(np.pi * (n + 0.5) / (2 * samples_per_chip))

    def modulate(self, chips: np.ndarray) -> np.ndarray:
        """Modulate a 0/1 chip stream into complex baseband.

        Raises:
            ConfigurationError: for an odd chip count (chips pair I/Q).
        """
        chips = np.asarray(chips, dtype=np.int64)
        if chips.size % 2:
            raise ConfigurationError(
                f"chip count must be even (I/Q pairs), got {chips.size}")
        if chips.size == 0:
            return np.zeros(0, dtype=np.complex128)
        bipolar = 2.0 * chips - 1.0
        i_chips = bipolar[0::2]
        q_chips = bipolar[1::2]
        spc = self.samples_per_chip
        pair_samples = 2 * spc  # one I chip + one Q chip per pair period
        half = spc
        total = chips.size // 2 * pair_samples + pair_samples
        i_rail = np.zeros(total)
        q_rail = np.zeros(total)
        for index, amplitude in enumerate(i_chips):
            start = index * pair_samples
            i_rail[start:start + self._pulse.size] += \
                amplitude * self._pulse
        for index, amplitude in enumerate(q_chips):
            start = index * pair_samples + half
            q_rail[start:start + self._pulse.size] += \
                amplitude * self._pulse
        return (i_rail + 1j * q_rail) / np.sqrt(2.0)


class OqpskDemodulator:
    """Matched-filter O-QPSK receiver producing soft chips.

    The matched-filter kernel (:mod:`repro.phy.backend`) accumulates
    tap-major, so it and :meth:`soft_chips_reference` produce
    bit-identical soft chips.
    """

    def __init__(self, samples_per_chip: int = 2) -> None:
        if samples_per_chip < 2 or samples_per_chip % 2:
            raise ConfigurationError(
                "need an even oversampling >= 2, got "
                f"{samples_per_chip}")
        self.samples_per_chip = samples_per_chip
        n = np.arange(2 * samples_per_chip)
        pulse = np.sin(np.pi * (n + 0.5) / (2 * samples_per_chip))
        self._matched = pulse / np.sum(pulse ** 2)

    def _chip_centers(self, num_chips: int, start_sample: int) -> np.ndarray:
        """Sampling instants for each chip in the filtered rails."""
        spc = self.samples_per_chip
        delay = self._matched.size - 1
        chips = np.arange(num_chips)
        pair = chips // 2
        return start_sample + pair * (2 * spc) + \
            np.where(chips % 2 == 0, 0, spc) + delay

    def soft_chips(self, samples: np.ndarray, num_chips: int,
                   start_sample: int = 0) -> np.ndarray:
        """Recover ``num_chips`` soft chip values from an aligned stream.

        Bit-exact with :meth:`soft_chips_reference`.

        Raises:
            DemodulationError: if the stream is too short or holds a NaN
                or infinite sample.
        """
        samples = backend.finite_samples(samples)
        spc = self.samples_per_chip
        pair_samples = 2 * spc
        needed = start_sample + (num_chips // 2 + 1) * pair_samples
        if samples.size < needed:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot supply "
                f"{num_chips} chips from offset {start_sample}")
        i_filtered = backend.matched_filter(
            np.ascontiguousarray(samples.real), self._matched)
        q_filtered = backend.matched_filter(
            np.ascontiguousarray(samples.imag), self._matched)
        # The matched filter peaks one pulse-length after each chip start.
        centers = self._chip_centers(num_chips, start_sample)
        soft = np.where(np.arange(num_chips) % 2 == 0,
                        i_filtered[centers], q_filtered[centers])
        return soft * np.sqrt(2.0)

    def soft_chips_reference(self, samples: np.ndarray, num_chips: int,
                             start_sample: int = 0) -> np.ndarray:
        """Scalar twin of :meth:`soft_chips` (tap-major accumulation)."""
        samples = backend.finite_samples(samples)
        spc = self.samples_per_chip
        pair_samples = 2 * spc
        needed = start_sample + (num_chips // 2 + 1) * pair_samples
        if samples.size < needed:
            raise DemodulationError(
                f"stream of {samples.size} samples cannot supply "
                f"{num_chips} chips from offset {start_sample}")
        taps = self._matched
        rails = []
        for rail in (samples.real, samples.imag):
            out = np.zeros(rail.size + taps.size - 1, dtype=np.float64)
            for k in range(taps.size):
                for i in range(rail.size):
                    out[k + i] += taps[k] * rail[i]
            rails.append(out)
        i_filtered, q_filtered = rails
        delay = taps.size - 1
        soft = np.empty(num_chips)
        for chip in range(num_chips):
            pair = chip // 2
            if chip % 2 == 0:
                center = start_sample + pair * pair_samples + delay
                soft[chip] = i_filtered[center]
            else:
                center = start_sample + pair * pair_samples + spc + delay
                soft[chip] = q_filtered[center]
        return soft * np.sqrt(2.0)
