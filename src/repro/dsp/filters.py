"""FIR filter design and streaming evaluation.

The tinySDR LoRa demodulator (paper Fig. 6b) runs received I/Q samples
through a 14-tap FIR low-pass filter before buffering them.  This module
provides windowed-sinc design (the standard way such a filter is produced
for an FPGA), a block convolution entry point, and a streaming filter that
preserves state across calls the way the hardware pipeline does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.phy import backend


def design_lowpass(num_taps: int, cutoff_hz: float, sample_rate_hz: float,
                   window: str = "hamming") -> np.ndarray:
    """Design a linear-phase FIR low-pass filter by the window method.

    Args:
        num_taps: filter length; the paper's demodulator uses 14.
        cutoff_hz: -6 dB cutoff frequency.
        sample_rate_hz: sampling rate of the signal the filter will see.
        window: ``"hamming"``, ``"hann"``, ``"blackman"`` or
            ``"rectangular"``.

    Returns:
        Tap array of length ``num_taps`` normalized to unity DC gain.

    Raises:
        ConfigurationError: for invalid lengths, cutoffs or window names.
    """
    if num_taps < 1:
        raise ConfigurationError(f"filter needs at least 1 tap, got {num_taps}")
    if sample_rate_hz <= 0.0:
        raise ConfigurationError(
            f"sample rate must be positive, got {sample_rate_hz!r}")
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ConfigurationError(
            f"cutoff {cutoff_hz!r} Hz must be within (0, Nyquist) for "
            f"{sample_rate_hz!r} Hz sampling")
    normalized = cutoff_hz / sample_rate_hz
    n = np.arange(num_taps, dtype=np.float64) - (num_taps - 1) / 2.0
    taps = 2.0 * normalized * np.sinc(2.0 * normalized * n)
    taps *= _window(window, num_taps)
    return taps / np.sum(taps)


def _window(name: str, length: int) -> np.ndarray:
    """Return a window function by name."""
    if name == "rectangular":
        return np.ones(length)
    if name == "hamming":
        return np.hamming(length)
    if name == "hann":
        return np.hanning(length)
    if name == "blackman":
        return np.blackman(length)
    raise ConfigurationError(f"unknown window {name!r}")


def filter_block(taps: np.ndarray, samples: np.ndarray,
                 step: int = 1) -> np.ndarray:
    """Filter one block of samples, returning the same-length aligned output.

    The output is delayed by the filter's group delay and truncated to the
    input length, so a caller can filter a buffered packet without having to
    track alignment (this is what the demodulator does with the FIFO
    contents).  This is the streaming FIR kernel run from a zero delay
    line over the block plus a zero pad that flushes the group delay
    (tap-major accumulation, see :mod:`repro.phy.backend`).  With
    ``step > 1`` only every ``step``-th output is computed: the result
    is ``filter_block(taps, samples)[::step]`` bit for bit.
    """
    taps = np.asarray(taps, dtype=np.float64)
    samples = np.asarray(samples)
    if samples.size == 0:
        return samples.copy()
    delay = (taps.size - 1) // 2
    # Aligned output i is convolution output i + delay, which reads
    # inputs up to i + delay: ``delay`` zeros flush the last one.
    padded = np.concatenate([samples, np.zeros(delay)])
    return backend.fir_carry(
        taps, np.zeros(taps.size - 1, dtype=np.complex128), padded,
        delay, step)


def filter_block_reference(taps: np.ndarray,
                           samples: np.ndarray) -> np.ndarray:
    """Scalar twin of :func:`filter_block` (tap-major accumulation order)."""
    taps = np.asarray(taps, dtype=np.float64)
    samples = np.asarray(samples)
    if samples.size == 0:
        return samples.copy()
    delay = (taps.size - 1) // 2
    out = np.empty(samples.size, dtype=np.complex128)
    for i in range(samples.size):
        acc = 0.0 + 0.0j
        for k in range(taps.size):
            m = i + delay - k
            if 0 <= m < samples.size:
                acc = acc + taps[k] * complex(samples[m])
        out[i] = acc
    return out


class StreamingFir:
    """FIR filter that preserves its delay line across calls.

    Mirrors the FPGA pipeline, where samples stream through the filter
    continuously rather than in isolated blocks.  Any chunking of the
    input yields the bit-exact whole-stream convolution.
    """

    def __init__(self, taps: np.ndarray) -> None:
        taps = np.asarray(taps, dtype=np.float64)
        if taps.size < 1:
            raise ConfigurationError("filter needs at least 1 tap")
        self._taps = taps
        self._state = np.zeros(taps.size - 1, dtype=np.complex128)

    @property
    def taps(self) -> np.ndarray:
        """The filter's tap array (copy)."""
        return self._taps.copy()

    def reset(self) -> None:
        """Clear the delay line."""
        self._state[:] = 0.0

    def process(self, samples: np.ndarray, first: int = 0,
                step: int = 1) -> np.ndarray:
        """Filter a block of samples, carrying state from previous blocks.

        Returns the block's outputs ``first, first + step, ...`` (all of
        them by default); the delay line takes in the whole block.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.size == 0:
            return samples.copy()
        output = backend.fir_carry(self._taps, self._state, samples,
                                   first, step)
        keep = self._state.size
        if keep:
            # The delay line is the last ``keep`` inputs of the history.
            if samples.size >= keep:
                self._state = samples[-keep:].copy()
            else:
                self._state = np.concatenate(
                    [self._state[samples.size:], samples])
        return output


def frequency_response(taps: np.ndarray, frequencies_hz: np.ndarray,
                       sample_rate_hz: float) -> np.ndarray:
    """Complex frequency response of an FIR filter at given frequencies."""
    if sample_rate_hz <= 0.0:
        raise ConfigurationError(
            f"sample rate must be positive, got {sample_rate_hz!r}")
    taps = np.asarray(taps, dtype=np.float64)
    omega = 2.0 * np.pi * np.asarray(frequencies_hz) / sample_rate_hz
    n = np.arange(taps.size)
    return np.exp(-1j * np.outer(omega, n)) @ taps
