"""The NumPy DSP kernels every PHY chain runs on.

One module holds the sample-level hot kernels: the batched radix-2 FFT,
the FIR, the LoRa dechirp-fold, the BLE discriminator and
integrate-and-dump, and the O-QPSK matched filter.  Their outputs are
pinned bit for bit by the ``*_reference`` scalar twins and the
golden-vector corpus (``tests/fixtures/phy_golden``).

FFT kernels receive their plan as the ``(permutation, stage_twiddles)``
pair built by :class:`repro.dsp.fft.Radix2Fft` — ``permutation`` is the
bit-reverse index array and ``stage_twiddles`` one frozen twiddle array
per butterfly stage, sliced from the master twiddle table.

The FIR / integration kernels use explicit **tap-major accumulation**
(ascending tap index, one vectorized slice-add per tap) instead of
``np.convolve``/``np.sum``: BLAS-backed convolve sums each window in an
architecture-dependent order that scalar code cannot reproduce, whereas
tap-major order is deterministic, independent of how a stream is
chunked, and exactly mirrored by the scalar twins.  Sequential
integration matches ``np.sum`` for the window sizes the modems use
(NumPy switches to pairwise blocking only at 16+ elements), so
historical GFSK decisions are unchanged.

Callers look kernels up on this module at call time, so replacing a
module attribute (as a profiler does) reaches every PHY chain.
"""

from __future__ import annotations

import sys
from types import ModuleType

import numpy as np


def get_backend() -> ModuleType:
    """The kernel set: this module."""
    return sys.modules[__name__]


def fft_block(permutation: np.ndarray,
              stage_twiddles: tuple[np.ndarray, ...],
              blocks: np.ndarray) -> np.ndarray:
    """Radix-2 DIT forward FFT of each row of a ``(count, n)`` matrix."""
    data = blocks[:, permutation].astype(np.complex128)
    half = 1
    for twiddle in stage_twiddles:
        span = half * 2
        shaped = data.reshape(data.shape[0], -1, span)
        even = shaped[:, :, :half].copy()
        odd = shaped[:, :, half:] * twiddle
        shaped[:, :, :half] = even + odd
        shaped[:, :, half:] = even - odd
        half = span
    return data


def fir_carry(taps: np.ndarray, carry: np.ndarray,
              chunk: np.ndarray) -> np.ndarray:
    """Streaming FIR step: ``len(chunk)`` new running-convolution outputs.

    ``carry`` holds the previous ``taps.size - 1`` input samples (zeros
    at stream start); output ``j`` is ``sum_k taps[k] * x[prev + j - k]``
    over the concatenated input history — exactly the next slice of the
    whole-stream convolution.
    """
    if chunk.size == 0:
        return np.zeros(0, dtype=np.complex128)
    extended = np.concatenate([
        np.ascontiguousarray(carry, dtype=np.complex128),
        np.ascontiguousarray(chunk, dtype=np.complex128)])
    num_taps = taps.size
    n_out = extended.size - num_taps + 1
    acc = np.zeros(n_out, dtype=np.complex128)
    for k in range(num_taps):
        acc += taps[k] * extended[num_taps - 1 - k:num_taps - 1 - k + n_out]
    return acc


def dechirp_magnitudes(windows: np.ndarray, reference: np.ndarray,
                       permutation: np.ndarray,
                       stage_twiddles: tuple[np.ndarray, ...],
                       n_bins: int, oversampling: int) -> np.ndarray:
    """Dechirp + FFT + magnitude fold of a ``(count, sym)`` matrix.

    Multiplies each window by the conjugate-chirp ``reference``,
    transforms every row, takes magnitudes and folds the oversampled
    spectrum onto the ``n_bins`` symbol alphabet.
    """
    spectra = np.abs(fft_block(permutation, stage_twiddles,
                               windows * reference))
    if oversampling == 1:
        return spectra
    folded = spectra[:, :n_bins].copy()
    folded += spectra[:, (oversampling - 1) * n_bins:oversampling * n_bins]
    return folded


def discriminate(samples: np.ndarray) -> np.ndarray:
    """Per-sample phase increments ``angle(x[1:] * conj(x[:-1]))``."""
    rotation = samples[1:] * np.conj(samples[:-1])
    return np.angle(rotation)


def integrate_bits(freq: np.ndarray, start: int, num_bits: int,
                   sps: int) -> np.ndarray:
    """Integrate-and-dump symbol metrics over ``sps``-sample windows."""
    # The discriminator output is one sample shorter than its input, so
    # the final window may be truncated; integrate whole windows as a
    # matrix and finish any ragged tail scalar-wise (same sequential
    # order either way).
    segment = freq[start:start + num_bits * sps]
    full = min(segment.size // sps, num_bits)
    out = np.empty(num_bits, dtype=np.float64)
    if full:
        windows = segment[:full * sps].reshape(full, sps)
        acc = windows[:, 0].astype(np.float64)
        for j in range(1, sps):
            acc = acc + windows[:, j]
        out[:full] = acc
    for b in range(full, num_bits):
        window = segment[b * sps:(b + 1) * sps]
        metric = float(window[0]) if window.size else 0.0
        for j in range(1, window.size):
            metric = metric + window[j]
        out[b] = metric
    return out


def matched_filter(samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full-mode real convolution (the half-sine matched filter)."""
    out = np.zeros(samples.size + taps.size - 1, dtype=np.float64)
    for k in range(taps.size):
        out[k:k + samples.size] += taps[k] * samples
    return out
