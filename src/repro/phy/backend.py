"""The NumPy DSP kernels every PHY chain runs on.

One module holds the sample-level hot kernels: the FIR, the LoRa
dechirp-FFT-fold, the BLE discriminator and integrate-and-dump, and the
O-QPSK matched filter.  :func:`finite_samples` guards them: the LoRa,
GFSK and O-QPSK receivers pass every capture through it, so input that
is not a numeric array, or a NaN or infinite sample, raises a
``DemodulationError`` (naming the type, or the sample's offset)
instead of reaching a kernel.  The FIR, GFSK and O-QPSK kernels are pinned bit
for bit by their ``*_reference`` scalar twins and the golden-vector
corpus (``tests/fixtures/phy_golden``).

The LoRa FFT is ``numpy.fft``.  The paper's receiver runs its FFT on a
fixed-point Lattice IP core, so the float bits of a transform model
nothing physical; what the corpus pins for LoRa is the decisions
(symbols, bytes, flags, positions).  :class:`repro.dsp.fft.Radix2Fft`
keeps the radix-2 butterflies as the model of that core and as the
tests' oracle for :func:`dechirp_magnitudes`.

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

from repro.errors import DemodulationError


def get_backend() -> ModuleType:
    """The kernel set: this module."""
    return sys.modules[__name__]


def finite_samples(samples: np.ndarray) -> np.ndarray:
    """``samples`` as complex128, refusing all but finite numbers.

    Raises:
        DemodulationError: naming the type and dtype of input that is
            not a numeric array, or the offset of the first NaN or
            infinite sample.
    """
    try:
        array = np.asarray(samples)
    except (TypeError, ValueError) as exc:
        raise DemodulationError(
            f"samples must be a numeric array, got "
            f"{type(samples).__name__} ({exc})") from None
    if not np.issubdtype(array.dtype, np.number):
        raise DemodulationError(
            f"samples must be a numeric array, got "
            f"{type(samples).__name__} of dtype {array.dtype}")
    samples = np.ascontiguousarray(array, dtype=np.complex128)
    flat = samples.reshape(-1)
    # One pass over the interleaved floats: half the cost of the complex
    # isfinite, which the 16 ksample chunks of a live capture pay.
    if not np.isfinite(flat.view(np.float64)).all():
        offset = int(np.argmin(np.isfinite(flat)))
        raise DemodulationError(
            f"sample {offset} is not finite ({flat[offset]})")
    return samples


def fir_carry(taps: np.ndarray, carry: np.ndarray, chunk: np.ndarray,
              first: int = 0, step: int = 1) -> np.ndarray:
    """Streaming FIR step: the running-convolution outputs of ``chunk``.

    ``carry`` holds the previous ``taps.size - 1`` input samples (zeros
    at stream start); output ``j`` is ``sum_k taps[k] * x[prev + j - k]``
    over the concatenated input history — exactly the next slice of the
    whole-stream convolution.  Only outputs ``first, first + step, ...``
    below ``len(chunk)`` are computed, each by the same tap-major sum, so
    the result is ``full[first::step]`` bit for bit.
    """
    extended = np.concatenate([
        np.ascontiguousarray(carry, dtype=np.complex128),
        np.ascontiguousarray(chunk, dtype=np.complex128)])
    num_taps = taps.size
    n_out = len(range(first, extended.size - num_taps + 1, step))
    acc = np.zeros(n_out, dtype=np.complex128)
    if n_out == 0:
        return acc
    span = (n_out - 1) * step + 1
    for k in range(num_taps):
        start = num_taps - 1 - k + first
        acc += taps[k] * extended[start:start + span:step]
    return acc


def dechirp_magnitudes(windows: np.ndarray, reference: np.ndarray,
                       n_bins: int, oversampling: int) -> np.ndarray:
    """Dechirp + FFT + magnitude fold of a ``(count, sym)`` matrix.

    Multiplies each window by the dechirp ``reference``, transforms
    every row, takes magnitudes and folds the oversampled spectrum onto
    the ``n_bins`` symbol alphabet.  Each row's result depends only on
    that row, never on how many rows share the call.
    """
    spectra = np.fft.fft(windows * reference, axis=1)
    if oversampling == 1:
        return np.abs(spectra)
    return np.abs(spectra[:, :n_bins]) + \
        np.abs(spectra[:, (oversampling - 1) * n_bins:])


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
