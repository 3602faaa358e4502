"""Measurement helpers: the tail-percentile rule and host-speed calibration.

Nothing here imports the program under test, and NumPy is imported
lazily, so a set-up probe can load this module before it starts timing
the program's own imports.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import statistics
import time

MIN_BEYOND = 10
"""Samples that must lie above a reported percentile for it to count."""

CALIBRATION_SHARE = 0.12
"""Share of each operation's wall time spent re-running the calibration."""

NOMINAL_SLICE_S = 5.0e-3
"""Calibration slice time of the reference host (2-vCPU x86-64 VM,
Python 3.11, NumPy 2.4, uncontended).  Scaled figures read as if
measured there."""

LOCAL_MARGIN_S = 0.02
"""Calibration samples this close to a timed operation scale it, or as
close as the operation is long, whichever is wider."""

LOCAL_MIN_SAMPLES = 8
"""Fewest calibration samples one scale factor is taken from."""

EPOCH_S = 1.0
"""Operation time per throughput epoch; throughput is their median."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_supported(count: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``count`` samples put at least ``min_beyond`` above the
    ``q``-th percentile (p99 needs 1000 samples)."""
    return count * (100.0 - q) >= min_beyond * 100.0 - 1e-9


def tail(values, q: float = 99.0) -> tuple[float, str]:
    """The ``q``-th percentile when the sample supports it, else the maximum.

    Returns the value and a label naming what it is (``"p99"`` or
    ``"max of 6"``), so a tail too thin for ``q`` is never passed off as
    one.
    """
    values = list(values)
    if tail_supported(len(values), q):
        return percentile(values, q), f"p{q:g}"
    return max(values), f"max of {len(values)}"


def spread(values) -> float:
    """Interquartile range as a share of the median (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def scale_time(raw_s: float, calibration_s: float) -> float:
    """A time rescaled to the reference host: ``raw * nominal / measured``."""
    return raw_s * NOMINAL_SLICE_S / calibration_s


def local_calibrations(stamps: list[tuple[float, float]],
                       operations: list[tuple[float, float]],
                       margin: float = LOCAL_MARGIN_S,
                       minimum: int = LOCAL_MIN_SAMPLES) -> list[float]:
    """For each timed ``(start, end)`` operation, the median slice time of
    the calibration samples taken around it.

    ``stamps`` are ``(time, slice seconds)`` in time order.  An operation
    takes the samples stamped within ``max(margin, its length)`` of its
    ends, so a short operation is scaled by the host speed of the last
    few milliseconds and a long one by the samples on both sides of it.
    When that holds fewer than ``minimum`` samples, the ``minimum``
    nearest to the operation's middle are taken instead.
    """
    times = [stamp for stamp, _ in stamps]
    values = [value for _, value in stamps]
    medians = []
    for start, end in operations:
        reach = max(margin, end - start)
        low = bisect.bisect_left(times, start - reach)
        high = bisect.bisect_right(times, end + reach)
        middle = (start + end) / 2
        while high - low < min(minimum, len(times)):
            before = middle - times[low - 1] if low > 0 else math.inf
            after = times[high] - middle if high < len(times) else math.inf
            if before <= after:
                low -= 1
            else:
                high += 1
        medians.append(statistics.median(values[low:high]))
    return medians


def epoch_bounds(op_seconds: list[float],
                 minimum: float = EPOCH_S) -> list[tuple[int, int]]:
    """Split operations into consecutive ``[lo, hi)`` epochs of at least
    ``minimum`` seconds of operation time; a short remainder joins the
    last epoch."""
    bounds: list[tuple[int, int]] = []
    lo = 0
    total = 0.0
    for index, seconds in enumerate(op_seconds):
        total += seconds
        if total >= minimum:
            bounds.append((lo, index + 1))
            lo = index + 1
            total = 0.0
    if lo < len(op_seconds):
        if bounds:
            bounds[-1] = (bounds[-1][0], len(op_seconds))
        else:
            bounds.append((lo, len(op_seconds)))
    return bounds


class Calibrator:
    """Fixed host-speed probe, interleaved with the workload's operations.

    One slice runs a radix-2 FFT written in NumPy array operations, an
    interpreter-bound loop and a json + SHA-256 round: the kinds of
    work the workloads spend their time on, in shares of about a half,
    a third and a sixth.  The FFT works on a 64 x 512 matrix whose
    working set nears the L2 cache, as the LoRa receiver's window
    matrices and the fleet's 100k-node arrays do, so the slice feels
    contention for the shared cache and memory as the workloads do;
    the loop feels contention for the core.  A slice of small arrays
    only missed the first kind and, on a contended 2-vCPU host, left
    the LoRa workload's scaled p50 spread across runs at 15%.
    :meth:`after_op` keeps calibration at :data:`CALIBRATION_SHARE` of
    operation time by running batches against an accumulated debt, so
    short and long operations are sampled alike.  Each batch first runs
    one untimed slice: an operation leaves the caches cold, and how
    often that happens depends on operation length, which must not
    move the factor.  Samples are time-stamped so that each operation
    is scaled by the ones taken around it: a neighbour's load on a
    shared host changes within a run.  Over ten paired seeds on a
    contended 2-vCPU host, one run-wide factor instead left the service
    workload's scaled p99 spread at 19% against 5.5%.
    """

    BATCH = 2
    ROWS = 64
    POINTS = 512
    LOOP = 18000
    DOCUMENT_ENTRIES = 800

    def __init__(self) -> None:
        import numpy as np

        self.stamps: list[tuple[float, float]] = []
        self.spent_s = 0.0
        self._debt = 0.0
        bits = self.POINTS.bit_length() - 1
        self._order = np.array([int(format(i, f"0{bits}b")[::-1], 2)
                                for i in range(self.POINTS)])
        self._twiddles = []
        half = 1
        while half < self.POINTS:
            self._twiddles.append(
                np.exp(-2j * np.pi * np.arange(half) / (2 * half)))
            half *= 2
        phase = np.arange(self.ROWS * self.POINTS) * 0.001
        self._rows = np.exp(1j * phase * phase).reshape(
            self.ROWS, self.POINTS)
        self._document = {f"key{i:04d}": [i, i * 0.5, f"v{i}"]
                          for i in range(self.DOCUMENT_ENTRIES)}

    def fft(self):
        """Row-wise DFT of the fixed input by radix-2 butterflies."""
        data = self._rows[:, self._order]
        half = 1
        for twiddle in self._twiddles:
            span = 2 * half
            shaped = data.reshape(self.ROWS, -1, span)
            even = shaped[:, :, :half].copy()
            odd = shaped[:, :, half:] * twiddle
            shaped[:, :, :half] = even + odd
            shaped[:, :, half:] = even - odd
            half = span
        return data

    def _slice(self) -> float:
        start = time.perf_counter()
        self.fft()
        acc = 0
        for i in range(self.LOOP):
            acc = (acc + i * i) % 1_000_003
        text = json.dumps(self._document, sort_keys=True)
        hashlib.sha256((text + str(acc)).encode()).hexdigest()
        return time.perf_counter() - start

    def run(self, count: int = BATCH) -> float:
        """One untimed warm-up slice, then ``count`` recorded slices.

        Returns the wall time spent, warm-up included.
        """
        spent = self._slice()
        for _ in range(count):
            elapsed = self._slice()
            self.stamps.append((time.perf_counter(), elapsed))
            spent += elapsed
        self.spent_s += spent
        return spent

    def after_op(self, op_seconds: float) -> None:
        """Charge one operation's share of calibration and pay it off."""
        self._debt += CALIBRATION_SHARE * op_seconds
        while self._debt > 0.0:
            self._debt -= self.run()

    def median_s(self) -> float:
        """Median slice time over the whole run."""
        return statistics.median(value for _, value in self.stamps)
