"""LoRa demodulator (paper Fig. 6b).

The FPGA receive pipeline is: I/Q Deserializer -> 14-tap FIR low-pass ->
sample buffer -> Complex Multiplier (dechirp against a locally generated
base chirp) -> FFT -> Symbol Detector (peak search).  Chirp *type*
(up/down) is detected by dechirping with both an upchirp and a downchirp
and comparing the FFT peak magnitudes - exactly as described in the paper.

:class:`SymbolDemodulator` implements the dechirp-FFT-peak core;
:class:`PacketSynchronizer` locates packets (preamble run detection,
symbol-boundary alignment, SFD search, integer CFO estimation); and
:class:`LoRaDemodulator` combines them with the codec to recover payloads.
Multi-packet reception is the streaming receiver of
:mod:`repro.phy.lora.streaming`, which runs the same synchronizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import design_lowpass, filter_block
from repro.errors import DemodulationError
from repro.perf.cache import get_or_build
from repro.phy import backend
from repro.phy.lora.chirp import ideal_chirp
from repro.phy.lora.codec import (
    HEADER_CR_DENOMINATOR,
    DecodedPayload,
    LoRaCodec,
)
from repro.phy.lora.packet import (
    SyncResult,
    sync_word_from_symbols,
)
from repro.phy.lora.params import LoRaParams

FIR_TAPS = 14
"""The paper's demodulator uses a 14-tap FIR low-pass filter."""

MIN_PREAMBLE_RUN = 6
"""Consecutive equal preamble bins required to declare detection."""

HEADER_SYMBOLS = HEADER_CR_DENOMINATOR
"""Symbols in the explicit header block (one CR=4/8 interleaver block)."""

SCAN_WINDOWS = 16
"""Most windows one preamble-scan batch demodulates."""

WALK_WINDOWS = 8
"""Most windows one SFD-walk batch demodulates (each runs two FFTs)."""


@dataclass(frozen=True)
class SymbolDecision:
    """One demodulated chirp symbol.

    Attributes:
        value: detected cyclic shift (FFT peak bin, folded to ``2**SF``).
        magnitude: peak magnitude (detection confidence).
        is_upchirp: result of the up/down chirp-type comparison.
    """

    value: int
    magnitude: float
    is_upchirp: bool


class SymbolDemodulator:
    """Dechirp + FFT + peak detection for one LoRa configuration.

    The dechirp-FFT-fold kernel lives in :mod:`repro.phy.backend`.
    An integer-bin CFO is removed in the dechirp reference
    (:meth:`_dechirp_reference`).
    """

    def __init__(self, params: LoRaParams) -> None:
        self.params = params
        # The conjugate dechirp reference and base upchirp are shared
        # through the plan cache: every modem built for the same params
        # (testbed sweeps build one per node per config) reuses one
        # frozen table instead of regenerating it.
        self._downchirp = self._dechirp_reference(0)
        self._upchirp = get_or_build(
            ("lora_upchirp_ref", params), lambda: ideal_chirp(params, 0))

    @property
    def fft_length(self) -> int:
        """FFT size used per symbol (``2**SF * oversampling``)."""
        return self.params.samples_per_symbol

    def _dechirp_reference(self, cfo_bins: int) -> np.ndarray:
        """``conj(chirp) * exp(-2j*pi*cfo*n/sym)``, one per CFO bin.

        Derotating a window that starts at absolute sample ``p`` by the
        ramp ``exp(-2j*pi*cfo*(p + n)/sym)`` differs from this
        reference's in-window ramp only by the unit-modulus constant
        ``exp(-2j*pi*cfo*p/sym)``, which the FFT magnitude removes; so a
        window's decision never depends on where it sits in the stream.
        """
        params = self.params
        sym = params.samples_per_symbol

        def build() -> np.ndarray:
            reference = np.conj(ideal_chirp(params, 0))
            if cfo_bins:
                reference = reference * np.exp(
                    -2j * np.pi * cfo_bins * np.arange(sym) / sym)
            return reference

        return get_or_build(("lora_dechirp", params, cfo_bins), build)

    def _mags(self, windows: np.ndarray,
              reference: np.ndarray) -> np.ndarray:
        """Dechirped, folded FFT magnitudes for a window matrix."""
        return backend.dechirp_magnitudes(
            windows, reference, self.params.chips_per_symbol,
            self.params.oversampling)

    def demodulate(self, window: np.ndarray) -> SymbolDecision:
        """Demodulate one symbol-length window of samples.

        Raises:
            DemodulationError: if the window length is wrong.
        """
        window = np.asarray(window, dtype=np.complex128)
        if window.size != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected {self.params.samples_per_symbol} samples, "
                f"got {window.size}")
        up_mags = self._mags(window.reshape(1, -1), self._downchirp)[0]
        down_mags = self._mags(window.reshape(1, -1), self._upchirp)[0]
        up_bin = int(np.argmax(up_mags))
        down_bin = int(np.argmax(down_mags))
        if up_mags[up_bin] >= down_mags[down_bin]:
            return SymbolDecision(value=up_bin,
                                  magnitude=float(up_mags[up_bin]),
                                  is_upchirp=True)
        return SymbolDecision(value=down_bin,
                              magnitude=float(down_mags[down_bin]),
                              is_upchirp=False)

    def demodulate_upchirp(self, window: np.ndarray) -> tuple[int, float]:
        """Fast path assuming the window holds an upchirp symbol."""
        window = np.asarray(window, dtype=np.complex128)
        if window.size != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected {self.params.samples_per_symbol} samples, "
                f"got {window.size}")
        mags = self._mags(window.reshape(1, -1), self._downchirp)[0]
        bin_index = int(np.argmax(mags))
        return bin_index, float(mags[bin_index])

    def demodulate_upchirp_block(self, windows: np.ndarray,
                                 cfo_bins: int = 0
                                 ) -> tuple[np.ndarray, np.ndarray]:
        """Batched upchirp demodulation of a ``(count, sym)`` window matrix.

        Dechirps and FFTs every row at once, removing an integer carrier
        offset of ``cfo_bins`` bins in the dechirp; with no offset each
        row's decision is bit-exact with :meth:`demodulate_upchirp` on
        that window.

        Returns:
            ``(bins, magnitudes)`` arrays of length ``count``.

        Raises:
            DemodulationError: if the matrix width is not one symbol.
        """
        windows = np.asarray(windows, dtype=np.complex128)
        if windows.ndim != 2 or \
                windows.shape[1] != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected a (count, {self.params.samples_per_symbol}) "
                f"window matrix, got shape {windows.shape}")
        mags = self._mags(windows, self._dechirp_reference(cfo_bins))
        bins = np.argmax(mags, axis=1)
        return bins.astype(np.int64), mags[np.arange(mags.shape[0]), bins]

    def demodulate_block(self, windows: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched chirp-type demodulation of a ``(count, sym)`` matrix.

        Runs the up- and down-chirp comparisons for every row at once;
        row ``k`` reproduces :meth:`demodulate` on that window bit for
        bit.  This is the synchronizer's SFD-walk fast path.

        Returns:
            ``(values, magnitudes, is_upchirp)`` arrays of length
            ``count``.

        Raises:
            DemodulationError: if the matrix width is not one symbol.
        """
        windows = np.asarray(windows, dtype=np.complex128)
        if windows.ndim != 2 or \
                windows.shape[1] != self.params.samples_per_symbol:
            raise DemodulationError(
                f"expected a (count, {self.params.samples_per_symbol}) "
                f"window matrix, got shape {windows.shape}")
        up_mags = self._mags(windows, self._downchirp)
        down_mags = self._mags(windows, self._upchirp)
        rows = np.arange(windows.shape[0])
        up_bins = np.argmax(up_mags, axis=1)
        down_bins = np.argmax(down_mags, axis=1)
        up_peaks = up_mags[rows, up_bins]
        down_peaks = down_mags[rows, down_bins]
        is_up = up_peaks >= down_peaks
        values = np.where(is_up, up_bins, down_bins).astype(np.int64)
        magnitudes = np.where(is_up, up_peaks, down_peaks)
        return values, magnitudes, is_up

    def demodulate_stream(self, samples: np.ndarray,
                          num_symbols: int,
                          start: int = 0,
                          cfo_bins: int = 0) -> np.ndarray:
        """Demodulate ``num_symbols`` aligned upchirp symbols from a stream.

        Batched fast path: the symbols from sample ``start`` on are
        viewed as a window matrix and dechirped against the reference
        for ``cfo_bins`` all at once.  Decisions match
        :meth:`demodulate_stream_reference`.

        Raises:
            DemodulationError: if ``start`` or ``num_symbols`` is
                negative, or the stream is too short.
        """
        sym = self.params.samples_per_symbol
        samples = np.asarray(samples, dtype=np.complex128)
        self._check_stream(samples.size, num_symbols, start)
        if num_symbols == 0:
            return np.empty(0, dtype=np.int64)
        windows = samples[start:start + num_symbols * sym].reshape(
            num_symbols, sym)
        values, _ = self.demodulate_upchirp_block(windows, cfo_bins=cfo_bins)
        return values

    def demodulate_stream_reference(self, samples: np.ndarray,
                                    num_symbols: int,
                                    start: int = 0,
                                    cfo_bins: int = 0) -> np.ndarray:
        """One-symbol-per-call reference for :meth:`demodulate_stream`.

        Removes the CFO the direct way: every sample is derotated by
        the phase ramp of its absolute stream index before dechirping.
        """
        params = self.params
        sym = params.samples_per_symbol
        samples = np.asarray(samples, dtype=np.complex128)
        self._check_stream(samples.size, num_symbols, start)
        offset_hz = cfo_bins * params.bandwidth_hz / params.chips_per_symbol
        values = np.empty(num_symbols, dtype=np.int64)
        for i in range(num_symbols):
            idx = start + i * sym + np.arange(sym)
            window = samples[idx] * np.exp(
                -2j * np.pi * offset_hz / params.sample_rate_hz * idx)
            values[i], _ = self.demodulate_upchirp(window)
        return values

    def _check_stream(self, size: int, num_symbols: int, start: int) -> None:
        """Reject a symbol range that is negative or overruns the stream."""
        if start < 0 or num_symbols < 0 or \
                start + num_symbols * self.params.samples_per_symbol > size:
            raise DemodulationError(
                f"stream of {size} samples cannot hold {num_symbols} "
                f"symbols from offset {start}")


class PacketSynchronizer:
    """Locate LoRa packets in a raw sample stream.

    The search runs in three phases:

    1. **Preamble scan** - demodulate symbol-sized windows on a symbol-rate
       grid; a run of >= ``MIN_PREAMBLE_RUN`` windows whose upchirp bin is
       constant marks a preamble, and the bin value gives the sample
       misalignment (a window offset of ``e`` chips shifts the dechirped
       tone to bin ``e``).
    2. **SFD search** - from the aligned position, classify successive
       symbols as up/down chirps; the first downchirp starts the SFD and
       the two symbols preceding it carry the sync word.
    3. **CFO estimate** - the preamble (upchirp) bin measures ``timing +
       cfo`` while the SFD (downchirp) bin measures ``cfo - timing``;
       their combination isolates the integer-bin CFO.

    The search is a state machine over absolute sample positions that
    resumes where its samples ran out: :meth:`find_packet` runs it over
    one array, the streaming receiver over its sliding buffer.  Every
    decision is made per symbol window, so how the samples arrive never
    changes the result.  A batch holds at most ``SCAN_WINDOWS`` (scan)
    or ``WALK_WINDOWS`` (walk) windows, so a search over a long buffer
    demodulates little past the packet it finds.
    """

    def __init__(self, params: LoRaParams) -> None:
        self.params = params
        self.symbol_demod = SymbolDemodulator(params)
        self.restart(0)

    def restart(self, position: int) -> None:
        """Start a new search at absolute sample ``position``."""
        self._scan_pos = position
        self._run_start = position
        self._run_length = 0
        self._previous_bin = -1
        # Set once a preamble run is found: the next window to walk.
        self._walk_pos: int | None = None
        self._history: list[int] = []

    @property
    def keep_from(self) -> int:
        """First absolute sample a resumed search can still read."""
        sym = self.params.samples_per_symbol
        if self._walk_pos is None:
            # A run trigger reaches back MIN_PREAMBLE_RUN windows, and
            # alignment steps back under one more symbol.
            return self._scan_pos - (MIN_PREAMBLE_RUN + 2) * sym
        return self._walk_pos - sym

    def find_packet(self, samples: np.ndarray,
                    search_start: int = 0) -> SyncResult:
        """Find the first packet at or after ``search_start``.

        Restarts the search (see :meth:`restart`).

        Raises:
            DemodulationError: if no preamble/SFD can be located.
        """
        self.restart(search_start)
        sync = self.search(np.asarray(samples, dtype=np.complex128), 0)
        if sync is not None:
            return sync
        if self._walk_pos is None:
            raise DemodulationError("no LoRa preamble found in stream")
        raise DemodulationError("no SFD (downchirp) found after preamble")

    def search(self, samples: np.ndarray, start: int) -> SyncResult | None:
        """Advance the search over ``samples`` (absolute index ``start``).

        Returns the packet found, or ``None`` when the whole symbol
        windows run out first; a later call over more samples (still
        holding :attr:`keep_from` onward) resumes the search there.
        """
        sym = self.params.samples_per_symbol
        end = start + samples.size
        while self._walk_pos is None:
            count = min((end - self._scan_pos) // sym, SCAN_WINDOWS)
            if count <= 0:
                return None
            self._scan(self._windows(samples, start, self._scan_pos, count))
        while True:
            count = min((end - self._walk_pos) // sym, WALK_WINDOWS)
            if count <= 0:
                return None
            sync = self._walk(
                self._windows(samples, start, self._walk_pos, count))
            if sync is not None:
                return sync

    def _windows(self, samples: np.ndarray, start: int, position: int,
                 count: int) -> np.ndarray:
        """``count`` symbol windows from absolute ``position`` on."""
        sym = self.params.samples_per_symbol
        base = position - start
        return samples[base:base + count * sym].reshape(count, sym)

    def _scan(self, windows: np.ndarray) -> None:
        """Track the run of constant upchirp bins; align when it is long."""
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        bins, _ = self.symbol_demod.demodulate_upchirp_block(windows)
        for local, bin_index in enumerate(bins):
            bin_index = int(bin_index)
            delta = (bin_index - self._previous_bin) % n
            if self._previous_bin >= 0 and (delta <= 1 or delta == n - 1):
                self._run_length += 1
            else:
                self._run_start = self._scan_pos + local * sym
                self._run_length = 1
            self._previous_bin = bin_index
            if self._run_length >= MIN_PREAMBLE_RUN:
                # A window starting e samples after the packet's symbol
                # grid sees the repeated-upchirp peak at bin (w - p)/os
                # mod N, so stepping back by bin*os chips lands on a
                # packet symbol boundary.
                aligned = self._run_start - \
                    bin_index * self.params.oversampling
                while aligned < 0:
                    aligned += sym
                self._walk_pos = aligned
                return
        self._scan_pos += len(bins) * sym

    def _walk(self, windows: np.ndarray) -> SyncResult | None:
        """Classify aligned symbols until the first downchirp (SFD)."""
        sym = self.params.samples_per_symbol
        values, _, is_up = self.symbol_demod.demodulate_block(windows)
        for local, value in enumerate(values):
            # Every symbol walked before the SFD joins the history, so
            # its length is this symbol's index in the walk.
            if not is_up[local] and len(self._history) >= 3:
                return self._sync_result(self._walk_pos + local * sym,
                                         int(value))
            self._history.append(int(value))
        self._walk_pos += len(values) * sym
        return None

    def _sync_result(self, sfd_start: int, down_bin: int) -> SyncResult:
        """CFO, sync word and payload position once the SFD is found.

        ``down_bin`` is the SFD window's downchirp bin; the history holds
        the preamble bins followed by the two sync-word symbols.
        """
        sym = self.params.samples_per_symbol
        n = self.params.chips_per_symbol
        up_bin = int(np.median(self._history[:-2]))
        cfo_bins = estimate_cfo_bins(n, up_bin, down_bin)
        # The preamble bin measured timing + CFO together; take the CFO
        # share back out of the timing estimate.
        sfd_start += cfo_bins * self.params.oversampling
        sync_high, sync_low = self._history[-2:]
        return SyncResult(
            payload_start=sfd_start + int(round(2.25 * sym)),
            sync_word=sync_word_from_symbols(
                self.params, (sync_high - cfo_bins) % n,
                (sync_low - cfo_bins) % n),
            cfo_bins=cfo_bins)


@dataclass(frozen=True)
class ReceivedPacket:
    """One packet recovered by :meth:`LoRaDemodulator.receive_all`.

    Attributes:
        decoded: the codec output (payload bytes, CRC status, ...).
        payload_start: input sample index of the first payload symbol
            (its chip index times the oversampling).
        cfo_bins: integer carrier frequency offset estimate.
        symbols: the raw demodulated payload symbol values.
        sync_word: the packet's sync word.
    """

    decoded: DecodedPayload
    payload_start: int
    cfo_bins: int
    symbols: tuple[int, ...]
    sync_word: int


def estimate_cfo_bins(n: int, up_bin: int, down_bin: int) -> int:
    """Integer CFO from the up/down bin pair (both ~ cfo +- timing)."""

    def signed(b: int) -> int:
        return b - n if b > n // 2 else b

    return (signed(up_bin) + signed(down_bin)) // 2


def receive_fir_taps(params: LoRaParams) -> np.ndarray | None:
    """The receive low-pass taps, or ``None`` when the FIR is off.

    The filter runs only when oversampling > 1: at critical sampling the
    signal already occupies the whole band and the filter would bite
    into the outer bins.
    """
    if params.oversampling <= 1:
        return None
    cutoff_hz = params.bandwidth_hz / 2.0 * 1.1
    return get_or_build(
        ("fir_lowpass", FIR_TAPS, cutoff_hz, params.sample_rate_hz),
        lambda: design_lowpass(FIR_TAPS, cutoff_hz=cutoff_hz,
                               sample_rate_hz=params.sample_rate_hz))


class LoRaDemodulator:
    """Full receive chain: FIR front-end, synchronizer, symbol demod, codec.

    The paper's 14-tap low-pass runs in front of the demodulator when
    oversampling > 1 (:func:`receive_fir_taps`) and keeps one output per
    chip, so :attr:`synchronizer` and :attr:`symbol_demod` run at chip
    rate, on ``params.with_oversampling(1)``.

    Args:
        params: LoRa PHY configuration.
        crc: expect a payload CRC (must match the transmitter).
    """

    def __init__(self, params: LoRaParams, crc: bool = True) -> None:
        self.params = params
        self.codec = LoRaCodec(params, crc=crc)
        self.synchronizer = PacketSynchronizer(params.with_oversampling(1))
        self.symbol_demod = self.synchronizer.symbol_demod
        self._fir_taps = receive_fir_taps(params)

    def frontend(self, samples: np.ndarray) -> np.ndarray:
        """The receive FIR at chip rate (identity at oversampling 1).

        Returns ``filter_block(taps, samples)[::oversampling]``, one
        output per chip, computing only those outputs.
        """
        if self._fir_taps is None:
            return np.asarray(samples, dtype=np.complex128)
        return filter_block(self._fir_taps, samples,
                            self.params.oversampling)

    def receive(self, samples: np.ndarray,
                payload_symbols: int | None = None) -> DecodedPayload:
        """Find and decode the first packet in a sample stream.

        Args:
            samples: raw complex baseband stream.
            payload_symbols: number of payload symbols to demodulate;
                derived from the explicit header when omitted (the codec
                decodes as many whole blocks as are present).

        Raises:
            DemodulationError: when no packet can be found, or
                ``samples`` is not a numeric array or holds a NaN or
                infinite sample.
        """
        filtered = self.frontend(backend.finite_samples(samples))
        sync = self.synchronizer.find_packet(filtered)
        start = sync.payload_start
        if payload_symbols is None:
            payload_symbols = max(
                0, (filtered.size - start) // self.params.chips_per_symbol)
        values = self.symbol_demod.demodulate_stream(
            filtered, payload_symbols, start, sync.cfo_bins)
        return self.codec.decode(values)

    def receive_all(self, samples: np.ndarray) -> list[ReceivedPacket]:
        """Find and decode every packet in a sample stream.

        This is one ``push`` of the whole stream plus ``flush`` on a
        fresh :class:`~repro.phy.lora.streaming.StreamingDemodulator`:
        each packet's explicit header gives its symbol count, and a
        truncated final packet (header promises more symbols than the
        stream holds) is never demodulated.

        Requires explicit-header mode (the header carries the length).

        Raises:
            DemodulationError: in implicit-header mode, or when
                ``samples`` is not a numeric array or holds a NaN or
                infinite sample.
        """
        # Imported here: the streaming receiver builds on this module.
        from repro.phy.lora.streaming import StreamingDemodulator

        if not self.params.explicit_header:
            raise DemodulationError(
                "receive_all requires explicit-header mode")
        receiver = StreamingDemodulator(self.params, crc=self.codec.crc)
        return receiver.push(samples) + receiver.flush()
