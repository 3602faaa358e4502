"""Chunked streaming LoRa demodulation with explicit carry-over state.

A testbed access point streams I/Q off the radio continuously, so
:class:`StreamingDemodulator` accepts a capture in arbitrary chunks —
down to one sample at a time — and produces the *bit-identical* packet
list while holding only a bounded sample window.  It is the one
multi-packet receiver: :meth:`LoRaDemodulator.receive_all` is a single
``push`` of the whole capture plus ``flush``.

Chunk invariance rests on three properties, each pinned by the parity
suites:

1. The FIR front-end uses tap-major accumulation
   (:mod:`repro.phy.backend`), whose per-output add order is independent
   of how the input is chunked, and keeps the outputs at absolute
   multiples of ``oversampling``, a phase it carries across chunks; so
   the streamed chip-rate output equals ``filter_block(...)[::os]`` on
   the whole capture bit for bit.
2. Every synchronizer decision (preamble run bookkeeping, SFD walk,
   CFO estimate) is made per symbol-window on a fixed sample grid by
   :class:`PacketSynchronizer`, which resumes where the buffered samples
   ran out.
3. A payload window is dechirped against the reference for the packet's
   CFO, which depends on neither the window's position nor the rows
   that share its batch (each FFT row is transformed on its own), so a
   window's magnitudes are the same however the capture was chunked.

**Streaming-state discipline**: every buffer this class keeps is
trimmed to a bounded window each :meth:`push`, so memory use is
independent of capture length, and :meth:`reset` re-initializes all of
it (a property test compares a reset instance with a fresh one).  A truncated final symbol is never
demodulated — partial windows wait in the buffer for more samples and
are discarded by :meth:`flush`, so they cannot shift earlier decisions.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import StreamingFir
from repro.errors import ConfigurationError
from repro.phy import backend
from repro.phy.lora.codec import LoRaCodec
from repro.phy.lora.demodulator import (
    HEADER_SYMBOLS,
    PacketSynchronizer,
    ReceivedPacket,
    receive_fir_taps,
)
from repro.phy.lora.packet import SyncResult
from repro.phy.lora.params import LoRaParams


class _AlignedStreamingFir:
    """Streaming twin of the aligned block FIR, keeping every ``step``-th
    output.

    Across any chunking, the concatenated outputs equal
    ``filter_block(taps, stream, step)`` — ``filter_block(taps,
    stream)[::step]`` — bit for bit: convolution output ``m`` is aligned
    output ``m - delay``, only those at a multiple of ``step`` are
    computed, and :meth:`flush` pushes the ``delay`` zeros the block
    path appends.
    """

    def __init__(self, taps: np.ndarray, step: int = 1) -> None:
        self._fir = StreamingFir(taps)
        self._delay = (taps.size - 1) // 2
        self._step = step
        self._to_skip = self._delay

    def process(self, chunk: np.ndarray) -> np.ndarray:
        out = self._fir.process(chunk, self._to_skip, self._step)
        # Convolution outputs from the start of the next chunk up to the
        # next one kept: the phase carried across chunks.
        self._to_skip += out.size * self._step - chunk.size
        return out

    def flush(self) -> np.ndarray:
        """Emit the delayed tail by pushing the block path's zero pad."""
        return self.process(np.zeros(self._delay, dtype=np.complex128))

    def reset(self) -> None:
        self._fir.reset()
        self._to_skip = self._delay


class StreamingDemodulator:
    """Incremental multi-packet LoRa receiver.

    Feed arbitrary sample chunks with :meth:`push`; each call returns
    the packets completed by that chunk.  :meth:`flush` ends the capture
    (emitting any packet the FIR tail completes and discarding partial
    state).  The packet list does not depend on the chunking.  The
    paper's 14-tap low-pass front-end runs when oversampling > 1, the
    same rule as :class:`LoRaDemodulator`, and keeps one output per
    chip: the buffer, :attr:`synchronizer` and :attr:`symbol_demod`
    run at chip rate (on ``params.with_oversampling(1)``), while
    :attr:`ReceivedPacket.payload_start` counts input samples.

    Args:
        params: LoRa PHY configuration (explicit-header mode required —
            streaming reception learns packet lengths from the header).
        crc: expect a payload CRC (must match the transmitter).
    """

    def __init__(self, params: LoRaParams, crc: bool = True) -> None:
        if not params.explicit_header:
            raise ConfigurationError(
                "streaming demodulation requires explicit-header mode "
                "(packet lengths come from the PHY header)")
        self.params = params
        self.codec = LoRaCodec(params, crc=crc)
        self.synchronizer = PacketSynchronizer(params.with_oversampling(1))
        self.symbol_demod = self.synchronizer.symbol_demod
        taps = receive_fir_taps(params)
        self._fir = None if taps is None \
            else _AlignedStreamingFir(taps, params.oversampling)
        self.reset()

    # -- public API --------------------------------------------------------

    @property
    def buffered_samples(self) -> int:
        """Chip-rate samples currently held (bounded; see module doc)."""
        return self._buffer.size

    def push(self, chunk: np.ndarray) -> list[ReceivedPacket]:
        """Feed one chunk of raw samples; return packets it completed.

        Raises:
            DemodulationError: when the chunk is not a numeric array
                or a sample is NaN or infinite (the offset is the
                chunk's; the receiver state is untouched).
        """
        if self._finished:
            raise ConfigurationError(
                "demodulator was flushed; call reset() to start a new "
                "capture")
        chunk = backend.finite_samples(chunk).reshape(-1)
        filtered = self._fir.process(chunk) if self._fir is not None \
            else chunk
        self._append(filtered)
        return self._drain()

    def flush(self) -> list[ReceivedPacket]:
        """End the capture: drain the FIR tail, discard partial packets."""
        if self._finished:
            return []
        if self._fir is not None:
            self._append(self._fir.flush())
        packets = self._drain()
        self._finished = True
        return packets

    def reset(self) -> None:
        """Forget all carried state and start a fresh capture."""
        if self._fir is not None:
            self._fir.reset()
        self._buffer = np.zeros(0, dtype=np.complex128)
        self._buffer_start = 0
        self._restart(0)
        self._finished = False

    # -- buffer management -------------------------------------------------

    def _append(self, filtered: np.ndarray) -> None:
        if filtered.size:
            self._buffer = np.concatenate([self._buffer, filtered])

    def _trim(self) -> None:
        """Drop samples no state can reference again."""
        keep_from = self.synchronizer.keep_from if self._sync is None \
            else self._payload_pos()
        # keep_from may point beyond the buffered data (an SFD detected
        # near the buffer end puts payload_start past it); never advance
        # buffer_start further than the samples actually dropped, or the
        # next append would land at the wrong stream position.
        cut = min(keep_from - self._buffer_start, self._buffer.size)
        if cut > 0:
            self._buffer = self._buffer[cut:].copy()
            self._buffer_start += cut

    # -- state transitions -------------------------------------------------

    def _restart(self, search: int) -> None:
        """Search for the next packet from absolute chip ``search``."""
        self.synchronizer.restart(search)
        self._sync: SyncResult | None = None
        self._symbols: list[int] = []
        self._symbols_needed: int | None = None

    def _drain(self) -> list[ReceivedPacket]:
        packets: list[ReceivedPacket] = []
        while True:
            if self._sync is None:
                self._sync = self.synchronizer.search(self._buffer,
                                                      self._buffer_start)
            if self._sync is None or not self._collect_payload(packets):
                break
        self._trim()
        return packets

    def _collect_payload(self, packets: list[ReceivedPacket]) -> bool:
        """Demodulate payload symbols; decode the header, then the packet.

        Returns ``False`` when the buffer holds too few samples to go on.
        """
        sym = self.params.chips_per_symbol
        target = HEADER_SYMBOLS if self._symbols_needed is None \
            else self._symbols_needed
        position = self._payload_pos()
        available = (self._buffer_start + self._buffer.size - position) \
            // sym
        count = min(available, target - len(self._symbols))
        if count > 0:
            values = self.symbol_demod.demodulate_stream(
                self._buffer, count, position - self._buffer_start,
                self._sync.cfo_bins)
            self._symbols.extend(int(v) for v in values)
        if len(self._symbols) < target:
            return False
        start = self._sync.payload_start
        if self._symbols_needed is None:
            self._symbols_needed = self._announced_symbols()
            if self._symbols_needed is None:
                # Corrupt header: resume scanning just past it.
                self._restart(start + HEADER_SYMBOLS * sym)
            return True
        packets.append(ReceivedPacket(
            decoded=self.codec.decode(
                np.asarray(self._symbols, dtype=np.int64)),
            payload_start=start * self.params.oversampling,
            cfo_bins=self._sync.cfo_bins,
            symbols=tuple(self._symbols),
            sync_word=self._sync.sync_word))
        self._restart(start + self._symbols_needed * sym)
        return True

    def _payload_pos(self) -> int:
        """Absolute chip index of the next payload symbol to demodulate."""
        return self._sync.payload_start + \
            len(self._symbols) * self.params.chips_per_symbol

    def _announced_symbols(self) -> int | None:
        """Packet length in symbols from the header, ``None`` if corrupt."""
        header = self.codec.decode_header(
            np.asarray(self._symbols, dtype=np.int64))
        if not header.header_ok:
            return None
        return HEADER_SYMBOLS + self.codec.payload_section_symbols(
            header.payload_length, header.coding_rate_denominator,
            header.crc_flag)
