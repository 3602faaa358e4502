"""Streaming demodulator: chunk invariance, tail windows, bounded memory.

The contract under test: for ANY chunking of a capture — including one
sample at a time — :class:`StreamingDemodulator` emits the bit-identical
packet list that :meth:`LoRaDemodulator.receive_all` produces on the
whole capture, while holding only a bounded sample window.
"""

import resource
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dsp.filters import design_lowpass, filter_block
from repro.errors import ConfigurationError, DemodulationError
from repro.phy import backend
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    StreamingDemodulator,
)
from repro.phy.lora.demodulator import SymbolDemodulator, receive_fir_taps
from repro.phy.lora.streaming import _AlignedStreamingFir


def make_capture(params, payloads, seed, head_gap=2000):
    """Payload packets separated by noise-only gaps, plus light noise."""
    mod = LoRaModulator(params)
    rng = np.random.default_rng(seed)
    chunks = [np.zeros(head_gap, dtype=np.complex128)]
    for payload in payloads:
        chunks.append(mod.modulate(payload))
        chunks.append(np.zeros(int(rng.integers(300, 3000)),
                               dtype=np.complex128))
    stream = np.concatenate(chunks)
    noise = (rng.normal(scale=0.01, size=stream.size)
             + 1j * rng.normal(scale=0.01, size=stream.size))
    return stream + noise


def stream_in_chunks(demod, capture, splits):
    """Push ``capture`` split at the given boundaries; collect packets."""
    packets = []
    previous = 0
    for split in sorted(splits):
        packets.extend(demod.push(capture[previous:split]))
        previous = split
    packets.extend(demod.push(capture[previous:]))
    packets.extend(demod.flush())
    return packets


PARAMS_CASES = [
    LoRaParams(spreading_factor=7, bandwidth_hz=125e3, oversampling=1),
    LoRaParams(spreading_factor=8, bandwidth_hz=125e3, oversampling=2),
]

CHUNK_CASES = PARAMS_CASES + [
    LoRaParams(spreading_factor=8, bandwidth_hz=125e3, oversampling=4)]
CHUNK_IDS = ["sf7_os1", "sf8_os2", "sf8_os4"]


class TestChunkInvariance:
    @pytest.mark.parametrize("params", CHUNK_CASES, ids=CHUNK_IDS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           num_splits=st.integers(0, 40))
    def test_any_split_matches_batch(self, params, seed, num_splits):
        rng = np.random.default_rng(seed)
        payloads = [bytes(rng.integers(0, 256, 13).astype(np.uint8)),
                    bytes(rng.integers(0, 256, 29).astype(np.uint8))]
        capture = make_capture(params, payloads, seed)
        batch = LoRaDemodulator(params).receive_all(capture)
        assert [p.decoded.payload for p in batch] == payloads

        splits = rng.integers(0, capture.size + 1, num_splits)
        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    capture, splits)
        assert streamed == batch

    @pytest.mark.parametrize("params", CHUNK_CASES, ids=CHUNK_IDS)
    def test_one_sample_chunks_match_batch(self, params):
        # The adversarial extreme: every chunk boundary is exercised.
        # Restricted to the head of a capture for runtime; the sample
        # loop covers filter carry, scan carry and alignment at once.
        payload = b"tinysdr"
        capture = make_capture(params, [payload], seed=5, head_gap=700)
        batch = LoRaDemodulator(params).receive_all(capture)
        assert len(batch) == 1 and batch[0].decoded.payload == payload

        demod = StreamingDemodulator(params)
        packets = []
        one_by_one = 4000  # leading samples fed one at a time
        for index in range(min(one_by_one, capture.size)):
            packets.extend(demod.push(capture[index:index + 1]))
        packets.extend(demod.push(capture[one_by_one:]))
        packets.extend(demod.flush())
        assert packets == batch

    def test_packet_split_across_every_state(self):
        # Chunk boundaries landing inside preamble, SFD and payload.
        params = PARAMS_CASES[0]
        sym = params.samples_per_symbol
        payload = b"boundary"
        capture = make_capture(params, [payload], seed=9)
        batch = LoRaDemodulator(params).receive_all(capture)
        boundaries = [2000 + k * sym // 3 for k in range(40)]
        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    capture, boundaries)
        assert streamed == batch


class TestAlignedFir:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 60),
           num_splits=st.integers(0, 6))
    def test_streamed_output_equals_filter_block(self, seed, count,
                                                 num_splits):
        # Includes streams shorter than the group delay, whose whole
        # output comes from the flush.
        rng = np.random.default_rng(seed)
        taps = design_lowpass(14, 1000.0, 8000.0)
        samples = rng.normal(size=count) + 1j * rng.normal(size=count)
        fir = _AlignedStreamingFir(taps)
        splits = np.sort(rng.integers(0, count + 1, num_splits))
        pieces = [fir.process(part) for part in np.split(samples, splits)]
        streamed = np.concatenate(pieces + [fir.flush()])
        assert np.array_equal(streamed, filter_block(taps, samples))

    @pytest.mark.parametrize("oversampling", [2, 4, 8])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 90),
           sizes=st.lists(st.integers(0, 9), max_size=12))
    @example(seed=1, count=5, sizes=[1, 0, 1])  # under the group delay
    @example(seed=2, count=61, sizes=[0, 1, 7, 1])  # odd length
    @example(seed=3, count=64, sizes=[1, 0, 2, 9])  # even length
    @example(seed=4, count=0, sizes=[0])
    def test_decimated_stream_equals_frontend(self, oversampling, seed,
                                              count, sizes):
        # The chip-rate FIR keeps the aligned outputs at absolute
        # multiples of the oversampling, whatever the chunk boundaries
        # (0- and 1-sample chunks included) and the stream's length.
        params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3,
                            oversampling=oversampling)
        taps = receive_fir_taps(params)
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=count) + 1j * rng.normal(size=count)
        bounds = np.minimum(np.cumsum(sizes, dtype=int), count)
        pieces = np.split(samples, bounds)
        fir = _AlignedStreamingFir(taps, oversampling)
        streamed = np.concatenate([fir.process(part) for part in pieces]
                                  + [fir.flush()])
        decimated = filter_block(taps, samples)[::oversampling]
        assert np.array_equal(streamed, decimated)
        assert np.array_equal(LoRaDemodulator(params).frontend(samples),
                              decimated)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), prefix=st.integers(1, 40),
           count=st.integers(0, 60))
    def test_reset_after_unflushed_prefix_equals_fresh(self, seed, prefix,
                                                       count):
        rng = np.random.default_rng(seed)
        taps = design_lowpass(14, 1000.0, 8000.0)
        reused = _AlignedStreamingFir(taps)
        reused.process(rng.normal(size=prefix) + 1j * rng.normal(size=prefix))
        reused.reset()
        samples = rng.normal(size=count) + 1j * rng.normal(size=count)
        outputs = [np.concatenate([fir.process(samples), fir.flush()])
                   for fir in (reused, _AlignedStreamingFir(taps))]
        assert np.array_equal(*outputs)


class TestLinearWork:
    """Receive work grows with the capture, not with the chunk size."""

    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    def test_whole_push_dechirps_like_symbol_pushes(
            self, params, monkeypatch):
        rows = []

        def counted(method, transforms):
            def wrapper(self, windows, *args, **kwargs):
                rows.append(transforms * len(windows))
                return method(self, windows, *args, **kwargs)
            return wrapper

        # Count dechirped rows, not time: demodulate_block runs both
        # chirp references, so each of its rows is two transforms.
        for name, transforms in (("demodulate_upchirp_block", 1),
                                 ("demodulate_block", 2)):
            monkeypatch.setattr(SymbolDemodulator, name, counted(
                getattr(SymbolDemodulator, name), transforms))
        rng = np.random.default_rng(24)
        payloads = [bytes(rng.integers(0, 256, size).astype(np.uint8))
                    for size in rng.integers(8, 40, 24)]
        capture = make_capture(params, payloads, seed=24)
        sym = params.samples_per_symbol

        stepped = stream_in_chunks(StreamingDemodulator(params), capture,
                                   range(sym, capture.size, sym))
        stepped_rows = sum(rows)
        rows.clear()
        whole = stream_in_chunks(StreamingDemodulator(params), capture, [])

        assert [p.decoded.payload for p in stepped] == payloads
        assert whole == stepped
        assert sum(rows) <= 1.5 * stepped_rows


class TestChipRateWork:
    """The FIR-fronted receiver's work, counted rather than timed.

    A count repeats exactly on any host, so this guards the chip-rate
    design in tier-1: a receiver that filters or dechirps at the full
    input rate again fails it.
    """

    PARAMS = LoRaParams(spreading_factor=8, bandwidth_hz=125e3,
                        oversampling=2)
    CHUNK = 4096
    DECHIRPED_ROWS = 356

    def test_streaming_receiver_works_at_one_sample_per_chip(
            self, monkeypatch):
        fir_outputs, widths, rows = [], set(), []
        fir_carry = backend.fir_carry
        dechirp_magnitudes = backend.dechirp_magnitudes

        def counted_fir(taps, carry, chunk, *args):
            out = fir_carry(taps, carry, chunk, *args)
            fir_outputs.append(out.size)
            return out

        def counted_dechirp(windows, *args):
            widths.add(windows.shape[1])
            rows.append(windows.shape[0])
            return dechirp_magnitudes(windows, *args)

        monkeypatch.setattr(backend, "fir_carry", counted_fir)
        monkeypatch.setattr(backend, "dechirp_magnitudes", counted_dechirp)
        rng = np.random.default_rng(34)
        payloads = [bytes(rng.integers(0, 256, size).astype(np.uint8))
                    for size in (12, 40, 25, 7)]
        capture = make_capture(self.PARAMS, payloads, seed=34)
        packets = stream_in_chunks(
            StreamingDemodulator(self.PARAMS), capture,
            range(self.CHUNK, capture.size, self.CHUNK))

        assert [p.decoded.payload for p in packets] == payloads
        chips = -(-capture.size // self.PARAMS.oversampling)
        assert sum(fir_outputs) == chips
        assert widths == {self.PARAMS.chips_per_symbol}
        assert sum(rows) == self.DECHIRPED_ROWS


class TestTailWindows:
    """Truncated final symbols must never shift earlier decisions."""

    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    @pytest.mark.parametrize("cut_symbols", [0.25, 0.5, 0.99])
    def test_truncated_capture_keeps_earlier_packets(self, params,
                                                     cut_symbols):
        rng = np.random.default_rng(77)
        payloads = [bytes(rng.integers(0, 256, 21).astype(np.uint8)),
                    bytes(rng.integers(0, 256, 17).astype(np.uint8))]
        capture = make_capture(params, payloads, seed=77)
        whole = LoRaDemodulator(params).receive_all(capture)
        assert len(whole) == 2

        # Cut inside the second packet's payload: capture length is no
        # longer a multiple of the symbol period and the final symbol
        # is partial.
        sym = params.samples_per_symbol
        cut = whole[1].payload_start + 10 * sym + int(cut_symbols * sym)
        truncated = capture[:cut]
        batch = LoRaDemodulator(params).receive_all(truncated)
        assert batch == whole[:1]

        streamed = stream_in_chunks(StreamingDemodulator(params),
                                    truncated, [cut // 3, 2 * cut // 3])
        assert streamed == batch

    def test_demodulate_stream_rejects_overrun(self):
        params = PARAMS_CASES[0]
        demod = SymbolDemodulator(params)
        sym = params.samples_per_symbol
        samples = np.zeros(3 * sym + sym // 2, dtype=np.complex128)
        # More symbols than the stream holds - including the partial
        # window at the tail - must be rejected, not silently clipped.
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(samples, 4)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream_reference(samples, 4)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(samples, -1)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream_reference(samples, -1)
        assert demod.demodulate_stream(samples, 3).size == 3
        # A negative start must be rejected too, not wrap around to the
        # stream's tail or silently read from its head.
        stream = np.zeros(1000, dtype=np.complex128)
        for start in (-10, -1000):
            with pytest.raises(DemodulationError):
                demod.demodulate_stream(stream, 1, start)
            with pytest.raises(DemodulationError):
                demod.demodulate_stream_reference(stream, 1, start)

    def test_receive_handles_short_tail_after_sync(self):
        # A capture ending right after the SFD leaves zero whole payload
        # symbols; receive must report that, not raise ValueError.
        params = PARAMS_CASES[0]
        payload = b"tail"
        capture = make_capture(params, [payload], seed=31)
        demod = LoRaDemodulator(params)
        sync = demod.synchronizer.find_packet(demod.frontend(capture))
        cut = capture[:sync.payload_start + params.samples_per_symbol // 2]
        with pytest.raises(DemodulationError):
            demod.receive(cut, payload_symbols=8)
        assert demod.receive_all(cut) == []


class TestNonFiniteSamples:
    """A NaN or infinite sample is refused with its offset, not decoded."""

    PARAMS = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)
    PAD = 1000
    CHUNK = 1000

    @pytest.fixture(scope="class")
    def clean(self):
        pad = np.zeros(self.PAD, dtype=np.complex128)
        packet = LoRaModulator(self.PARAMS).modulate(b"hostile capture!")
        return np.concatenate([pad, packet, pad])

    def _offset(self, symbol):
        return self.PAD + symbol * self.PARAMS.samples_per_symbol + 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("symbol", range(14))
    def test_every_receiver_refuses_it(self, clean, symbol, bad):
        offset = self._offset(symbol)
        capture = clean.copy()
        capture[offset] = bad
        receiver = StreamingDemodulator(self.PARAMS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DemodulationError, match=f"sample {offset} "):
                LoRaDemodulator(self.PARAMS).receive_all(capture)
            with pytest.raises(DemodulationError, match=f"sample {offset} "):
                LoRaDemodulator(self.PARAMS).receive(capture)
            with pytest.raises(DemodulationError,
                               match=f"sample {offset % self.CHUNK} "):
                for start in range(0, capture.size, self.CHUNK):
                    receiver.push(capture[start:start + self.CHUNK])

    @pytest.mark.parametrize("symbol", range(14))
    def test_rejected_push_leaves_the_receiver_unchanged(self, clean,
                                                         symbol):
        offset = self._offset(symbol)
        capture = clean.copy()
        capture[offset] = np.nan
        receiver = StreamingDemodulator(self.PARAMS)
        packets = []
        for start in range(0, clean.size, self.CHUNK):
            if start <= offset < start + self.CHUNK:
                with pytest.raises(DemodulationError):
                    receiver.push(capture[start:start + self.CHUNK])
            packets += receiver.push(clean[start:start + self.CHUNK])
        packets += receiver.flush()
        assert [packet.decoded.payload for packet in packets] \
            == [b"hostile capture!"]
        assert packets == LoRaDemodulator(self.PARAMS).receive_all(clean)


class TestStreamingLifecycle:
    def test_requires_explicit_header(self):
        params = LoRaParams(spreading_factor=7, bandwidth_hz=125e3,
                            explicit_header=False)
        with pytest.raises(ConfigurationError):
            StreamingDemodulator(params)

    def test_push_after_flush_rejected(self):
        demod = StreamingDemodulator(PARAMS_CASES[0])
        demod.flush()
        with pytest.raises(ConfigurationError):
            demod.push(np.zeros(8, dtype=np.complex128))
        assert demod.flush() == []

    def test_reset_reuses_instance(self):
        params = PARAMS_CASES[0]
        payload = b"again"
        capture = make_capture(params, [payload], seed=13)
        demod = StreamingDemodulator(params)
        first = stream_in_chunks(demod, capture, [1000])
        demod.reset()
        second = stream_in_chunks(demod, capture, [777, 9000])
        assert first == second
        assert first[0].decoded.payload == payload

    @pytest.mark.parametrize("params", PARAMS_CASES,
                             ids=["sf7_os1", "sf8_os2"])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), prefix=st.integers(1, 6000))
    def test_reset_after_unflushed_prefix_equals_fresh(self, params, seed,
                                                       prefix):
        # Whatever a half-received capture left in the FIR, the sample
        # buffer or the synchronizer, reset() must forget all of it.
        rng = np.random.default_rng(seed)
        capture = make_capture(params, [b"reset"], seed)
        splits = rng.integers(0, capture.size + 1, 3)
        reused = StreamingDemodulator(params)
        reused.push(rng.normal(size=prefix) + 1j * rng.normal(size=prefix))
        reused.reset()
        assert (stream_in_chunks(reused, capture, splits)
                == stream_in_chunks(StreamingDemodulator(params), capture,
                                    splits))


class TestBoundedMemory:
    def test_long_capture_constant_rss(self):
        """A 60 s capture streams through a bounded buffer.

        Two assertions: the internal sample buffer never exceeds a small
        fixed window, and the process high-water RSS grows by far less
        than the capture size (~230 MB of complex128 at 125 kHz x 2),
        proving the capture is never materialized.
        """
        params = LoRaParams(spreading_factor=7, bandwidth_hz=125e3,
                            oversampling=2)
        sym = params.samples_per_symbol
        sample_rate = params.sample_rate_hz
        total_samples = int(60.0 * sample_rate)
        chunk_samples = 1 << 15

        mod = LoRaModulator(params)
        packet_wave = mod.modulate(b"periodic beacon payload")
        period = int(1.0 * sample_rate)  # one packet per second

        demod = StreamingDemodulator(params)
        rng = np.random.default_rng(60)
        rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        packets = []
        peak_buffer = 0
        position = 0
        while position < total_samples:
            count = min(chunk_samples, total_samples - position)
            chunk = (rng.normal(scale=0.005, size=count)
                     + 1j * rng.normal(scale=0.005, size=count))
            # Overlay any in-flight beacon transmission.
            offset = position % period
            if offset < packet_wave.size:
                take = min(packet_wave.size - offset, count)
                chunk[:take] += packet_wave[offset:offset + take]
            elif period - offset < count:
                take = min(count - (period - offset), packet_wave.size)
                chunk[period - offset:period - offset + take] += \
                    packet_wave[:take]
            packets.extend(demod.push(chunk))
            peak_buffer = max(peak_buffer, demod.buffered_samples)
            position += count
        packets.extend(demod.flush())

        rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert len(packets) >= 55
        assert all(p.decoded.payload == b"periodic beacon payload"
                   for p in packets)
        # Buffer window: chunk + trim margins, far below the capture.
        assert peak_buffer < chunk_samples + 16 * sym
        # High-water growth must stay a small fraction of the 230 MB
        # capture; 64 MB leaves headroom for allocator noise.
        assert rss_after_kb - rss_before_kb < 64 * 1024
