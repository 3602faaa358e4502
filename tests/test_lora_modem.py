"""Tests for the LoRa modulator, demodulator and packet synchronization."""

import numpy as np
import pytest

from repro.channel.impairments import apply_cfo
from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.errors import ConfigurationError, DemodulationError
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    PacketSynchronizer,
    SymbolDemodulator,
    sync_symbols_for_word,
    sync_word_from_symbols,
)

PARAMS = LoRaParams(8, 125e3)


def embed(waveform, rssi_dbm, rng, offset=1000, tail=2048,
          params=PARAMS):
    """Place a waveform into a noisy receive window."""
    budget = LinkBudget(bandwidth_hz=params.sample_rate_hz)
    return receive(
        [ReceivedSignal(waveform, rssi_dbm, start_sample=offset)],
        budget, rng, num_samples=offset + waveform.size + tail)


class TestModulator:
    def test_modulate_length_matches_frame(self):
        modulator = LoRaModulator(PARAMS)
        frame = modulator.frame_for_payload(b"abc")
        waveform = modulator.modulate_frame(frame)
        assert waveform.size == frame.total_samples

    def test_symbol_rendering_matches_symbol_api(self):
        modulator = LoRaModulator(PARAMS)
        values = np.array([3, 200])
        train = modulator.symbols(values)
        assert np.allclose(train[:256], modulator.symbol(3))

    def test_frame_params_mismatch_rejected(self):
        modulator_a = LoRaModulator(PARAMS)
        modulator_b = LoRaModulator(LoRaParams(9, 125e3))
        frame = modulator_a.frame_for_payload(b"x")
        with pytest.raises(ConfigurationError):
            modulator_b.modulate_frame(frame)

    def test_single_tone_is_spectrally_pure(self):
        modulator = LoRaModulator(PARAMS)
        tone = modulator.single_tone(20e3, 0.05)
        spectrum = np.abs(np.fft.fft(tone))
        peak = int(np.argmax(spectrum))
        expected = round(20e3 / PARAMS.sample_rate_hz * tone.size)
        assert peak == expected

    def test_single_tone_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            LoRaModulator(PARAMS).single_tone(10e3, 0.0)


class TestSymbolDemodulator:
    def test_all_symbols_roundtrip_quantized(self):
        demod = SymbolDemodulator(PARAMS)
        modulator = LoRaModulator(PARAMS, quantized=True)
        for symbol in range(0, 256, 17):
            detected, _ = demod.demodulate_upchirp(modulator.symbol(symbol))
            assert detected == symbol

    def test_chirp_type_detection(self):
        from repro.phy.lora.chirp import ideal_chirp, ideal_downchirp
        demod = SymbolDemodulator(PARAMS)
        up_decision = demod.demodulate(ideal_chirp(PARAMS, 42))
        down_decision = demod.demodulate(ideal_downchirp(PARAMS))
        assert up_decision.is_upchirp
        assert up_decision.value == 42
        assert not down_decision.is_upchirp

    def test_oversampled_folding(self):
        params = PARAMS.with_oversampling(2)
        demod = SymbolDemodulator(params)
        modulator = LoRaModulator(params, quantized=True)
        for symbol in (0, 100, 255):
            detected, _ = demod.demodulate_upchirp(modulator.symbol(symbol))
            assert detected == symbol

    def test_wrong_window_length_rejected(self):
        with pytest.raises(DemodulationError):
            SymbolDemodulator(PARAMS).demodulate_upchirp(np.zeros(100))

    def test_stream_demodulation(self, rng):
        demod = SymbolDemodulator(PARAMS)
        symbols = rng.integers(0, 256, 20)
        waveform = LoRaModulator(PARAMS).symbols(symbols)
        detected = demod.demodulate_stream(waveform, 20)
        assert np.array_equal(detected, symbols)

    def test_stream_too_short_rejected(self):
        demod = SymbolDemodulator(PARAMS)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(np.zeros(100), 5)


class TestSyncWords:
    def test_sync_symbols_encode_nibbles(self):
        params = LoRaParams(8, 125e3, sync_word=0x34)
        high, low = sync_symbols_for_word(params)
        assert high == 3 * 8
        assert low == 4 * 8

    def test_sync_word_roundtrip(self):
        params = LoRaParams(8, 125e3, sync_word=0x12)
        high, low = sync_symbols_for_word(params)
        assert sync_word_from_symbols(params, high, low) == 0x12

    def test_sync_word_tolerates_off_by_one(self):
        params = LoRaParams(8, 125e3, sync_word=0x12)
        high, low = sync_symbols_for_word(params)
        assert sync_word_from_symbols(params, high + 1, low - 1) == 0x12


class TestPacketSynchronizer:
    def test_finds_aligned_packet(self, rng):
        modulator = LoRaModulator(PARAMS)
        frame = modulator.frame_for_payload(b"sync me")
        waveform = modulator.modulate_frame(frame)
        stream = embed(waveform, -100.0, rng, offset=0)
        sync = PacketSynchronizer(PARAMS).find_packet(stream)
        assert sync.payload_start == frame.payload_start_sample()

    @pytest.mark.parametrize("offset", [1, 37, 255, 1000, 3000])
    def test_finds_offset_packet(self, offset, rng):
        modulator = LoRaModulator(PARAMS)
        frame = modulator.frame_for_payload(b"offset packet")
        waveform = modulator.modulate_frame(frame)
        stream = embed(waveform, -100.0, rng, offset=offset)
        sync = PacketSynchronizer(PARAMS).find_packet(stream)
        expected = offset + frame.payload_start_sample()
        assert abs(sync.payload_start - expected) <= 2

    def test_recovers_sync_word(self, rng):
        params = LoRaParams(8, 125e3, sync_word=0x34)
        modulator = LoRaModulator(params)
        waveform = modulator.modulate(b"ttn network")
        stream = embed(waveform, -95.0, rng, params=params)
        sync = PacketSynchronizer(params).find_packet(stream)
        assert sync.sync_word == 0x34

    def test_noise_only_raises(self, rng):
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        noise = receive([], budget, rng, num_samples=30 * 256)
        with pytest.raises(DemodulationError):
            PacketSynchronizer(PARAMS).find_packet(noise)

    def test_short_stream_raises(self, rng):
        with pytest.raises(DemodulationError):
            PacketSynchronizer(PARAMS).find_packet(np.zeros(512))


class TestEndToEndReceive:
    def test_clean_packet_roundtrip(self, rng):
        modulator = LoRaModulator(PARAMS)
        demodulator = LoRaDemodulator(PARAMS)
        payload = b"the quick brown fox"
        stream = embed(modulator.modulate(payload), -90.0, rng)
        decoded = demodulator.receive(stream)
        assert decoded.payload == payload
        assert decoded.crc_ok is True

    def test_packet_near_sensitivity(self, rng):
        # -121 dBm is ~5 dB above the SF8/BW125 sensitivity: should decode.
        modulator = LoRaModulator(PARAMS)
        demodulator = LoRaDemodulator(PARAMS)
        payload = b"faint"
        stream = embed(modulator.modulate(payload), -121.0, rng)
        decoded = demodulator.receive(stream)
        assert decoded.payload == payload

    def test_packet_with_cfo(self, rng):
        # Integer-bin CFO (2 bins = ~976 Hz at SF8/BW125) is corrected.
        modulator = LoRaModulator(PARAMS)
        demodulator = LoRaDemodulator(PARAMS)
        payload = b"cfo tolerant"
        waveform = modulator.modulate(payload)
        offset_hz = 2 * PARAMS.bandwidth_hz / PARAMS.chips_per_symbol
        shifted = apply_cfo(waveform, offset_hz, PARAMS.sample_rate_hz)
        stream = embed(shifted, -100.0, rng)
        decoded = demodulator.receive(stream)
        assert decoded.payload == payload

    def test_receive_with_explicit_symbol_count(self, rng):
        modulator = LoRaModulator(PARAMS)
        demodulator = LoRaDemodulator(PARAMS)
        frame = modulator.frame_for_payload(b"counted")
        stream = embed(modulator.modulate_frame(frame), -100.0, rng)
        decoded = demodulator.receive(
            stream, payload_symbols=len(frame.payload_symbols))
        assert decoded.payload == b"counted"

    def test_receive_too_many_symbols_requested(self, rng):
        modulator = LoRaModulator(PARAMS)
        demodulator = LoRaDemodulator(PARAMS)
        stream = embed(modulator.modulate(b"x"), -100.0, rng, tail=0)
        with pytest.raises(DemodulationError):
            demodulator.receive(stream, payload_symbols=1000)

    def test_sx1276_interoperates_with_tinysdr(self, rng):
        # Quantized tinySDR TX -> receiver, and the ideal-chirp SX1276
        # reference TX -> the same receiver.
        tinysdr_tx = LoRaModulator(PARAMS, quantized=True)
        sx1276_tx = LoRaModulator(PARAMS, quantized=False)
        stream = embed(tinysdr_tx.modulate(b"interop"), -100.0, rng)
        assert LoRaDemodulator(PARAMS).receive(stream).payload == b"interop"
        stream2 = embed(sx1276_tx.modulate(b"reverse"), -100.0, rng)
        assert LoRaDemodulator(PARAMS).receive(stream2).payload == b"reverse"
