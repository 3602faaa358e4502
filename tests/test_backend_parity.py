"""Bit-exact parity contracts of the DSP kernels and fast paths.

Every vectorized fast path must match its ``*_reference`` scalar twin
exactly: the FIR, GFSK and O-QPSK kernels in :mod:`repro.phy.backend`
and the LoRa codec.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.filters import (
    StreamingFir,
    design_lowpass,
    filter_block,
    filter_block_reference,
)
from repro.phy.ble.gfsk import GfskConfig, GfskDemodulator, GfskModulator
from repro.phy.lora.coding import whiten, whiten_reference
from repro.phy.lora.codec import LoRaCodec
from repro.phy.lora.params import LoRaParams
from repro.phy.oqpsk.modem import OqpskDemodulator, OqpskModulator


def random_samples(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.95, 0.95, count)
            + 1j * rng.uniform(-0.95, 0.95, count))


class TestFirParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 200),
           num_taps=st.integers(1, 20))
    def test_filter_block_matches_reference(self, seed, count, num_taps):
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=num_taps)
        samples = random_samples(seed ^ 0xA5, count)
        fast = filter_block(taps, samples)
        ref = filter_block_reference(taps, samples)
        assert np.array_equal(fast, ref)

    def test_empty_input(self):
        taps = design_lowpass(14, 1000.0, 8000.0)
        empty = np.zeros(0, dtype=np.complex128)
        assert filter_block(taps, empty).size == 0
        assert filter_block_reference(taps, empty).size == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(20, 200))
    def test_streaming_fir_matches_block(self, seed, count):
        rng = np.random.default_rng(seed)
        taps = design_lowpass(14, 1000.0, 8000.0)
        samples = random_samples(seed ^ 0x33, count)
        streaming = StreamingFir(taps)
        split = int(rng.integers(0, count + 1))
        chunked = np.concatenate([streaming.process(samples[:split]),
                                  streaming.process(samples[split:])])
        whole = StreamingFir(taps).process(samples)
        assert np.array_equal(chunked, whole)


class TestGfskParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_bits=st.integers(8, 120),
           sps=st.integers(2, 8), start=st.integers(0, 6))
    def test_demodulate_matches_reference(self, seed, num_bits, sps, start):
        config = GfskConfig(samples_per_symbol=sps)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, num_bits + 4)
        wave = GfskModulator(config).modulate(bits)
        wave = wave + (rng.normal(scale=0.05, size=wave.size)
                       + 1j * rng.normal(scale=0.05, size=wave.size))
        demod = GfskDemodulator(config)
        fast = demod.demodulate(wave, num_bits, start_sample=start)
        ref = demod.demodulate_reference(wave, num_bits, start_sample=start)
        assert np.array_equal(fast, ref)

    def test_truncated_final_window(self):
        # The discriminator output is one sample shorter than the
        # stream, so the last bit integrates a short window; fast and
        # reference paths must clamp identically.
        config = GfskConfig(samples_per_symbol=4)
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 32)
        wave = GfskModulator(config).modulate(bits)
        demod = GfskDemodulator(config)
        fast = demod.demodulate(wave, 32)
        ref = demod.demodulate_reference(wave, 32)
        assert np.array_equal(fast, ref)


class TestOqpskParity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_pairs=st.integers(4, 40),
           spc=st.sampled_from([2, 4]))
    def test_soft_chips_matches_reference(self, seed, num_pairs, spc):
        rng = np.random.default_rng(seed)
        chips = rng.integers(0, 2, 2 * num_pairs)
        wave = OqpskModulator(samples_per_chip=spc).modulate(chips)
        wave = wave + (rng.normal(scale=0.02, size=wave.size)
                       + 1j * rng.normal(scale=0.02, size=wave.size))
        demod = OqpskDemodulator(samples_per_chip=spc)
        num_chips = 2 * num_pairs - 2
        fast = demod.soft_chips(wave, num_chips)
        ref = demod.soft_chips_reference(wave, num_chips)
        assert np.array_equal(fast, ref)


class TestCodecParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sf=st.integers(7, 12),
           cr=st.integers(5, 8), length=st.integers(0, 64),
           explicit=st.booleans(), crc=st.booleans())
    def test_encode_decode_match_reference(self, seed, sf, cr, length,
                                           explicit, crc):
        params = LoRaParams(spreading_factor=sf, bandwidth_hz=125e3,
                            coding_rate_denominator=cr,
                            explicit_header=explicit)
        codec = LoRaCodec(params, crc=crc)
        rng = np.random.default_rng(seed)
        payload = bytes(rng.integers(0, 256, length).astype(np.uint8))
        fast = codec.encode(payload)
        ref = codec.encode_reference(payload)
        assert np.array_equal(fast, ref)
        kwargs = {} if explicit else {"payload_length": length}
        decoded = codec.decode(fast, **kwargs)
        decoded_ref = codec.decode_reference(fast, **kwargs)
        assert decoded == decoded_ref
        assert decoded.payload == payload

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sf=st.integers(7, 10),
           count=st.integers(8, 64))
    def test_decode_matches_reference_on_noise_symbols(self, seed, sf,
                                                       count):
        # Random (not codec-produced) symbols must decode identically
        # too - the receive path sees corrupted packets.
        params = LoRaParams(spreading_factor=sf, bandwidth_hz=125e3)
        codec = LoRaCodec(params, crc=True)
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, params.chips_per_symbol, count)
        assert codec.decode(symbols) == codec.decode_reference(symbols)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 600))
    def test_whiten_matches_reference(self, seed, length):
        rng = np.random.default_rng(seed)
        data = bytes(rng.integers(0, 256, length).astype(np.uint8))
        assert whiten(data) == whiten_reference(data)
        # Whitening is an involution in both implementations.
        assert whiten(whiten(data)) == data

    def test_whiten_custom_seed_matches_reference(self):
        data = bytes(range(64))
        assert whiten(data, seed=0x1D) == whiten_reference(data, seed=0x1D)
