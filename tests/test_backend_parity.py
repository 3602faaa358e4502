"""Parity contracts of the DSP kernels and fast paths.

Every vectorized fast path must match its ``*_reference`` scalar twin
exactly: the FIR, GFSK and O-QPSK kernels in :mod:`repro.phy.backend`
and the LoRa codec.  The LoRa dechirp kernel transforms with
``numpy.fft``; the radix-2 model of the FPGA's FFT core is its oracle,
to a tolerance on magnitudes and exactly on well-separated peaks.
The kernels' one input boundary, ``backend.finite_samples``, refuses
what is not a numeric array at every receiver entry point.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.fft import Radix2Fft
from repro.dsp.filters import (
    StreamingFir,
    design_lowpass,
    filter_block,
    filter_block_reference,
)
from repro.errors import DemodulationError
from repro.phy import backend
from repro.phy.ble.gfsk import GfskConfig, GfskDemodulator, GfskModulator
from repro.phy.lora.chirp import chirp_train, ideal_chirp
from repro.phy.lora.coding import whiten, whiten_reference
from repro.phy.lora.codec import LoRaCodec
from repro.phy.lora.demodulator import LoRaDemodulator
from repro.phy.lora.params import LoRaParams
from repro.phy.lora.streaming import StreamingDemodulator
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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 80),
           num_taps=st.integers(1, 20), first=st.integers(0, 12),
           step=st.integers(1, 9))
    def test_strided_fir_carry_equals_full_slice(self, seed, count,
                                                 num_taps, first, step):
        # Each kept output is the full kernel's tap-major sum, so the
        # phase and stride select outputs without changing one bit.
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=num_taps)
        carry = random_samples(seed ^ 0x5A, num_taps - 1)
        chunk = random_samples(seed ^ 0xC3, count)
        full = backend.fir_carry(taps, carry, chunk)
        assert np.array_equal(
            backend.fir_carry(taps, carry, chunk, first, step),
            full[first::step])


class TestDechirpOracle:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sf=st.integers(7, 10),
           oversampling=st.sampled_from([1, 2, 4]), rows=st.integers(1, 16))
    def test_dechirp_magnitudes_match_radix2_model(self, seed, sf,
                                                   oversampling, rows):
        params = LoRaParams(sf, 125e3, oversampling=oversampling)
        n = params.chips_per_symbol
        sym = params.samples_per_symbol
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, n, rows)
        windows = chirp_train(params, symbols).reshape(rows, sym)
        # From clean chirps down to -3 dB SNR per sample.
        scale = rng.uniform(0.0, 1.0)
        windows = windows + scale * (rng.normal(size=(rows, sym))
                                     + 1j * rng.normal(size=(rows, sym)))
        reference = np.conj(ideal_chirp(params, 0))

        fast = backend.dechirp_magnitudes(windows, reference, n,
                                          oversampling)
        spectra = np.abs(Radix2Fft(sym).forward_block(windows * reference))
        oracle = spectra[:, :n]
        if oversampling > 1:
            oracle = oracle + spectra[:, (oversampling - 1) * n:]

        bound = 1e-9 * sym
        assert fast.shape == (rows, n)
        assert np.max(np.abs(fast - oracle)) < bound
        top_two = np.sort(oracle, axis=1)[:, -2:]
        separated = top_two[:, 1] - top_two[:, 0] > bound
        assert np.array_equal(np.argmax(fast, axis=1)[separated],
                              np.argmax(oracle, axis=1)[separated])


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


LORA = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)

#: Every receiver entry point whose capture goes through
#: ``backend.finite_samples``.
ENTRY_POINTS = {
    "lora_push": lambda x: StreamingDemodulator(LORA).push(x),
    "lora_receive": lambda x: LoRaDemodulator(LORA).receive(x),
    "lora_receive_all": lambda x: LoRaDemodulator(LORA).receive_all(x),
    "gfsk_demodulate": lambda x: GfskDemodulator(GfskConfig()).demodulate(
        x, 1),
    "oqpsk_soft_chips": lambda x: OqpskDemodulator(2).soft_chips(x, 1),
}

NOT_SAMPLES = {
    "none": None,
    "str": "abc",
    "bytes": b"\x01\x02\x03",
    "object_array": np.array([0.5 + 0.5j, "x"], dtype=object),
    "dict": {"i": 1.0, "q": 0.0},
}


class TestSampleBoundary:
    @pytest.mark.parametrize("value", NOT_SAMPLES.values(),
                             ids=NOT_SAMPLES.keys())
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(),
                             ids=ENTRY_POINTS.keys())
    def test_non_numeric_input_is_refused_with_its_type(self, entry,
                                                        value):
        # Neither a raw ValueError/TypeError from the complex cast nor a
        # "sample 0 is not finite" for None: the error names the type.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DemodulationError,
                               match=rf"numeric array, got "
                                     rf"{type(value).__name__}\b"):
                entry(value)
