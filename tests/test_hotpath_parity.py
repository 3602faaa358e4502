"""Bit-exact parity between vectorized hot paths and scalar references.

The perf engine keeps every original per-word/per-bit implementation as a
``*_reference`` function; these randomized tests (random I/Q streams,
random injected LVDS bit errors, random word-boundary offsets) assert the
vectorized fast paths produce *exactly* the same outputs — and the same
failures — as the scalar code they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.impairments import apply_cfo
from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.core.sweeps import (
    DEFAULT_NOISE_FIGURE_DB,
    _apply_residual_cfo,
    lora_symbol_error_rate,
)
from repro.errors import ConfigurationError, FramingError
from repro.dsp.fft import Radix2Fft
from repro.phy.lora import ConcurrentReceiver, LoRaParams
from repro.phy.lora.chirp import (
    QuantizedChirpGenerator,
    chirp_train,
    ideal_chirp,
    ideal_chirp_reference,
)
from repro.phy.lora.demodulator import SymbolDemodulator
from repro.radio import iqword, lvds


def random_samples(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.95, 0.95, count)
            + 1j * rng.uniform(-0.95, 0.95, count))


class TestIqWordParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
    def test_pack_matches_reference(self, seed, count):
        samples = random_samples(seed, count)
        assert np.array_equal(iqword.samples_to_words(samples),
                              iqword.samples_to_words_reference(samples))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 300))
    def test_unpack_matches_reference(self, seed, count):
        words = iqword.samples_to_words(random_samples(seed, count))
        assert np.array_equal(iqword.words_to_samples(words),
                              iqword.words_to_samples_reference(words))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 200))
    def test_bitstream_matches_reference(self, seed, count):
        words = iqword.samples_to_words(random_samples(seed, count))
        bits = iqword.words_to_bits(words)
        assert np.array_equal(bits, iqword.words_to_bits_reference(words))
        assert np.array_equal(iqword.bits_to_words(bits),
                              iqword.bits_to_words_reference(bits))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(5, 60),
           offset=st.integers(0, 31))
    def test_bits_to_words_matches_reference_at_offsets(self, seed, count,
                                                       offset):
        """Random word-boundary offsets decode identically on both paths."""
        rng = np.random.default_rng(seed)
        words = iqword.samples_to_words(random_samples(seed, count))
        stream = np.concatenate([
            rng.integers(0, 2, offset).astype(np.uint8),
            iqword.words_to_bits(words)])
        assert np.array_equal(
            iqword.bits_to_words(stream, offset),
            iqword.bits_to_words_reference(stream, offset))

    def test_bits_to_words_short_stream_raises_like_reference(self):
        bits = np.zeros(16, dtype=np.uint8)
        with pytest.raises(FramingError):
            iqword.bits_to_words(bits)
        with pytest.raises(FramingError):
            iqword.bits_to_words_reference(bits)

    def test_pack_codes_range_check_matches_pack_word(self):
        with pytest.raises(FramingError):
            iqword.pack_codes(np.asarray([4096]), np.asarray([0]))
        with pytest.raises(FramingError):
            iqword.pack_codes(np.asarray([0]), np.asarray([-4097]))

    def test_controls_roundtrip_through_vector_codec(self):
        words = iqword.pack_codes(np.asarray([1, -1]), np.asarray([2, -2]),
                                  np.asarray([1, 0]), np.asarray([0, 1]))
        i_codes, q_codes, i_ctrl, q_ctrl = iqword.unpack_codes(words)
        assert i_codes.tolist() == [1, -1]
        assert q_codes.tolist() == [2, -2]
        assert i_ctrl.tolist() == [1, 0]
        assert q_ctrl.tolist() == [0, 1]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 100),
           error_rate=st.sampled_from([0.001, 0.01, 0.05]))
    def test_corrupted_words_fail_identically(self, seed, count, error_rate):
        """Injected bit errors: both decoders raise, or both decode equal."""
        rng = np.random.default_rng(seed)
        words = iqword.samples_to_words(random_samples(seed, count))
        bits = lvds.inject_bit_errors(iqword.words_to_bits(words),
                                      error_rate, rng)
        corrupted = iqword.bits_to_words(bits)
        assert np.array_equal(corrupted,
                              iqword.bits_to_words_reference(bits))
        try:
            fast = iqword.words_to_samples(corrupted)
        except FramingError:
            with pytest.raises(FramingError):
                iqword.words_to_samples_reference(corrupted)
        else:
            assert np.array_equal(
                fast, iqword.words_to_samples_reference(corrupted))


class TestAlignmentParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(5, 40),
           misalignment=st.integers(0, 31))
    def test_alignment_search_matches_reference(self, seed, count,
                                                misalignment):
        rng = np.random.default_rng(seed)
        words = iqword.samples_to_words(random_samples(seed, count))
        stream = np.concatenate([
            rng.integers(0, 2, misalignment).astype(np.uint8),
            iqword.words_to_bits(words)])
        assert iqword.find_word_alignment(stream) == \
            iqword.find_word_alignment_reference(stream)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unalignable_stream_fails_on_both_paths(self, seed):
        rng = np.random.default_rng(seed)
        stream = np.zeros(256, dtype=np.uint8)
        stream[rng.integers(0, 256, 8)] = 1
        fast_raises = ref_raises = False
        try:
            fast = iqword.find_word_alignment(stream)
        except FramingError:
            fast_raises = True
        try:
            reference = iqword.find_word_alignment_reference(stream)
        except FramingError:
            ref_raises = True
        assert fast_raises == ref_raises
        if not fast_raises:
            assert fast == reference

    def test_too_short_stream_raises_on_both_paths(self):
        bits = np.zeros(100, dtype=np.uint8)
        with pytest.raises(FramingError):
            iqword.find_word_alignment(bits)
        with pytest.raises(FramingError):
            iqword.find_word_alignment_reference(bits)


class TestLvdsParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 150))
    def test_serialize_matches_reference(self, seed, count):
        words = iqword.samples_to_words(random_samples(seed, count))
        rising_fast, falling_fast = lvds.serialize_words(words)
        rising_ref, falling_ref = lvds.serialize_words_reference(words)
        assert np.array_equal(rising_fast, rising_ref)
        assert np.array_equal(falling_fast, falling_ref)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 150),
           error_rate=st.sampled_from([0.0, 0.01, 0.05]))
    def test_roundtrip_with_errors_matches_reference(self, seed, count,
                                                     error_rate):
        """DDR round-trip with injected lane errors is path-independent."""
        rng = np.random.default_rng(seed)
        words = iqword.samples_to_words(random_samples(seed, count))
        rising, falling = lvds.serialize_words(words)
        rising = lvds.inject_bit_errors(rising, error_rate, rng)
        falling = lvds.inject_bit_errors(falling, error_rate, rng)
        fast = lvds.deserialize_words(rising, falling)
        reference = lvds.deserialize_words_reference(rising, falling)
        assert np.array_equal(fast, reference)
        if error_rate == 0.0:
            assert np.array_equal(fast, words)

    def test_mismatched_lanes_raise_on_both_paths(self):
        rising = np.zeros(8, dtype=np.uint8)
        falling = np.zeros(9, dtype=np.uint8)
        with pytest.raises(FramingError):
            lvds.deserialize_words(rising, falling)
        with pytest.raises(FramingError):
            lvds.deserialize_words_reference(rising, falling)


class TestChirpParity:
    @settings(max_examples=20, deadline=None)
    @given(sf=st.integers(6, 9), oversampling=st.sampled_from([1, 2, 4]),
           symbol_seed=st.integers(0, 2**16 - 1),
           downchirp=st.booleans())
    def test_cached_shift_matches_direct_computation(self, sf, oversampling,
                                                     symbol_seed, downchirp):
        params = LoRaParams(sf, 125e3, oversampling=oversampling)
        symbol = symbol_seed % params.chips_per_symbol
        assert np.array_equal(
            ideal_chirp(params, symbol, downchirp),
            ideal_chirp_reference(params, symbol, downchirp))

    @settings(max_examples=10, deadline=None)
    @given(sf=st.integers(6, 8), symbol_seed=st.integers(0, 2**16 - 1),
           downchirp=st.booleans())
    def test_quantized_shift_matches_direct_computation(self, sf,
                                                        symbol_seed,
                                                        downchirp):
        params = LoRaParams(sf, 125e3)
        generator = QuantizedChirpGenerator(params)
        symbol = symbol_seed % params.chips_per_symbol
        assert np.array_equal(
            generator.chirp(symbol, downchirp),
            generator.chirp_reference(symbol, downchirp))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 30),
           quantized=st.booleans())
    def test_chirp_train_matches_per_symbol_generation(self, seed, count,
                                                       quantized):
        params = LoRaParams(7, 125e3)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, params.chips_per_symbol, count)
        train = chirp_train(params, values, quantized=quantized)
        if count == 0:
            assert train.size == 0
            return
        generator = QuantizedChirpGenerator(params)
        if quantized:
            expected = np.concatenate([
                generator.chirp_reference(int(v)) for v in values])
        else:
            expected = np.concatenate([
                ideal_chirp_reference(params, int(v)) for v in values])
        assert np.array_equal(train, expected)

    def test_out_of_range_symbols_still_rejected(self):
        params = LoRaParams(7, 125e3)
        with pytest.raises(ConfigurationError):
            chirp_train(params, np.asarray([0, params.chips_per_symbol]))
        with pytest.raises(ConfigurationError):
            QuantizedChirpGenerator(params).symbols(np.asarray([-1]))

    def test_ideal_chirp_returns_writable_array(self):
        params = LoRaParams(7, 125e3)
        chirp = ideal_chirp(params, 3)
        chirp[0] = 0.0  # callers own their copy; the cached base is frozen


class TestFftBlockParity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           length=st.sampled_from([8, 64, 256]),
           rows=st.integers(1, 16))
    def test_forward_block_matches_per_row_forward(self, seed, length, rows):
        rng = np.random.default_rng(seed)
        matrix = (rng.normal(size=(rows, length))
                  + 1j * rng.normal(size=(rows, length)))
        core = Radix2Fft(length)
        block = core.forward_block(matrix)
        for index in range(rows):
            assert np.array_equal(block[index], core.forward(matrix[index]))

    def test_forward_block_validates_shape(self):
        core = Radix2Fft(16)
        with pytest.raises(ConfigurationError):
            core.forward_block(np.zeros(16, dtype=np.complex128))
        with pytest.raises(ConfigurationError):
            core.forward_block(np.zeros((2, 8), dtype=np.complex128))


class TestDemodStreamParity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 24),
           oversampling=st.sampled_from([1, 2]),
           cfo_bins=st.integers(-64, 64), start=st.integers(0, 300))
    def test_batched_stream_matches_reference(self, seed, count,
                                              oversampling, cfo_bins,
                                              start):
        # The fast path folds the CFO into its dechirp reference; the
        # reference twin derotates every sample by its absolute index.
        # Symbols start off the symbol grid, at sample ``start``.
        params = LoRaParams(7, 125e3, oversampling=oversampling)
        n = params.chips_per_symbol
        rng = np.random.default_rng(seed)
        values = rng.integers(0, n, count)
        clean = np.concatenate([np.zeros(start, dtype=np.complex128),
                                chirp_train(params, values)])
        shifted = apply_cfo(clean, cfo_bins * params.bandwidth_hz / n,
                            params.sample_rate_hz)
        noisy = shifted + 0.3 * (rng.normal(size=clean.size)
                                 + 1j * rng.normal(size=clean.size))
        demod = SymbolDemodulator(params)
        fast = demod.demodulate_stream(noisy, count, start, cfo_bins)
        reference = demod.demodulate_stream_reference(noisy, count, start,
                                                      cfo_bins)
        assert np.array_equal(fast, reference)
        assert np.array_equal(fast, values)

    def test_batched_window_matrix_matches_single_windows(self, rng):
        params = LoRaParams(8, 125e3, oversampling=2)
        demod = SymbolDemodulator(params)
        sym = params.samples_per_symbol
        windows = (rng.normal(size=(5, sym))
                   + 1j * rng.normal(size=(5, sym)))
        bins, mags = demod.demodulate_upchirp_block(windows)
        for index in range(5):
            single_bin, single_mag = demod.demodulate_upchirp(windows[index])
            assert bins[index] == single_bin
            assert mags[index] == single_mag

    def test_stream_too_short_raises_on_both_paths(self):
        from repro.errors import DemodulationError
        params = LoRaParams(7, 125e3)
        stream = np.zeros(params.samples_per_symbol, dtype=np.complex128)
        demod = SymbolDemodulator(params)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream(stream, 2)
        with pytest.raises(DemodulationError):
            demod.demodulate_stream_reference(stream, 2)


def _ser_per_window(params, rssi_dbm, num_symbols, rng):
    """Oracle for ``lora_symbol_error_rate``: one window per call."""
    budget = LinkBudget(bandwidth_hz=params.sample_rate_hz,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    symbols = rng.integers(0, params.chips_per_symbol, num_symbols)
    waveform = _apply_residual_cfo(
        chirp_train(params, symbols, quantized=True), params, rng)
    stream = receive([ReceivedSignal(waveform, rssi_dbm)], budget, rng)
    demod = SymbolDemodulator(params)
    sym = params.samples_per_symbol
    errors = 0
    for index, expected in enumerate(symbols):
        detected, _ = demod.demodulate_upchirp(
            stream[index * sym:(index + 1) * sym])
        errors += int(detected != expected)
    return errors / num_symbols


def _concurrent_per_window(receiver, samples, num_symbols):
    """Oracle for ``ConcurrentReceiver.demodulate``: one window per call."""
    results = []
    for demod, params, count in zip(receiver.branches,
                                    receiver.branch_params, num_symbols):
        sym = params.samples_per_symbol
        values = np.empty(count, dtype=np.int64)
        magnitudes = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i], magnitudes[i] = demod.demodulate_upchirp(
                samples[i * sym:(i + 1) * sym])
        results.append((values, magnitudes))
    return results


class TestBatchedSweepParity:
    @pytest.mark.parametrize("oversampling", [1, 2])
    @pytest.mark.parametrize("bandwidth_hz", [125e3, 250e3, 500e3])
    @pytest.mark.parametrize("sf", range(7, 13))
    def test_ser_matches_per_window_loop(self, sf, bandwidth_hz,
                                         oversampling):
        # RSSIs straddle each configuration's waterfall, so symbol
        # errors occur and every decision near the noise is compared.
        params = LoRaParams(sf, bandwidth_hz, oversampling=oversampling)
        seed = sf * 1000 + int(bandwidth_hz / 1e3) + oversampling
        batched_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        waterfall = -126.0 + 2.5 * (8 - sf) + 10 * np.log10(
            bandwidth_hz / 125e3)
        num_symbols = max(16, 256 >> (sf - 7))
        rates = []
        for rssi in (waterfall + 2.0, waterfall - 2.0, waterfall - 6.0):
            point = lora_symbol_error_rate(params, rssi, num_symbols,
                                           batched_rng)
            expected = _ser_per_window(params, rssi, num_symbols, loop_rng)
            assert point.error_rate.hex() == expected.hex()
            assert point.trials == num_symbols
            assert (batched_rng.bit_generator.state
                    == loop_rng.bit_generator.state)
            rates.append(expected)
        assert any(0.0 < rate < 1.0 for rate in rates)

    @pytest.mark.parametrize("config_a,config_b", [
        (LoRaParams(8, 125e3), LoRaParams(8, 250e3)),
        (LoRaParams(7, 125e3), LoRaParams(9, 125e3)),
        (LoRaParams(9, 250e3), LoRaParams(10, 500e3)),
        (LoRaParams(12, 500e3), LoRaParams(7, 125e3)),
    ])
    def test_concurrent_receiver_matches_per_window_loop(
            self, config_a, config_b, rng):
        receiver = ConcurrentReceiver([config_a, config_b])
        branch_a, branch_b = receiver.branch_params
        n_a = 12
        # A ragged tail: the stream is longer than either branch's
        # whole symbols.
        size = n_a * branch_a.samples_per_symbol + 77
        n_b = size // branch_b.samples_per_symbol
        waves = [chirp_train(params, rng.integers(
                     0, params.chips_per_symbol, count))
                 for params, count in ((branch_a, n_a), (branch_b, n_b))]
        budget = LinkBudget(bandwidth_hz=receiver.sample_rate_hz)
        stream = receive([ReceivedSignal(waves[0], -118.0),
                          ReceivedSignal(waves[1], -116.0)], budget, rng,
                         num_samples=size)
        for counts in ([n_a, n_b], [n_a, 0], [0, n_b], [n_a - 5, n_b // 3]):
            results = receiver.demodulate(stream, counts)
            expected = _concurrent_per_window(receiver, stream, counts)
            for result, (values, magnitudes) in zip(results, expected):
                assert result.symbols.dtype == np.int64
                assert np.array_equal(result.symbols, values)
                assert result.magnitudes.tobytes() == magnitudes.tobytes()
