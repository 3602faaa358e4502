"""Tests for LoRa parameters and chirp generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.lora import (
    LoRaParams,
    QuantizedChirpGenerator,
    chirp_train,
    ideal_chirp,
    ideal_downchirp,
    partial_downchirps,
)


class TestLoRaParams:
    def test_chips_per_symbol(self):
        assert LoRaParams(8, 125e3).chips_per_symbol == 256
        assert LoRaParams(12, 125e3).chips_per_symbol == 4096

    def test_symbol_duration(self):
        params = LoRaParams(8, 125e3)
        assert params.symbol_duration_s == pytest.approx(2.048e-3)

    def test_sample_rate_with_oversampling(self):
        params = LoRaParams(8, 125e3, oversampling=2)
        assert params.sample_rate_hz == pytest.approx(250e3)
        assert params.samples_per_symbol == 512

    def test_chirp_slope_orthogonality(self):
        a = LoRaParams(8, 125e3)
        b = LoRaParams(8, 250e3)
        c = LoRaParams(10, 250e3)
        assert a.is_orthogonal_to(b)
        assert not a.is_orthogonal_to(a)
        # SF10/BW250 slope = 250e3^2/1024; SF8/BW125 slope = 125e3^2/256:
        # equal! The classic non-orthogonal pair.
        assert not a.is_orthogonal_to(c)

    def test_rejects_bad_sf(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(5, 125e3)
        with pytest.raises(ConfigurationError):
            LoRaParams(13, 125e3)

    def test_rejects_non_power_oversampling(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(8, 125e3, oversampling=3)

    def test_rejects_wide_sync_word(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(8, 125e3, sync_word=0x100)

    @pytest.mark.parametrize("bandwidth_hz", [float("nan"), float("inf")])
    def test_rejects_non_finite_bandwidth(self, bandwidth_hz):
        with pytest.raises(ConfigurationError, match="bandwidth_hz"):
            LoRaParams(8, bandwidth_hz)

    def test_payload_bits_with_ldro(self):
        assert LoRaParams(10, 125e3).payload_bits_per_symbol == 10
        assert LoRaParams(10, 125e3,
                          low_data_rate_optimize=True
                          ).payload_bits_per_symbol == 8

    def test_with_oversampling_preserves_rest(self):
        params = LoRaParams(9, 250e3, coding_rate_denominator=7,
                            sync_word=0x34)
        doubled = params.with_oversampling(4)
        assert doubled.oversampling == 4
        assert doubled.spreading_factor == 9
        assert doubled.coding_rate_denominator == 7
        assert doubled.sync_word == 0x34

    def test_describe(self):
        assert LoRaParams(8, 125e3).describe() == "SF8/BW125kHz/CR4-5"

    def test_airtime_delegates(self):
        params = LoRaParams(8, 125e3)
        assert params.airtime_s(23) > 0


class TestIdealChirp:
    def test_unit_amplitude(self):
        chirp = ideal_chirp(LoRaParams(8, 125e3), 100)
        assert np.allclose(np.abs(chirp), 1.0)

    def test_length(self):
        params = LoRaParams(7, 125e3, oversampling=2)
        assert ideal_chirp(params, 0).size == 256

    @pytest.mark.parametrize("symbol", [0, 1, 127, 128, 255])
    def test_dechirp_concentrates_at_symbol_bin(self, symbol):
        params = LoRaParams(8, 125e3)
        chirp = ideal_chirp(params, symbol)
        base = ideal_chirp(params, 0)
        spectrum = np.abs(np.fft.fft(chirp * np.conj(base)))
        assert int(np.argmax(spectrum)) == symbol
        assert spectrum[symbol] == pytest.approx(256, rel=1e-6)

    def test_downchirp_is_conjugate_of_upchirp(self):
        params = LoRaParams(8, 125e3)
        up = ideal_chirp(params, 0)
        down = ideal_chirp(params, 0, downchirp=True)
        assert np.allclose(down, np.conj(up))

    def test_ideal_downchirp_helper(self):
        params = LoRaParams(7, 250e3)
        assert np.allclose(ideal_downchirp(params),
                           ideal_chirp(params, 0, downchirp=True))

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(ConfigurationError):
            ideal_chirp(LoRaParams(8, 125e3), 256)

    def test_symbols_are_nearly_orthogonal(self):
        params = LoRaParams(7, 125e3)
        a = ideal_chirp(params, 10)
        b = ideal_chirp(params, 50)
        correlation = abs(np.vdot(a, b)) / a.size
        assert correlation < 0.05


class TestQuantizedChirp:
    def test_close_to_ideal(self):
        params = LoRaParams(8, 125e3)
        generator = QuantizedChirpGenerator(params)
        for symbol in (0, 37, 255):
            ideal = ideal_chirp(params, symbol)
            quantized = generator.chirp(symbol)
            error = np.max(np.abs(ideal - quantized))
            assert error < 0.02

    def test_quantization_is_not_exact(self):
        # The LUT chirps must differ from ideal - that's the whole point
        # of modelling the digital-domain non-orthogonality.
        params = LoRaParams(8, 125e3)
        quantized = QuantizedChirpGenerator(params).chirp(3)
        assert not np.allclose(quantized, ideal_chirp(params, 3),
                               atol=1e-12)

    def test_demodulates_to_correct_symbol(self):
        params = LoRaParams(9, 125e3)
        generator = QuantizedChirpGenerator(params)
        base = np.conj(ideal_chirp(params, 0))
        for symbol in (0, 100, 511):
            spectrum = np.abs(np.fft.fft(generator.chirp(symbol) * base))
            assert int(np.argmax(spectrum)) == symbol

    def test_symbols_concatenation(self):
        params = LoRaParams(7, 125e3)
        generator = QuantizedChirpGenerator(params)
        train = generator.symbols(np.array([1, 2, 3]))
        assert train.size == 3 * 128
        assert np.allclose(train[:128], generator.chirp(1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            QuantizedChirpGenerator(LoRaParams(7, 125e3)).chirp(128)


class TestTrainsAndSfd:
    def test_chirp_train_empty(self):
        assert chirp_train(LoRaParams(7, 125e3), np.array([])).size == 0

    def test_chirp_train_quantized_matches_generator(self):
        params = LoRaParams(7, 125e3)
        train = chirp_train(params, np.array([5, 6]), quantized=True)
        generator = QuantizedChirpGenerator(params)
        assert np.allclose(train,
                           np.concatenate([generator.chirp(5),
                                           generator.chirp(6)]))

    def test_partial_downchirps_length(self):
        params = LoRaParams(8, 125e3)
        sfd = partial_downchirps(params, 2.25)
        assert sfd.size == int(2.25 * 256)

    def test_partial_downchirps_zero(self):
        assert partial_downchirps(LoRaParams(8, 125e3), 0).size == 0

    def test_partial_downchirps_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            partial_downchirps(LoRaParams(8, 125e3), -1)
