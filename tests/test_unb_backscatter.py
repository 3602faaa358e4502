"""Tests for the ultra-narrowband PHY and the backscatter building block."""

import numpy as np
import pytest

from repro.backscatter.system import (
    BackscatterConfig,
    BackscatterReader,
    BackscatterTag,
    reader_link,
)
from repro.channel.awgn import awgn
from repro.errors import ConfigurationError, DemodulationError
from repro.phy.unb.dbpsk import (
    SIGFOX_BANDWIDTH_HZ,
    UnbConfig,
    UnbDemodulator,
    UnbFrame,
    UnbModulator,
    differential_encode,
)
from repro.units import noise_floor_dbm


class TestDifferentialEncoding:
    def test_ones_alternate_phase(self):
        symbols = differential_encode(np.array([1, 1, 1]))
        assert list(symbols) == [-1.0, 1.0, -1.0]

    def test_zeros_hold_phase(self):
        symbols = differential_encode(np.array([0, 0, 0]))
        assert list(symbols) == [1.0, 1.0, 1.0]

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            differential_encode(np.array([2]))


class TestUnbModem:
    def test_noiseless_roundtrip(self, rng):
        bits = rng.integers(0, 2, 200)
        wave = UnbModulator().modulate(bits)
        assert np.array_equal(UnbDemodulator().demodulate(wave, 200), bits)

    def test_carrier_phase_invariance(self, rng):
        # DBPSK must decode under any constant phase rotation.
        bits = rng.integers(0, 2, 100)
        wave = UnbModulator().modulate(bits) * np.exp(1j * 1.234)
        assert np.array_equal(UnbDemodulator().demodulate(wave, 100), bits)

    def test_occupied_bandwidth_matches_sigfox_class(self):
        config = UnbConfig()
        assert config.occupied_bandwidth_hz == pytest.approx(
            SIGFOX_BANDWIDTH_HZ)

    def test_sensitivity_below_minus_140dbm(self, rng):
        # The UNB promise: a 200 Hz receiver floor is -151 dBm + NF, so
        # even DBPSK's ~10 dB Eb/N0 lands deep below LoRa territory.
        config = UnbConfig()
        floor = noise_floor_dbm(config.sample_rate_hz, 6.0)
        rssi = -140.0
        snr_db = rssi - floor
        bits = rng.integers(0, 2, 500)
        wave = UnbModulator(config).modulate(bits)
        noisy = awgn(wave, snr_db, rng)
        errors = int(np.sum(UnbDemodulator(config).demodulate(noisy, 500)
                            != bits))
        assert errors / 500 < 0.01

    def test_deep_noise_breaks_link(self, rng):
        bits = rng.integers(0, 2, 300)
        wave = UnbModulator().modulate(bits)
        noisy = awgn(wave, -10.0, rng)
        errors = int(np.sum(UnbDemodulator().demodulate(noisy, 300)
                            != bits))
        assert errors / 300 > 0.1

    def test_short_capture_rejected(self):
        with pytest.raises(DemodulationError):
            UnbDemodulator().demodulate(np.zeros(10, dtype=complex), 100)


class TestUnbFrame:
    def test_roundtrip(self):
        frame = UnbFrame(device_id=0x12345678, payload=b"sensor!",
                         sequence=99)
        assert UnbFrame.from_bits(frame.to_bits()) == frame

    def test_max_payload(self):
        UnbFrame(device_id=1, payload=bytes(12))
        with pytest.raises(ConfigurationError):
            UnbFrame(device_id=1, payload=bytes(13))

    def test_crc_detects_corruption(self):
        bits = UnbFrame(device_id=7, payload=b"x").to_bits()
        bits[-1] ^= 1
        with pytest.raises(DemodulationError):
            UnbFrame.from_bits(bits)

    def test_sync_required(self):
        bits = UnbFrame(device_id=7, payload=b"x").to_bits()
        bits[20] ^= 1  # inside the sync word
        with pytest.raises(DemodulationError):
            UnbFrame.from_bits(bits)

    def test_over_the_air(self, rng):
        frame = UnbFrame(device_id=0xCAFE0001, payload=b"ota", sequence=3)
        bits = frame.to_bits()
        wave = UnbModulator().modulate(bits)
        noisy = awgn(wave, 12.0, rng)
        received = UnbDemodulator().demodulate(noisy, bits.size)
        assert UnbFrame.from_bits(received) == frame


class TestBackscatterConfig:
    def test_samples_per_bit(self):
        config = BackscatterConfig()
        assert config.samples_per_bit == 400

    def test_needs_subcarrier_cycles(self):
        with pytest.raises(ConfigurationError):
            BackscatterConfig(subcarrier_hz=10e3, bit_rate_bps=9e3)

    def test_subcarrier_inside_nyquist(self):
        with pytest.raises(ConfigurationError):
            BackscatterConfig(subcarrier_hz=3e6)


class TestBackscatterLink:
    def test_clean_link_decodes(self, rng):
        config = BackscatterConfig()
        bits = rng.integers(0, 2, 48)
        capture = reader_link(config, bits, carrier_to_noise_db=80.0,
                              self_interference_db=0.0, rng=rng)
        decoded = BackscatterReader(config).demodulate(capture, bits.size)
        assert np.array_equal(decoded, bits)

    def test_survives_full_self_interference(self, rng):
        # The direct carrier is 30 dB above the tag reflection; the
        # subcarrier offset is what makes the link work anyway.
        config = BackscatterConfig()
        bits = rng.integers(0, 2, 48)
        capture = reader_link(config, bits, carrier_to_noise_db=70.0,
                              self_interference_db=0.0, rng=rng)
        assert np.array_equal(
            BackscatterReader(config).demodulate(capture, bits.size), bits)

    def test_noise_floor_breaks_link(self, rng):
        config = BackscatterConfig()
        bits = np.tile([1, 0], 24)
        capture = reader_link(config, bits, carrier_to_noise_db=15.0,
                              self_interference_db=0.0, rng=rng)
        decoded = BackscatterReader(config).demodulate(capture, bits.size)
        assert np.any(decoded != bits)

    def test_tag_reflection_is_attenuated(self, rng):
        config = BackscatterConfig(tag_loss_db=30.0)
        carrier = np.ones(config.samples_per_bit * 4, dtype=complex)
        tag = BackscatterTag(config)
        reflection = tag.reflect(carrier, np.ones(4, dtype=np.int64))
        power = float(np.mean(np.abs(reflection) ** 2))
        assert power == pytest.approx(1e-3, rel=0.05)

    def test_zero_bits_absorb(self):
        config = BackscatterConfig()
        carrier = np.ones(config.samples_per_bit * 2, dtype=complex)
        reflection = BackscatterTag(config).reflect(
            carrier, np.zeros(2, dtype=np.int64))
        assert np.allclose(reflection, 0.0)

    def test_short_carrier_rejected(self):
        config = BackscatterConfig()
        with pytest.raises(ConfigurationError):
            BackscatterTag(config).reflect(
                np.ones(10, dtype=complex), np.ones(4, dtype=np.int64))

    def test_short_capture_rejected(self):
        config = BackscatterConfig()
        with pytest.raises(DemodulationError):
            BackscatterReader(config).demodulate(
                np.zeros(10, dtype=complex), 8)
