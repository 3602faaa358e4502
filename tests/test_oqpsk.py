"""Tests for the IEEE 802.15.4 O-QPSK PHY (ZigBee)."""

import warnings

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import CodingError, ConfigurationError, DemodulationError
from repro.phy.oqpsk.frame import (
    Ieee802154Frame,
    Ieee802154Transceiver,
    crc16_itut,
)
from repro.phy.oqpsk.modem import OqpskDemodulator, OqpskModulator
from repro.phy.oqpsk.spreading import (
    BIT_RATE_BPS,
    CHIPS_PER_SYMBOL,
    CHIP_RATE_HZ,
    bytes_to_symbols,
    despread,
    despread_symbol,
    sequence_cross_correlation,
    spread,
    symbol_to_chips,
    symbols_to_bytes,
)


class TestSpreading:
    def test_rates(self):
        assert CHIP_RATE_HZ == 2_000_000
        assert BIT_RATE_BPS == 250_000

    def test_sixteen_distinct_sequences(self):
        sequences = {tuple(symbol_to_chips(s)) for s in range(16)}
        assert len(sequences) == 16

    def test_sequences_are_32_chips(self):
        for symbol in range(16):
            assert symbol_to_chips(symbol).size == CHIPS_PER_SYMBOL

    def test_near_orthogonality(self):
        matrix = sequence_cross_correlation()
        assert np.allclose(np.diag(matrix), 1.0)
        off_diagonal = matrix - np.diag(np.diag(matrix))
        assert np.max(np.abs(off_diagonal)) <= 0.5

    def test_despread_identifies_every_symbol(self):
        for symbol in range(16):
            soft = 2.0 * symbol_to_chips(symbol) - 1.0
            detected, correlation = despread_symbol(soft)
            assert detected == symbol
            assert correlation == pytest.approx(1.0)

    def test_despread_tolerates_chip_errors(self):
        # Up to ~6 flipped chips out of 32 still decode (min distance).
        soft = 2.0 * symbol_to_chips(5) - 1.0
        soft[:6] = -soft[:6]
        detected, _ = despread_symbol(soft)
        assert detected == 5

    def test_byte_symbol_roundtrip(self, rng):
        data = rng.integers(0, 256, 30, dtype=np.uint8).tobytes()
        assert symbols_to_bytes(bytes_to_symbols(data)) == data

    def test_spread_despread_roundtrip(self, rng):
        data = rng.integers(0, 256, 25, dtype=np.uint8).tobytes()
        soft = 2.0 * spread(data) - 1.0
        assert symbols_to_bytes(despread(soft)) == data

    def test_symbol_range_enforced(self):
        with pytest.raises(CodingError):
            symbol_to_chips(16)

    def test_odd_symbol_count_rejected(self):
        with pytest.raises(CodingError):
            symbols_to_bytes(np.array([1, 2, 3]))


class TestModem:
    def test_constant_envelope(self, rng):
        chips = rng.integers(0, 2, 64)
        wave = OqpskModulator().modulate(chips)
        interior = np.abs(wave[8:-8])
        assert np.allclose(interior, interior[0], atol=0.02)

    def test_chip_recovery_noiseless(self, rng):
        chips = rng.integers(0, 2, 128)
        wave = OqpskModulator().modulate(chips)
        soft = OqpskDemodulator().soft_chips(wave, 128)
        decided = (soft > 0).astype(np.int64)
        assert np.array_equal(decided, chips)

    def test_oversampling_4(self, rng):
        chips = rng.integers(0, 2, 64)
        wave = OqpskModulator(samples_per_chip=4).modulate(chips)
        soft = OqpskDemodulator(samples_per_chip=4).soft_chips(wave, 64)
        assert np.array_equal((soft > 0).astype(np.int64), chips)

    def test_odd_chip_count_rejected(self):
        with pytest.raises(ConfigurationError):
            OqpskModulator().modulate(np.ones(3, dtype=np.int64))

    def test_odd_oversampling_rejected(self):
        with pytest.raises(ConfigurationError):
            OqpskModulator(samples_per_chip=3)

    def test_short_stream_rejected(self):
        with pytest.raises(DemodulationError):
            OqpskDemodulator().soft_chips(np.zeros(10, dtype=complex), 64)


class TestFraming:
    def test_crc16_detects_corruption(self):
        data = b"802.15.4"
        crc = crc16_itut(data)
        assert 0 <= crc <= 0xFFFF
        assert crc16_itut(b"802.15.5") != crc
        for bit in range(8):
            corrupted = bytes((data[0] ^ (1 << bit),)) + data[1:]
            assert crc16_itut(corrupted) != crc

    def test_ppdu_layout(self):
        frame = Ieee802154Frame(psdu=b"zig")
        ppdu = frame.ppdu()
        assert ppdu[:4] == bytes(4)
        assert ppdu[4] == 0xA7
        assert ppdu[5] == 5  # 3 payload + 2 CRC

    def test_max_psdu_enforced(self):
        with pytest.raises(ConfigurationError):
            Ieee802154Frame(psdu=bytes(126))

    def test_clean_roundtrip(self):
        transceiver = Ieee802154Transceiver()
        frame = Ieee802154Frame(psdu=b"hello zigbee network")
        received = transceiver.receive(transceiver.transmit(frame))
        assert received.psdu == frame.psdu
        assert received.crc_ok

    def test_roundtrip_with_noise(self, rng):
        transceiver = Ieee802154Transceiver()
        frame = Ieee802154Frame(psdu=b"noisy but spread")
        wave = transceiver.transmit(frame)
        received = transceiver.receive(awgn(wave, 0.0, rng))
        assert received.psdu == frame.psdu
        assert received.crc_ok

    def test_dsss_gain_beats_unspread_threshold(self, rng):
        # At -1 dB SNR an unspread 2 Mb/s link would be hopeless; the
        # 32-chip spreading still decodes most frames.
        transceiver = Ieee802154Transceiver()
        frame = Ieee802154Frame(psdu=b"processing gain!")
        wave = transceiver.transmit(frame)
        successes = 0
        for _ in range(10):
            try:
                received = transceiver.receive(awgn(wave, -1.0, rng))
                successes += int(received.crc_ok
                                 and received.psdu == frame.psdu)
            except DemodulationError:
                pass
        assert successes >= 8

    def test_heavy_noise_breaks_crc(self, rng):
        transceiver = Ieee802154Transceiver()
        frame = Ieee802154Frame(psdu=b"too much noise")
        wave = transceiver.transmit(frame)
        failures = 0
        for _ in range(5):
            try:
                received = transceiver.receive(awgn(wave, -12.0, rng))
                failures += int(not received.crc_ok)
            except DemodulationError:
                failures += 1
        assert failures >= 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_is_refused_with_its_offset(self, bad):
        # The frame used to come back CRC-failed with a NaN or infinite
        # mean_correlation.
        transceiver = Ieee802154Transceiver()
        wave = transceiver.transmit(Ieee802154Frame(psdu=b"hostile capture"))
        offset = wave.size - 101
        wave[offset] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DemodulationError, match=f"sample {offset} "):
                transceiver.receive(wave)
            with pytest.raises(DemodulationError, match=f"sample {offset} "):
                transceiver.demodulator.soft_chips_reference(wave, 64)

    def test_fits_tinysdr_bandwidth(self):
        # 2 Mchip/s occupies ~2 MHz: inside the radio's 4 MHz and the
        # platform's Table 1 bandwidth claim for ZigBee.
        transceiver = Ieee802154Transceiver(samples_per_chip=2)
        assert transceiver.modulator.sample_rate_hz == 4e6
