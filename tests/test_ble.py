"""Tests for the BLE beacon PHY: packets, GFSK, channels."""

import warnings

import numpy as np
import pytest

from repro.channel.awgn import awgn
from repro.errors import ConfigurationError, DemodulationError
from repro.phy.ble.channels import (
    ADVERTISING_CHANNELS,
    TINYSDR_HOP_DELAY_S,
    advertising_event,
    beacon_airtime_s,
    channel_frequency_hz,
)
from repro.phy.ble.gfsk import GfskConfig, GfskDemodulator, GfskModulator
from repro.phy.ble.packet import (
    ACCESS_ADDRESS,
    AdvPacket,
    bits_to_bytes_lsb_first,
    bytes_to_bits_lsb_first,
    crc24,
    parse_air_bytes,
    whiten_pdu_and_crc,
    whitening_bits,
)


class TestBitHelpers:
    def test_lsb_first_expansion(self):
        bits = bytes_to_bits_lsb_first(b"\x01\x80")
        assert list(bits[:8]) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert list(bits[8:]) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_roundtrip(self, rng):
        data = rng.integers(0, 256, 50, dtype=np.uint8).tobytes()
        assert bits_to_bytes_lsb_first(bytes_to_bits_lsb_first(data)) == data

    def test_partial_byte_rejected(self):
        with pytest.raises(ConfigurationError):
            bits_to_bytes_lsb_first(np.ones(12, dtype=np.uint8))


class TestCrc24:
    def test_deterministic(self):
        assert crc24(b"hello") == crc24(b"hello")

    def test_detects_bit_flip(self):
        assert crc24(b"\x00\x01\x02") != crc24(b"\x00\x01\x03")

    def test_three_bytes(self):
        assert len(crc24(b"any pdu")) == 3

    def test_empty_pdu_is_init_state(self):
        # No bits shifted in: the CRC is the transformed initial state.
        assert len(crc24(b"")) == 3

    def test_init_affects_result(self):
        assert crc24(b"x", initial=0x555555) != crc24(b"x", initial=0x000000)


class TestWhitening:
    def test_involutive(self):
        data = bytes(range(40))
        assert whiten_pdu_and_crc(whiten_pdu_and_crc(data, 37), 37) == data

    def test_channel_dependent(self):
        data = bytes(20)
        assert whiten_pdu_and_crc(data, 37) != whiten_pdu_and_crc(data, 38)

    def test_sequence_period_127(self):
        bits = whitening_bits(254, 37)
        assert np.array_equal(bits[:127], bits[127:254])

    def test_rejects_bad_channel(self):
        with pytest.raises(ConfigurationError):
            whitening_bits(8, 40)


class TestAdvPacket:
    def test_pdu_layout(self):
        packet = AdvPacket(advertiser_address=b"\xaa" * 6, adv_data=b"ab")
        pdu = packet.pdu()
        assert pdu[0] == 0x2  # ADV_NONCONN_IND
        assert pdu[1] == 8    # 6-byte address + 2 data bytes
        assert pdu[2:8] == b"\xaa" * 6
        assert pdu[8:] == b"ab"

    def test_air_bytes_prefix(self):
        packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"")
        air = packet.air_bytes(37)
        assert air[0] == 0xAA
        assert int.from_bytes(air[1:5], "little") == ACCESS_ADDRESS

    def test_parse_roundtrip_every_channel(self):
        packet = AdvPacket(advertiser_address=bytes.fromhex("010203040506"),
                           adv_data=b"tinySDR!")
        for channel in ADVERTISING_CHANNELS:
            parsed = parse_air_bytes(packet.air_bytes(channel), channel)
            assert parsed.crc_ok
            assert parsed.packet == packet

    def test_corrupted_byte_fails_crc(self):
        packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"data")
        air = bytearray(packet.air_bytes(37))
        air[8] ^= 0x10
        parsed = parse_air_bytes(bytes(air), 37)
        assert not parsed.crc_ok

    def test_wrong_channel_dewhitening_fails(self):
        packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"data")
        air = packet.air_bytes(37)
        try:
            parsed = parse_air_bytes(air, 38)
            assert not parsed.crc_ok
        except DemodulationError:
            pass  # garbage length field is also an acceptable failure

    def test_rejects_oversize_adv_data(self):
        with pytest.raises(ConfigurationError):
            AdvPacket(advertiser_address=bytes(6), adv_data=bytes(32))

    def test_rejects_short_address(self):
        with pytest.raises(ConfigurationError):
            AdvPacket(advertiser_address=bytes(5), adv_data=b"")

    def test_bad_access_address_rejected(self):
        packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"")
        air = bytearray(packet.air_bytes(37))
        air[2] ^= 0xFF
        with pytest.raises(DemodulationError):
            parse_air_bytes(bytes(air), 37)


class TestGfsk:
    def test_config_sample_rate(self):
        assert GfskConfig().sample_rate_hz == pytest.approx(4e6)

    def test_config_deviation(self):
        assert GfskConfig().deviation_hz == pytest.approx(250e3)

    def test_rejects_single_sample_per_symbol(self):
        with pytest.raises(ConfigurationError):
            GfskConfig(samples_per_symbol=1)

    def test_noiseless_roundtrip(self, rng):
        bits = rng.integers(0, 2, 400)
        wave = GfskModulator().modulate(bits)
        decided = GfskDemodulator().demodulate(wave, 400)
        assert np.array_equal(decided, bits)

    def test_quantized_and_ideal_agree_noiselessly(self, rng):
        bits = rng.integers(0, 2, 200)
        ideal = GfskModulator(quantized=False).modulate(bits)
        quantized = GfskModulator(quantized=True).modulate(bits)
        assert np.max(np.abs(ideal - quantized)) < 0.02

    def test_constant_envelope(self, rng):
        wave = GfskModulator(quantized=False).modulate(
            rng.integers(0, 2, 100))
        assert np.allclose(np.abs(wave), 1.0)

    def test_ber_improves_with_snr(self, rng):
        bits = rng.integers(0, 2, 3000)
        wave = GfskModulator().modulate(bits)
        demod = GfskDemodulator()
        ber_low = np.mean(demod.demodulate(awgn(wave, 2.0, rng), 3000)
                          != bits)
        ber_high = np.mean(demod.demodulate(awgn(wave, 12.0, rng), 3000)
                           != bits)
        assert ber_high < ber_low

    def test_correlator_finds_preamble(self, rng):
        packet = AdvPacket(advertiser_address=bytes(6), adv_data=b"find me")
        bits = packet.air_bits(37)
        wave = GfskModulator().modulate(np.asarray(bits))
        # Prepend noise-modulated random bits.
        lead_bits = rng.integers(0, 2, 64)
        lead = GfskModulator().modulate(lead_bits)
        stream = np.concatenate([lead, wave])
        pattern = bytes_to_bits_lsb_first(
            bytes((0xAA,)) + ACCESS_ADDRESS.to_bytes(4, "little"))
        offset = GfskDemodulator().correlate_bits(stream, pattern)
        assert abs(offset - lead.size) <= 2

    def test_demodulate_stream_too_short(self):
        with pytest.raises(DemodulationError):
            GfskDemodulator().demodulate(np.zeros(10, dtype=complex), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_is_refused_with_its_offset(self, rng, bad):
        # A 200-bit burst with one inf sample used to come back with 5
        # bit errors and 24 RuntimeWarnings, and with a NaN silently.
        bits = rng.integers(0, 2, 200)
        wave = GfskModulator().modulate(bits)
        offset = 401
        wave[offset] = bad
        demod = GfskDemodulator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for receive in (demod.demodulate, demod.demodulate_reference):
                with pytest.raises(DemodulationError,
                                   match=f"sample {offset} "):
                    receive(wave, 200)
            with pytest.raises(DemodulationError, match=f"sample {offset} "):
                demod.correlate_bits(wave, bits[:16])


class TestChannels:
    def test_advertising_frequencies(self):
        assert channel_frequency_hz(37) == 2_402_000_000
        assert channel_frequency_hz(38) == 2_426_000_000
        assert channel_frequency_hz(39) == 2_480_000_000

    def test_data_channels_2mhz_spacing(self):
        assert channel_frequency_hz(0) == 2_404_000_000
        assert channel_frequency_hz(10) == 2_424_000_000
        assert channel_frequency_hz(11) == 2_428_000_000
        assert channel_frequency_hz(36) == 2_478_000_000

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            channel_frequency_hz(40)

    def test_beacon_airtime(self):
        # 8-byte PDU: (1 + 4 + 8 + 3) * 8 bits at 1 Mb/s = 128 us.
        assert beacon_airtime_s(8) == pytest.approx(128e-6)

    def test_advertising_event_schedule(self):
        airtime = beacon_airtime_s(10)
        schedule = advertising_event(airtime)
        assert [burst.channel for burst in schedule] == [37, 38, 39]
        gap = schedule[1].start_time_s - (schedule[0].start_time_s + airtime)
        assert gap == pytest.approx(TINYSDR_HOP_DELAY_S)

    def test_event_rejects_zero_airtime(self):
        with pytest.raises(ConfigurationError):
            advertising_event(0.0)
