"""Tests for the payload <-> symbol codec (headers, CRC, FEC behaviour)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodingError
from repro.phy.lora.codec import (
    HEADER_CR_DENOMINATOR,
    LoRaCodec,
    crc16_ccitt,
)
from repro.phy.lora.params import LoRaParams


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/XMODEM of "123456789" is 0x31C3.
        assert crc16_ccitt(b"123456789") == 0x31C3

    def test_empty(self):
        assert crc16_ccitt(b"") == 0x0000

    def test_detects_single_byte_change(self):
        assert crc16_ccitt(b"hello") != crc16_ccitt(b"hellp")

    @given(st.binary(max_size=300), st.integers(0, 0xFFFF))
    def test_matches_the_bitwise_register_model(self, data, initial):
        crc = initial
        for byte in data:
            crc ^= byte << 8
            for _ in range(8):
                crc = ((crc << 1) ^ (0x1021 if crc & 0x8000 else 0)) & 0xFFFF
        assert crc16_ccitt(data, initial) == crc


class TestCodecRoundtrip:
    @pytest.mark.parametrize("sf", [7, 8, 9, 10, 11, 12])
    def test_roundtrip_across_sfs(self, sf):
        codec = LoRaCodec(LoRaParams(sf, 125e3))
        payload = b"tinySDR codec test payload"
        decoded = codec.decode(codec.encode(payload))
        assert decoded.payload == payload
        assert decoded.crc_ok is True
        assert decoded.header_ok is True
        assert decoded.fec_errors == 0

    @pytest.mark.parametrize("cr", [5, 6, 7, 8])
    def test_roundtrip_across_coding_rates(self, cr):
        codec = LoRaCodec(LoRaParams(8, 125e3, coding_rate_denominator=cr))
        payload = bytes(range(40))
        decoded = codec.decode(codec.encode(payload))
        assert decoded.payload == payload
        assert decoded.crc_ok is True

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 15, 60, 255])
    def test_roundtrip_payload_lengths(self, length):
        codec = LoRaCodec(LoRaParams(9, 125e3))
        payload = bytes(range(256))[:length]
        decoded = codec.decode(codec.encode(payload))
        assert decoded.payload == payload

    def test_roundtrip_without_crc(self):
        codec = LoRaCodec(LoRaParams(8, 125e3), crc=False)
        decoded = codec.decode(codec.encode(b"abc"))
        assert decoded.payload == b"abc"
        assert decoded.crc_ok is None

    def test_roundtrip_implicit_header(self):
        params = LoRaParams(8, 125e3, explicit_header=False)
        codec = LoRaCodec(params)
        decoded = codec.decode(codec.encode(b"implicit!"))
        assert decoded.payload.startswith(b"implicit!")
        assert decoded.crc_ok is True

    def test_roundtrip_with_ldro(self):
        params = LoRaParams(11, 125e3, low_data_rate_optimize=True)
        codec = LoRaCodec(params)
        payload = b"low data rate optimized"
        decoded = codec.decode(codec.encode(payload))
        assert decoded.payload == payload

    def test_sf6_requires_implicit_header(self):
        with pytest.raises(CodingError):
            LoRaCodec(LoRaParams(6, 125e3))
        codec = LoRaCodec(LoRaParams(6, 125e3, explicit_header=False))
        decoded = codec.decode(codec.encode(b"sf6"))
        assert decoded.payload.startswith(b"sf6")


class TestCodecStructure:
    def test_symbols_are_in_range(self, rng):
        params = LoRaParams(8, 125e3)
        codec = LoRaCodec(params)
        symbols = codec.encode(rng.integers(0, 256, 50,
                                            dtype=np.uint8).tobytes())
        assert symbols.min() >= 0
        assert symbols.max() < 256

    def test_header_block_uses_reduced_rate_grid(self):
        # Header symbols occupy bins spaced 2^(SF-ppm) = 4 apart.
        codec = LoRaCodec(LoRaParams(8, 125e3))
        symbols = codec.encode(b"x")
        header_block = symbols[:8]
        assert all(int(s) % 4 == 0 for s in header_block)

    def test_symbol_count_prediction(self):
        # The count the streaming receiver runs: header block + payload.
        for length in (0, 1, 5, 20, 100):
            for sf in (7, 9, 12):
                codec = LoRaCodec(LoRaParams(sf, 125e3))
                predicted = (HEADER_CR_DENOMINATOR
                             + codec.payload_section_symbols(length))
                actual = len(codec.encode(bytes(length)))
                assert predicted == actual, (length, sf)

    def test_oversized_payload_rejected(self):
        codec = LoRaCodec(LoRaParams(8, 125e3))
        with pytest.raises(CodingError):
            codec.encode(bytes(256))

    def test_decode_too_short_for_header(self):
        codec = LoRaCodec(LoRaParams(8, 125e3))
        with pytest.raises(CodingError):
            codec.decode(np.array([0, 0, 0]))


def header_block(codec, payload_length, flags):
    """A header block with a valid checksum for any ``flags`` nibble."""
    ppm = codec.params.spreading_factor - 2
    checksum = (payload_length ^ (payload_length >> 4) ^ flags) & 0xFF
    nibbles = [payload_length & 0xF, payload_length >> 4, flags,
               checksum & 0xF, checksum >> 4]
    nibbles += [0] * (ppm - len(nibbles))
    return codec._encode_blocks(np.asarray([nibbles]), ppm, 8)


class TestHeaderCodingRate:
    @pytest.mark.parametrize("rate_field", range(8))
    @pytest.mark.parametrize("crc_bit", [0, 8])
    def test_only_rates_4_5_to_4_8_pass(self, rate_field, crc_bit):
        # The checksum holds for every block built here; a rate field
        # outside 1..4 (CR 4/4, 4/9..4/11) must still fail the header on
        # every decode path instead of reaching the Hamming tables.
        codec = LoRaCodec(LoRaParams(8, 125e3))
        symbols = np.concatenate([
            header_block(codec, 5, rate_field | crc_bit),
            codec.encode(b"hello")[8:]])
        valid = 1 <= rate_field <= 4
        assert codec.decode_header(symbols).header_ok is valid
        assert codec.decode(symbols).header_ok is valid
        assert codec.decode_reference(symbols).header_ok is valid


class TestCodecErrorBehaviour:
    def test_crc_catches_corrupted_payload_symbol(self):
        codec = LoRaCodec(LoRaParams(8, 125e3))
        symbols = codec.encode(b"payload under test!!")
        # Smash three payload-section symbols completely.
        symbols = symbols.copy()
        symbols[10] ^= 0xA5
        symbols[11] ^= 0x5A
        symbols[12] ^= 0xFF
        decoded = codec.decode(symbols)
        assert decoded.crc_ok is False or decoded.payload != \
            b"payload under test!!"

    def test_single_offbin_error_corrected_at_cr8(self):
        # A +-1 chirp detection error flips one bit per symbol (Gray); at
        # CR 4/8 the Hamming stage corrects it.
        params = LoRaParams(8, 125e3, coding_rate_denominator=8)
        codec = LoRaCodec(params)
        payload = b"forward error correction"
        symbols = codec.encode(payload).copy()
        # Off-by-one error in one payload symbol (after the 8 header syms).
        symbols[9] = symbols[9] + 1 if symbols[9] < 255 else symbols[9] - 1
        decoded = codec.decode(symbols)
        assert decoded.payload == payload
        assert decoded.crc_ok is True
        assert decoded.fec_errors >= 1

    def test_header_checksum_detects_corruption(self):
        codec = LoRaCodec(LoRaParams(8, 125e3))
        symbols = codec.encode(b"hello").copy()
        symbols[0] ^= 0xFC  # clobber header block symbol 0 heavily
        symbols[1] ^= 0xF0
        symbols[2] ^= 0xE0
        symbols[3] ^= 0xCC
        decoded = codec.decode(symbols)
        # Either FEC fixed everything, or the header must be flagged.
        if decoded.payload != b"hello":
            assert decoded.header_ok is False or decoded.crc_ok is False

    def test_trailing_noise_symbols_ignored(self, rng):
        # Extra garbage symbols after the packet must not corrupt the
        # decoded payload (length comes from the header).
        codec = LoRaCodec(LoRaParams(8, 125e3))
        payload = b"exact length"
        symbols = codec.encode(payload)
        noisy_tail = rng.integers(0, 256, 16)
        extended = np.concatenate([symbols, noisy_tail])
        decoded = codec.decode(extended)
        assert decoded.payload == payload
        assert decoded.crc_ok is True
