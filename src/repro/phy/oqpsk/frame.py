"""IEEE 802.15.4 PHY framing (the ZigBee PHY layer).

A PPDU is: a 4-byte preamble of zeros, the 0xA7 start-of-frame
delimiter, a 7-bit frame-length PHY header, and the PSDU (MAC frame)
terminated by a 16-bit ITU-T CRC.  We implement the full PHY frame plus
the transmit/receive pipeline over the O-QPSK modem: frame -> symbols ->
chips -> half-sine waveform and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.oqpsk.modem import OqpskDemodulator, OqpskModulator
from repro.phy.oqpsk.spreading import (
    CHIPS_PER_SYMBOL,
    despread,
    spread,
    symbols_to_bytes,
)

PREAMBLE_BYTES = b"\x00\x00\x00\x00"
SFD_BYTE = 0xA7
MAX_PSDU_BYTES = 127


def crc16_itut(data: bytes) -> int:
    """ITU-T CRC-16 (polynomial 0x1021, init 0, LSB-first) per 802.15.4."""
    crc = 0x0000
    for byte in data:
        for bit in range(8):
            in_bit = (byte >> bit) & 1
            out_bit = (crc >> 15) & 1
            crc = (crc << 1) & 0xFFFF
            if in_bit ^ out_bit:
                crc ^= 0x1021
    return crc


@dataclass(frozen=True)
class Ieee802154Frame:
    """One PHY frame.

    Attributes:
        psdu: the MAC payload (without the trailing CRC).
    """

    psdu: bytes

    def __post_init__(self) -> None:
        if len(self.psdu) + 2 > MAX_PSDU_BYTES:
            raise ConfigurationError(
                f"PSDU + CRC limited to {MAX_PSDU_BYTES} bytes, got "
                f"{len(self.psdu) + 2}")

    def ppdu(self) -> bytes:
        """Full PPDU bytes: preamble | SFD | length | PSDU | CRC."""
        crc = crc16_itut(self.psdu)
        body = self.psdu + bytes((crc & 0xFF, crc >> 8))
        return (PREAMBLE_BYTES + bytes((SFD_BYTE,))
                + bytes((len(body),)) + body)


@dataclass(frozen=True)
class ReceivedFrame:
    """Receive-side result."""

    psdu: bytes
    crc_ok: bool
    mean_correlation: float


class Ieee802154Transceiver:
    """Frame-level 802.15.4 TX/RX over the O-QPSK modem."""

    def __init__(self, samples_per_chip: int = 2) -> None:
        self.modulator = OqpskModulator(samples_per_chip)
        self.demodulator = OqpskDemodulator(samples_per_chip)
        self.samples_per_chip = samples_per_chip

    def transmit(self, frame: Ieee802154Frame) -> np.ndarray:
        """Spread and modulate one frame."""
        return self.modulator.modulate(spread(frame.ppdu()))

    def receive(self, samples: np.ndarray,
                start_sample: int = 0) -> ReceivedFrame:
        """Despread an aligned capture back into a frame.

        Demodulates the PHY header first to learn the frame length, then
        the body - mirroring a hardware receiver's two-phase operation.

        Raises:
            DemodulationError: when the SFD cannot be found, the length
                field is invalid, or ``samples`` is not a numeric array
                or holds a NaN or infinite sample.
        """
        header_symbols = (len(PREAMBLE_BYTES) + 2) * 2  # through length
        header_chips = header_symbols * CHIPS_PER_SYMBOL
        soft = self.demodulator.soft_chips(samples, header_chips,
                                           start_sample)
        symbols = despread(soft)
        header = symbols_to_bytes(symbols)
        if header[4] != SFD_BYTE:
            raise DemodulationError(
                f"SFD not found: got {header[4]:#04x}, expected "
                f"{SFD_BYTE:#04x}")
        length = header[5] & 0x7F
        if length < 2:
            raise DemodulationError(f"invalid frame length {length}")
        body_chips = length * 2 * CHIPS_PER_SYMBOL
        body_start = start_sample + header_chips * self.samples_per_chip
        # Chips pair into I/Q lanes on the modulator's pair grid; chip
        # indices map 1:1 to sample offsets of chip_duration each.
        soft_body = self.demodulator.soft_chips(
            samples, body_chips, body_start)
        body_symbols = despread(soft_body)
        body = symbols_to_bytes(body_symbols)
        psdu, crc_bytes = body[:-2], body[-2:]
        received_crc = crc_bytes[0] | (crc_bytes[1] << 8)
        crc_ok = crc16_itut(psdu) == received_crc
        correlation = float(np.mean(np.abs(soft_body)))
        return ReceivedFrame(psdu=psdu, crc_ok=crc_ok,
                             mean_correlation=correlation)
