"""Ultra-narrowband DBPSK, Sigfox-style.

Sigfox appears throughout the paper as the extreme point of IoT
bandwidth: "LoRa, Sigfox, NB-IoT, LTE-M, Bluetooth and ZigBee use only
500 kHz, 200 Hz, 180 kHz, 1.4 MHz, 2 MHz and 2 MHz respectively".  A
100 bit/s differential-BPSK uplink occupies ~200 Hz, which is why UNB
networks reach such low sensitivities (the noise floor over 200 Hz is
-151 dBm).

This module implements the PHY: differential encoding (data in the
phase *change* between bits, so no carrier-phase recovery is needed),
rectangular-pulse BPSK at 100 bit/s, and the delay-conjugate-multiply
demodulator a minimal receiver uses.  It exercises the platform claim
that tinySDR's I/Q interface handles arbitrarily narrow signals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.lora.codec import crc16_ccitt

SIGFOX_BIT_RATE_BPS = 100.0
SIGFOX_BANDWIDTH_HZ = 200.0


@dataclass(frozen=True)
class UnbConfig:
    """Ultra-narrowband waveform parameters.

    Attributes:
        bit_rate_bps: symbol rate (100 b/s for a Sigfox-class uplink).
        samples_per_bit: oversampling of the rectangular pulse.
    """

    bit_rate_bps: float = SIGFOX_BIT_RATE_BPS
    samples_per_bit: int = 8

    def __post_init__(self) -> None:
        if self.bit_rate_bps <= 0:
            raise ConfigurationError(
                f"bit rate must be positive, got {self.bit_rate_bps!r}")
        if self.samples_per_bit < 2:
            raise ConfigurationError(
                "need at least 2 samples per bit, got "
                f"{self.samples_per_bit}")

    @property
    def sample_rate_hz(self) -> float:
        """Baseband sample rate."""
        return self.bit_rate_bps * self.samples_per_bit

    @property
    def occupied_bandwidth_hz(self) -> float:
        """Main-lobe bandwidth of the rectangular-pulse BPSK (~2/T)."""
        return 2.0 * self.bit_rate_bps


def differential_encode(bits: np.ndarray) -> np.ndarray:
    """Map data bits to absolute phases: a 1 flips phase, a 0 holds it.

    Returns the +-1 symbol for each bit, starting from +1.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ConfigurationError("bit array must contain only 0s and 1s")
    symbols = np.empty(bits.size, dtype=np.float64)
    state = 1.0
    for index, bit in enumerate(bits):
        if bit:
            state = -state
        symbols[index] = state
    return symbols


class UnbModulator:
    """Rectangular-pulse DBPSK modulator."""

    def __init__(self, config: UnbConfig | None = None) -> None:
        self.config = config or UnbConfig()

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Modulate data bits into complex baseband (unit amplitude)."""
        symbols = differential_encode(bits)
        if symbols.size == 0:
            return np.zeros(0, dtype=np.complex128)
        # Prepend the reference symbol the differential receiver needs.
        with_reference = np.concatenate([[1.0], symbols])
        return np.repeat(with_reference, self.config.samples_per_bit) \
            .astype(np.complex128)


class UnbDemodulator:
    """Delay-conjugate-multiply DBPSK receiver.

    Integrates each bit period, multiplies by the conjugate of the
    previous period, and reads the data bit off the sign - insensitive
    to the absolute carrier phase, which an UNB link cannot track.
    """

    def __init__(self, config: UnbConfig | None = None) -> None:
        self.config = config or UnbConfig()

    def demodulate(self, samples: np.ndarray, num_bits: int,
                   start_sample: int = 0) -> np.ndarray:
        """Recover ``num_bits`` data bits from an aligned capture.

        Raises:
            DemodulationError: if the capture is too short.
        """
        spb = self.config.samples_per_bit
        needed = start_sample + (num_bits + 1) * spb
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.size < needed:
            raise DemodulationError(
                f"capture of {samples.size} samples cannot supply "
                f"{num_bits} bits from offset {start_sample}")
        integrals = np.empty(num_bits + 1, dtype=np.complex128)
        for index in range(num_bits + 1):
            begin = start_sample + index * spb
            integrals[index] = np.sum(samples[begin:begin + spb])
        decisions = integrals[1:] * np.conj(integrals[:-1])
        return (decisions.real < 0.0).astype(np.int64)


@dataclass(frozen=True)
class UnbFrame:
    """A minimal Sigfox-style uplink frame.

    Attributes:
        device_id: 32-bit device identifier.
        payload: up to 12 bytes (the Sigfox uplink limit).
        sequence: rolling counter.
    """

    device_id: int
    payload: bytes
    sequence: int = 0

    PREAMBLE_BITS = 19
    MAX_PAYLOAD_BYTES = 12

    def __post_init__(self) -> None:
        if not 0 <= self.device_id <= 0xFFFFFFFF:
            raise ConfigurationError("device id must be 32-bit")
        if len(self.payload) > self.MAX_PAYLOAD_BYTES:
            raise ConfigurationError(
                f"UNB payload limited to {self.MAX_PAYLOAD_BYTES} bytes, "
                f"got {len(self.payload)}")
        if not 0 <= self.sequence <= 0xFFF:
            raise ConfigurationError("sequence must be 12-bit")

    def to_bits(self) -> np.ndarray:
        """Frame bits: preamble (1010..1), sync, id, seq, payload, CRC."""
        preamble = np.tile([1, 0], self.PREAMBLE_BITS)[:self.PREAMBLE_BITS]
        sync = np.array([1, 0, 0, 1, 0, 1, 1, 0], dtype=np.int64)
        body = (self.device_id.to_bytes(4, "big")
                + self.sequence.to_bytes(2, "big")
                + bytes((len(self.payload),)) + self.payload)
        crc = crc16_ccitt(body)
        body += bytes((crc >> 8, crc & 0xFF))
        body_bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))
        return np.concatenate([preamble, sync,
                               body_bits.astype(np.int64)])

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "UnbFrame":
        """Parse frame bits back (alignment assumed).

        Raises:
            DemodulationError: on sync or CRC failure.
        """
        bits = np.asarray(bits, dtype=np.int64)
        header = cls.PREAMBLE_BITS + 8
        sync = bits[cls.PREAMBLE_BITS:header]
        if not np.array_equal(sync, [1, 0, 0, 1, 0, 1, 1, 0]):
            raise DemodulationError("UNB sync word not found")
        body_bits = bits[header:]
        usable = (body_bits.size // 8) * 8
        body = np.packbits(body_bits[:usable].astype(np.uint8)).tobytes()
        if len(body) < 9:
            raise DemodulationError("UNB frame truncated")
        device_id = int.from_bytes(body[0:4], "big")
        sequence = int.from_bytes(body[4:6], "big")
        length = body[6]
        if 7 + length + 2 > len(body):
            raise DemodulationError("UNB length field exceeds capture")
        payload = body[7:7 + length]
        received_crc = int.from_bytes(body[7 + length:9 + length], "big")
        if crc16_ccitt(body[:7 + length]) != received_crc:
            raise DemodulationError("UNB frame CRC mismatch")
        return cls(device_id=device_id, payload=payload, sequence=sequence)
