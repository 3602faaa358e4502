"""LoRa PHY configuration.

A LoRa link is parameterized by its spreading factor (SF), bandwidth (BW)
and coding rate (CR).  The paper's primer (section 4.1): SF determines the
number of bits per upchirp symbol, BW is the chirp's frequency span, and
together they set the symbol duration ``2**SF / BW`` and the PHY rate
``BW / 2**SF * SF``.  Data is modulated as one of ``2**SF`` cyclic shifts
of the base upchirp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import lora_airtime_s, lora_bit_rate_bps, lora_symbol_duration_s

MIN_SPREADING_FACTOR = 6
MAX_SPREADING_FACTOR = 12

STANDARD_BANDWIDTHS_HZ = (
    7_812.5, 10_417.0, 15_625.0, 20_833.0, 31_250.0, 41_667.0,
    62_500.0, 125_000.0, 250_000.0, 500_000.0,
)
"""The SX127x bandwidth options; the paper quotes 7.8125 kHz to 500 kHz."""

PREAMBLE_SYMBOLS = 10
"""Paper Fig. 5: the packet begins with a preamble of 10 zero symbols."""

SYNC_SYMBOLS = 2
"""Two upchirp symbols carrying the sync word."""

SFD_SYMBOLS = 2.25
"""2.25 downchirp symbols mark the start of the payload."""

DEFAULT_SYNC_WORD = 0x12
"""Private-network sync word (TTN/LoRaWAN uses 0x34)."""


@dataclass(frozen=True)
class LoRaParams:
    """One LoRa PHY configuration.

    Attributes:
        spreading_factor: SF, 6..12.
        bandwidth_hz: chirp bandwidth in Hz.
        coding_rate_denominator: 5..8 selecting Hamming CR 4/5..4/8.
        oversampling: receiver samples per chip.  1 samples at exactly BW
            (one FFT bin per symbol value); the concurrent receiver uses
            2+ so two bandwidths can share one sample stream.
        sync_word: 8-bit network sync word carried by the two sync symbols.
        explicit_header: include the PHY header in packets.
        low_data_rate_optimize: reduce payload bits/symbol by 2 for very
            long symbols (auto-selected by :func:`repro.units.lora_airtime_s`
            when computing airtime; here it affects the payload codec).
    """

    spreading_factor: int
    bandwidth_hz: float
    coding_rate_denominator: int = 5
    oversampling: int = 1
    sync_word: int = DEFAULT_SYNC_WORD
    explicit_header: bool = True
    low_data_rate_optimize: bool = False

    def __post_init__(self) -> None:
        if not MIN_SPREADING_FACTOR <= self.spreading_factor <= MAX_SPREADING_FACTOR:
            raise ConfigurationError(
                f"spreading factor must be {MIN_SPREADING_FACTOR}.."
                f"{MAX_SPREADING_FACTOR}, got {self.spreading_factor}")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ConfigurationError(
                f"bandwidth_hz must be positive and finite, "
                f"got {self.bandwidth_hz!r}")
        if not 5 <= self.coding_rate_denominator <= 8:
            raise ConfigurationError(
                "coding rate denominator must be 5..8, got "
                f"{self.coding_rate_denominator}")
        if self.oversampling < 1 or (self.oversampling & (self.oversampling - 1)):
            raise ConfigurationError(
                f"oversampling must be a power of two >= 1, got {self.oversampling}")
        if not 0 <= self.sync_word <= 0xFF:
            raise ConfigurationError(
                f"sync word must fit in one byte, got {self.sync_word!r}")

    @property
    def chips_per_symbol(self) -> int:
        """Number of chips (and possible symbol values): ``2**SF``."""
        return 2 ** self.spreading_factor

    @property
    def samples_per_symbol(self) -> int:
        """Samples in one chirp symbol at the configured oversampling."""
        return self.chips_per_symbol * self.oversampling

    @property
    def sample_rate_hz(self) -> float:
        """Baseband sample rate ``BW * oversampling``."""
        return self.bandwidth_hz * self.oversampling

    @property
    def symbol_duration_s(self) -> float:
        """Chirp symbol duration in seconds."""
        return lora_symbol_duration_s(self.spreading_factor, self.bandwidth_hz)

    @property
    def chirp_slope_hz_per_s(self) -> float:
        """Chirp slope ``BW**2 / 2**SF`` - the orthogonality parameter.

        Two LoRa configurations can be received concurrently when their
        slopes differ (paper section 6).
        """
        return self.bandwidth_hz ** 2 / self.chips_per_symbol

    @property
    def raw_bit_rate_bps(self) -> float:
        """Coded PHY bit rate."""
        return lora_bit_rate_bps(self.spreading_factor, self.bandwidth_hz,
                                 self.coding_rate_denominator - 1)

    @property
    def payload_bits_per_symbol(self) -> int:
        """Source bits carried per payload symbol (SF, minus 2 with LDRO)."""
        if self.low_data_rate_optimize:
            return self.spreading_factor - 2
        return self.spreading_factor

    def is_orthogonal_to(self, other: "LoRaParams") -> bool:
        """Whether two configurations have different chirp slopes."""
        return abs(self.chirp_slope_hz_per_s - other.chirp_slope_hz_per_s) > 1e-9

    def airtime_s(self, payload_bytes: int,
                  preamble_symbols: int = 8, crc: bool = True) -> float:
        """Packet time-on-air for this configuration."""
        return lora_airtime_s(
            payload_bytes, self.spreading_factor, self.bandwidth_hz,
            self.coding_rate_denominator, preamble_symbols,
            self.explicit_header, self.low_data_rate_optimize or None, crc)

    def with_oversampling(self, oversampling: int) -> "LoRaParams":
        """Copy of this configuration at a different oversampling factor."""
        return LoRaParams(
            spreading_factor=self.spreading_factor,
            bandwidth_hz=self.bandwidth_hz,
            coding_rate_denominator=self.coding_rate_denominator,
            oversampling=oversampling,
            sync_word=self.sync_word,
            explicit_header=self.explicit_header,
            low_data_rate_optimize=self.low_data_rate_optimize)

    def describe(self) -> str:
        """Human-readable configuration summary (e.g. ``SF8/BW125kHz/CR4-5``)."""
        bw_khz = self.bandwidth_hz / 1e3
        return (f"SF{self.spreading_factor}/BW{bw_khz:g}kHz/"
                f"CR4-{self.coding_rate_denominator}")
