"""LoRa packet framing (paper Fig. 5).

A LoRa packet is: a preamble of 10 zero symbols (upchirps with zero cyclic
shift), a Sync field of two upchirp symbols carrying the network sync
word, 2.25 downchirp symbols (the SFD) marking the start of the payload,
and the payload symbols encoding header, payload and CRC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.lora.params import (
    LoRaParams,
    PREAMBLE_SYMBOLS,
    SFD_SYMBOLS,
)


def sync_symbols_for_word(params: LoRaParams) -> tuple[int, int]:
    """Map the 8-bit sync word onto the two sync symbol values.

    As on SX127x hardware, each sync nibble is carried as ``nibble * 8``
    chips of cyclic shift, keeping sync values on a coarse grid that
    tolerates +-1 chip detection errors.
    """
    word = params.sync_word
    high = ((word >> 4) & 0xF) * 8
    low = (word & 0xF) * 8
    n = params.chips_per_symbol
    if high >= n or low >= n:
        raise ConfigurationError(
            f"sync word {word:#x} does not fit in SF{params.spreading_factor} "
            "symbol space")
    return high, low


def sync_word_from_symbols(params: LoRaParams, high_symbol: int,
                           low_symbol: int) -> int:
    """Recover the sync word from detected sync symbol values (rounded)."""
    high = (round(high_symbol / 8)) & 0xF
    low = (round(low_symbol / 8)) & 0xF
    return (high << 4) | low


@dataclass(frozen=True)
class LoRaFrame:
    """Symbol-level description of one LoRa packet.

    Attributes:
        params: the PHY configuration.
        payload_symbols: the Gray-mapped payload section symbol values.
        preamble_symbols: number of programmed preamble upchirps.
    """

    params: LoRaParams
    payload_symbols: np.ndarray
    preamble_symbols: int = PREAMBLE_SYMBOLS

    def __post_init__(self) -> None:
        if self.preamble_symbols < 4:
            raise ConfigurationError(
                "LoRa needs at least 4 preamble symbols for detection, got "
                f"{self.preamble_symbols}")

    @property
    def total_samples(self) -> int:
        """Total baseband samples occupied by the frame."""
        sym = self.params.samples_per_symbol
        sfd = int(round(SFD_SYMBOLS * sym))
        return (self.preamble_symbols + 2) * sym + sfd + \
            len(self.payload_symbols) * sym

    def payload_start_sample(self) -> int:
        """Index of the first payload symbol sample within the frame."""
        sym = self.params.samples_per_symbol
        return (self.preamble_symbols + 2) * sym + int(round(SFD_SYMBOLS * sym))


@dataclass
class SyncResult:
    """Where a packet was found in a sample stream.

    Attributes:
        payload_start: sample index of the first payload symbol.
        sync_word: recovered network sync word.
        cfo_bins: estimated integer carrier-frequency offset in FFT bins.
    """

    payload_start: int
    sync_word: int
    cfo_bins: int = 0
