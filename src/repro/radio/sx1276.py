"""SX1276 LoRa link budget - the backbone radio and reference chip.

The SX1276 plays two roles in the paper: it is the comparison baseline for
the LoRa modulator/demodulator case study (Figs. 10-11, "we achieve a
comparable sensitivity ... which is similar to an SX1276 LoRa chip with
the same configuration"), and it is tinySDR's OTA backbone radio
(section 3.1.2, chosen at $4.50 for its range and rate flexibility).

This module holds the chip's datasheet sensitivity table and the
analytic packet error rate built on it, so the OTA link simulator can
compute packet outcomes without running sample-level DSP for every one
of the thousands of OTA packets.  The ideal-chirp reference transmitter
is :class:`repro.phy.lora.LoRaModulator` with ``quantized=False`` (a
hardwired ASIC has no NCO LUTs), and the chip's supply draws live in
:mod:`repro.power.profiles`.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.phy.lora.params import LoRaParams
from repro.units import noise_floor_dbm

NOISE_FIGURE_DB = 6.0  # datasheet: SX1276, implied by sensitivity table
"""Effective SX1276 receiver noise figure implied by its sensitivity table."""

# Demodulation SNR thresholds per spreading factor (datasheet: SX1276,
# table "LoRa modem sensitivity"): the SNR at which PER hits ~1 %.
SNR_THRESHOLD_DB = {  # datasheet: SX1276, LoRa modem sensitivity table
    6: -5.0, 7: -7.5, 8: -10.0, 9: -12.5, 10: -15.0, 11: -17.5, 12: -20.0,
}

SER_UNDERFLOW_EXPONENT = -700.0  # spec: IEEE 754 binary64 exp() range
"""Below this exponent ``exp`` underflows toward a denormal; the union
bound is then zero.  The fleet engine's vectorized twin cuts here too."""


def sensitivity_dbm(params: LoRaParams) -> float:
    """Datasheet sensitivity for a LoRa configuration.

    ``S = noise_floor(BW, NF) + SNR_threshold(SF)``; for SF8/BW125 this
    gives -127 dBm ~ the -126 dBm the paper quotes.
    """
    threshold = SNR_THRESHOLD_DB.get(params.spreading_factor)
    if threshold is None:
        raise ConfigurationError(
            f"no SNR threshold for SF{params.spreading_factor}")
    return noise_floor_dbm(params.bandwidth_hz, NOISE_FIGURE_DB) + threshold


def packet_error_probability(params: LoRaParams, rssi_dbm: float,
                             payload_bytes: int,
                             preamble_symbols: int = 8) -> float:
    """Analytic PER for the packet-level OTA simulation.

    Chirp symbol error probability is modelled with the standard
    noncoherent orthogonal-signaling union bound evaluated at the
    post-despreading SNR, then expanded to the packet's symbol count.
    This matches the measured waterfall of the sample-level demodulator
    within a fraction of a dB while being ~10^4 times faster - which is
    what makes simulating 20-node OTA campaigns (Fig. 14) tractable.
    """
    snr_db = rssi_dbm - noise_floor_dbm(params.bandwidth_hz, NOISE_FIGURE_DB)
    ser = symbol_error_probability(params.spreading_factor, snr_db)
    symbols = (preamble_symbols + 4.25
               + params.airtime_s(payload_bytes, preamble_symbols)
               / params.symbol_duration_s)
    # FEC corrects scattered single errors; approximate its benefit by
    # discounting the symbol count by the coding rate.
    effective_symbols = symbols * 4.0 / params.coding_rate_denominator
    per = 1.0 - (1.0 - ser) ** max(effective_symbols, 1.0)
    return min(max(per, 0.0), 1.0)


def symbol_error_probability(spreading_factor: int, snr_db: float) -> float:
    """Union-bound SER of noncoherent 2**SF-ary orthogonal signaling.

    After dechirping, a LoRa symbol decision is a noncoherent maximum
    selection over ``N = 2**SF`` bins with per-bin SNR ``N * snr``.
    ``P_s <= (N-1)/2 * exp(-N*snr/2)`` (clamped to [0, 1]).
    """
    if not 6 <= spreading_factor <= 12:
        raise ConfigurationError(
            f"spreading factor must be 6..12, got {spreading_factor}")
    n = 2 ** spreading_factor
    snr = 10.0 ** (snr_db / 10.0)
    exponent = -n * snr / 2.0
    if exponent < SER_UNDERFLOW_EXPONENT:
        return 0.0
    return min(1.0, (n - 1) / 2.0 * math.exp(exponent))
