"""Unit conversions and RF link-budget helpers.

This module centralizes the handful of conversions that every layer of the
stack needs: decibel arithmetic, thermal-noise floors, and LoRa airtime
math.  Keeping them in one place ensures the PHY simulations, the power
models and the benchmark harnesses all agree on the same physics.
"""

from __future__ import annotations

import math

BOLTZMANN_DBM_PER_HZ = -174.0
"""Thermal noise density kT at ~290 K, in dBm/Hz."""

SPEED_OF_LIGHT_M_S = 299_792_458.0


def db_to_linear(db: float) -> float:
    """Convert a decibel ratio to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to decibels.

    Raises:
        ValueError: if ``ratio`` is not strictly positive.
    """
    if ratio <= 0.0:
        raise ValueError(f"cannot take log of non-positive ratio {ratio!r}")
    return 10.0 * math.log10(ratio)


def dbm_to_mw(dbm: float) -> float:
    """Convert a power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power in milliwatts to dBm.

    Raises:
        ValueError: if ``mw`` is not strictly positive.
    """
    if mw <= 0.0:
        raise ValueError(f"cannot express non-positive power {mw!r} mW in dBm")
    return 10.0 * math.log10(mw)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return dbm_to_mw(dbm) / 1e3


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm."""
    return mw_to_dbm(watts * 1e3)


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise floor over ``bandwidth_hz`` seen through a receiver.

    ``P_N = -174 dBm/Hz + 10*log10(BW) + NF``.  This is the quantity the
    paper's sensitivity arguments hinge on: LoRa SF8/BW125 demodulates at
    roughly 9 dB *below* this floor thanks to its spreading gain.

    Args:
        bandwidth_hz: receiver noise bandwidth in Hz.
        noise_figure_db: receiver noise figure in dB.

    Raises:
        ValueError: if ``bandwidth_hz`` is not strictly positive.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return BOLTZMANN_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def snr_from_rssi(rssi_dbm: float, bandwidth_hz: float,
                  noise_figure_db: float) -> float:
    """Signal-to-noise ratio implied by a received signal strength."""
    return rssi_dbm - noise_floor_dbm(bandwidth_hz, noise_figure_db)


def rssi_from_snr(snr_db: float, bandwidth_hz: float,
                  noise_figure_db: float) -> float:
    """Inverse of :func:`snr_from_rssi`."""
    return snr_db + noise_floor_dbm(bandwidth_hz, noise_figure_db)


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB.

    Raises:
        ValueError: if distance or frequency is not strictly positive.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m!r}")
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz!r}")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def combine_powers_dbm(*powers_dbm: float) -> float:
    """Sum incoherent signal powers expressed in dBm.

    Used for interference-plus-noise accounting in the concurrent-reception
    study (paper Fig. 15b): the effective noise is the linear sum of the
    thermal floor and each interferer.
    """
    if not powers_dbm:
        raise ValueError("need at least one power to combine")
    total_mw = sum(dbm_to_mw(p) for p in powers_dbm)
    return mw_to_dbm(total_mw)


def lora_symbol_duration_s(spreading_factor: int, bandwidth_hz: float) -> float:
    """Duration of one LoRa chirp symbol: ``2**SF / BW`` seconds."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return (2 ** spreading_factor) / bandwidth_hz


def lora_bit_rate_bps(spreading_factor: int, bandwidth_hz: float,
                      coding_rate_denominator: int = 4) -> float:
    """Raw LoRa PHY bit rate ``SF * BW / 2**SF * (4 / CR_den)``.

    The paper quotes the uncoded form ``BW / 2**SF * SF``; pass
    ``coding_rate_denominator=4`` (i.e. CR 4/4, no coding) to get that.
    """
    if coding_rate_denominator < 4 or coding_rate_denominator > 8:
        raise ValueError(
            f"coding rate denominator must be in 4..8, got {coding_rate_denominator!r}")
    uncoded = spreading_factor * bandwidth_hz / (2 ** spreading_factor)
    return uncoded * 4.0 / coding_rate_denominator


def lora_airtime_s(payload_bytes: int, spreading_factor: int,
                   bandwidth_hz: float, coding_rate_denominator: int = 5,
                   preamble_symbols: int = 8, explicit_header: bool = True,
                   low_data_rate_optimize: bool | None = None,
                   crc: bool = True) -> float:
    """Time-on-air of a LoRa packet (Semtech AN1200.13 formula).

    This drives every OTA-programming time estimate in the reproduction of
    paper Fig. 14.

    Args:
        payload_bytes: MAC payload length in bytes.
        spreading_factor: LoRa SF, 6..12.
        bandwidth_hz: LoRa bandwidth in Hz.
        coding_rate_denominator: 5..8 for CR 4/5..4/8.
        preamble_symbols: number of programmed preamble symbols (the radio
            appends 4.25 symbols of sync/SFD on top).
        explicit_header: whether the PHY header is present.
        low_data_rate_optimize: force LDRO on/off; ``None`` selects it
            automatically when the symbol time exceeds 16 ms, as SX1276
            firmware does.
        crc: whether the 16-bit payload CRC is appended.

    Raises:
        ValueError: for out-of-range SF or coding rate.
    """
    if not 6 <= spreading_factor <= 12:
        raise ValueError(f"spreading factor must be 6..12, got {spreading_factor!r}")
    if not 5 <= coding_rate_denominator <= 8:
        raise ValueError(
            f"coding rate denominator must be 5..8, got {coding_rate_denominator!r}")
    t_sym = lora_symbol_duration_s(spreading_factor, bandwidth_hz)
    if low_data_rate_optimize is None:
        low_data_rate_optimize = t_sym > 16e-3
    de = 1 if low_data_rate_optimize else 0
    ih = 0 if explicit_header else 1
    crc_bits = 16 if crc else 0
    numerator = (8 * payload_bytes - 4 * spreading_factor + 28
                 + crc_bits - 20 * ih)
    denominator = 4 * (spreading_factor - 2 * de)
    payload_symbols = 8 + max(
        math.ceil(numerator / denominator) * coding_rate_denominator, 0)
    preamble_time = (preamble_symbols + 4.25) * t_sym
    return preamble_time + payload_symbols * t_sym
