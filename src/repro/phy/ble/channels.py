"""BLE advertising channel plan and beacon hopping schedule.

BLE divides the 2.4 GHz band into 40 channels spaced 2 MHz apart; beacons
are broadcast on the three advertising channels (37, 38, 39 at 2402, 2426
and 2480 MHz) in sequence, separated by a few hundred microseconds, and
the triple repeats every advertising interval (paper section 4.2 and
Fig. 13).  The 220 us figure the paper measures is tinySDR's frequency-
switch latency (Table 4); an iPhone 8 needs ~350 us.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.radio.at86rf215 import FREQUENCY_SWITCH_S

ADVERTISING_CHANNELS = (37, 38, 39)
ADVERTISING_FREQUENCIES_HZ = (2_402_000_000, 2_426_000_000, 2_480_000_000)

# spec: Bluetooth Core 5.0 vol 6 part B section 1.4 (channel grid).
BLE_CHANNEL_SPACING_HZ = 2_000_000
BLE_DATA_LOW_BASE_HZ = 2_404_000_000
BLE_DATA_HIGH_BASE_HZ = 2_428_000_000

TINYSDR_HOP_DELAY_S = FREQUENCY_SWITCH_S
"""tinySDR's hop gap is the radio's frequency switch (Table 4 / Fig. 13)."""

IPHONE8_HOP_DELAY_S = 350e-6
"""The corresponding gap measured from an iPhone 8 (paper section 5.2)."""


def channel_frequency_hz(channel: int) -> int:
    """Center frequency of a BLE channel index (0..39).

    BLE channel indices interleave data and advertising channels across
    2402..2480 MHz; the three advertising channels sit at the band edges
    and center.
    """
    if not 0 <= channel <= 39:
        raise ConfigurationError(f"BLE channel must be 0..39, got {channel}")
    if channel in ADVERTISING_CHANNELS:
        return ADVERTISING_FREQUENCIES_HZ[ADVERTISING_CHANNELS.index(channel)]
    if channel <= 10:
        return BLE_DATA_LOW_BASE_HZ + channel * BLE_CHANNEL_SPACING_HZ
    return BLE_DATA_HIGH_BASE_HZ + (channel - 11) * BLE_CHANNEL_SPACING_HZ


@dataclass(frozen=True)
class BeaconTransmission:
    """One beacon burst within an advertising event.

    Attributes:
        channel: advertising channel index.
        frequency_hz: RF center frequency.
        start_time_s: transmission start relative to the event start.
        duration_s: packet airtime.
    """

    channel: int
    frequency_hz: int
    start_time_s: float
    duration_s: float


def advertising_event(packet_airtime_s: float,
                      hop_delay_s: float = TINYSDR_HOP_DELAY_S,
                      channels: tuple[int, ...] = ADVERTISING_CHANNELS
                      ) -> list[BeaconTransmission]:
    """Schedule one advertising event across the advertising channels.

    Args:
        packet_airtime_s: duration of the beacon packet.
        hop_delay_s: dead time between channels (frequency switch).
        channels: the channels to cycle, in order.

    Raises:
        ConfigurationError: for non-positive airtime or negative delay.
    """
    if packet_airtime_s <= 0.0:
        raise ConfigurationError(
            f"packet airtime must be positive, got {packet_airtime_s!r}")
    if hop_delay_s < 0.0:
        raise ConfigurationError(
            f"hop delay must be >= 0, got {hop_delay_s!r}")
    schedule = []
    time = 0.0
    for channel in channels:
        schedule.append(BeaconTransmission(
            channel=channel,
            frequency_hz=channel_frequency_hz(channel),
            start_time_s=time,
            duration_s=packet_airtime_s))
        time += packet_airtime_s + hop_delay_s
    return schedule


def beacon_airtime_s(pdu_bytes: int, bit_rate_bps: float = 1e6) -> float:
    """Airtime of an advertising packet: preamble + AA + PDU + CRC.

    Raises:
        ConfigurationError: for out-of-range PDU sizes.
    """
    if not 2 <= pdu_bytes <= 39:
        raise ConfigurationError(
            f"advertising PDU must be 2..39 bytes, got {pdu_bytes}")
    total_bytes = 1 + 4 + pdu_bytes + 3
    return total_bytes * 8 / bit_rate_bps
