"""Adaptive data rate (ADR) for LoRaWAN uplinks.

One of the research questions tinySDR is built to let people answer
(paper section 7): "Are there benefits of rate adaptation?"  This module
implements the standard network-side ADR algorithm - track the best SNR
over a window of uplinks, compare it against the demodulation threshold
of the current spreading factor plus a margin, and step the device's SF
(and TX power) to the fastest setting the link supports - plus the
simulation harness to measure what ADR buys across a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.lora.params import LoRaParams
from repro.power.profiles import iq_radio_tx_w
from repro.protocols.lorawan.channels import LORA_BW_125K_HZ
from repro.radio.sx1276 import (
    SNR_THRESHOLD_DB,
    packet_error_probability,
)
from repro.units import noise_floor_dbm

ADR_MARGIN_DB = 10.0
"""Installation margin the TTN network server uses."""

SNR_WINDOW = 20
"""Uplinks considered when computing the max SNR."""

MIN_TX_POWER_DBM = 2.0
MAX_TX_POWER_DBM = 14.0
TX_POWER_STEP_DB = 2.0


@dataclass
class AdrState:
    """Network-side ADR state for one device.

    Attributes:
        spreading_factor: currently commanded SF.
        tx_power_dbm: currently commanded TX power.
        snr_history: recent uplink SNRs.
    """

    spreading_factor: int = 12
    tx_power_dbm: float = MAX_TX_POWER_DBM
    snr_history: list[float] = field(default_factory=list)

    def record_uplink(self, snr_db: float) -> None:
        """Track one uplink's measured SNR."""
        self.snr_history.append(snr_db)
        if len(self.snr_history) > SNR_WINDOW:
            self.snr_history.pop(0)

    def adjust(self) -> bool:
        """Run one ADR decision; returns True when settings changed.

        The TTN algorithm: ``margin = maxSNR - threshold(SF) -
        ADR_MARGIN``; each 3 dB of positive margin buys one SF step down,
        then TX power steps down; negative margin steps SF back up.
        """
        if not self.snr_history:
            return False
        max_snr = max(self.snr_history)
        threshold = SNR_THRESHOLD_DB[self.spreading_factor]
        margin = max_snr - threshold - ADR_MARGIN_DB
        steps = int(margin // 3.0)
        changed = False
        while steps > 0 and self.spreading_factor > 7:
            self.spreading_factor -= 1
            steps -= 1
            changed = True
        while steps > 0 and self.tx_power_dbm > MIN_TX_POWER_DBM:
            self.tx_power_dbm = max(self.tx_power_dbm - TX_POWER_STEP_DB,
                                    MIN_TX_POWER_DBM)
            steps -= 1
            changed = True
        while steps < 0 and (self.tx_power_dbm < MAX_TX_POWER_DBM
                             or self.spreading_factor < 12):
            if self.tx_power_dbm < MAX_TX_POWER_DBM:
                self.tx_power_dbm = min(
                    self.tx_power_dbm + TX_POWER_STEP_DB,
                    MAX_TX_POWER_DBM)
            else:
                self.spreading_factor += 1
            steps += 1
            changed = True
        if changed:
            # SNRs measured at the old setting would keep the window's
            # max stale; restart the measurement at the new setting.
            self.snr_history.clear()
        return changed

    def backoff(self) -> None:
        """Device-side recovery (the ADRACKReq mechanism): after repeated
        unacknowledged uplinks, raise power then spreading factor."""
        if self.tx_power_dbm < MAX_TX_POWER_DBM:
            self.tx_power_dbm = min(self.tx_power_dbm + TX_POWER_STEP_DB,
                                    MAX_TX_POWER_DBM)
        elif self.spreading_factor < 12:
            self.spreading_factor += 1
        self.snr_history.clear()


@dataclass(frozen=True)
class AdrSimulationResult:
    """What a device's uplinks cost with and without ADR.

    Attributes:
        final_sf: converged spreading factor.
        final_tx_power_dbm: converged TX power.
        airtime_s_per_packet: airtime at the converged setting.
        energy_j_per_packet: radio TX energy at the converged setting.
        delivery_ratio: fraction of uplinks delivered post-convergence.
    """

    final_sf: int
    final_tx_power_dbm: float
    airtime_s_per_packet: float
    energy_j_per_packet: float
    delivery_ratio: float


def simulate_adr(path_loss_db: float, rng: np.random.Generator,
                 payload_bytes: int = 20, uplinks: int = 60,
                 bandwidth_hz: float = LORA_BW_125K_HZ,
                 fading_sigma_db: float = 2.0) -> AdrSimulationResult:
    """Run a device from SF12/14 dBm through ADR convergence.

    Args:
        path_loss_db: link budget between device and gateway.
        rng: randomness for per-packet fading.
        payload_bytes: uplink payload size.
        uplinks: packets to simulate (ADR adjusts every packet once the
            window fills).
        bandwidth_hz: LoRa bandwidth.
        fading_sigma_db: per-packet shadowing.

    Raises:
        ConfigurationError: for non-positive uplink counts.
    """
    if uplinks <= 0:
        raise ConfigurationError(f"need uplinks > 0, got {uplinks}")

    state = AdrState()
    floor = noise_floor_dbm(bandwidth_hz, 6.0)
    delivered_after_convergence = 0
    counted = 0
    consecutive_losses = 0
    for index in range(uplinks):
        rssi = (state.tx_power_dbm - path_loss_db
                + float(rng.normal(0.0, fading_sigma_db)))
        params = LoRaParams(state.spreading_factor, bandwidth_hz)
        per = packet_error_probability(params, rssi, payload_bytes)
        delivered = rng.random() >= per
        if delivered:
            state.record_uplink(rssi - floor)
            consecutive_losses = 0
        else:
            consecutive_losses += 1
        if index >= uplinks // 2:
            counted += 1
            delivered_after_convergence += int(delivered)
        if consecutive_losses >= 3:
            state.backoff()
            consecutive_losses = 0
        elif len(state.snr_history) >= 5:
            state.adjust()

    params = LoRaParams(state.spreading_factor, bandwidth_hz)
    airtime = params.airtime_s(payload_bytes)
    energy = airtime * iq_radio_tx_w(
        min(state.tx_power_dbm, 14.0))
    return AdrSimulationResult(
        final_sf=state.spreading_factor,
        final_tx_power_dbm=state.tx_power_dbm,
        airtime_s_per_packet=airtime,
        energy_j_per_packet=energy,
        delivery_ratio=(delivered_after_convergence / counted
                        if counted else 0.0))


def fixed_rate_cost(spreading_factor: int, tx_power_dbm: float,
                    payload_bytes: int = 20,
                    bandwidth_hz: float = LORA_BW_125K_HZ
                    ) -> tuple[float, float]:
    """(airtime, energy) per packet for a fixed configuration baseline."""
    params = LoRaParams(spreading_factor, bandwidth_hz)
    airtime = params.airtime_s(payload_bytes)
    return airtime, airtime * iq_radio_tx_w(min(tx_power_dbm, 14.0))
