"""The power management unit: platform states to battery power.

The MCU toggles regulators and component modes to move the platform
between operating states (paper sections 3.3 and 5.1).  The PMU model
composes the domain/regulator stack with the component profiles and
answers the question every power benchmark asks: *what does the battery
see in this state?*
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError, PowerError
# The module, not its constant: repro.fpga.config imports repro.power,
# so the quad-SPI clock is read when a state is entered, not at import.
from repro.fpga import config as fpga_config
from repro.fpga.resources import (
    ble_tx_design,
    concurrent_rx_design,
    lora_rx_design,
    lora_tx_design,
)
from repro.power import profiles
from repro.power.domains import PowerDomain, build_domains


class PlatformState(enum.Enum):
    """Top-level operating states of the tinySDR platform."""

    SLEEP = "sleep"
    MCU_ONLY = "mcu_only"
    IQ_TX = "iq_tx"
    IQ_RX = "iq_rx"
    CONCURRENT_RX = "concurrent_rx"
    BACKBONE_RX = "backbone_rx"
    BACKBONE_TX = "backbone_tx"
    FPGA_BOOT = "fpga_boot"


@dataclass(frozen=True)
class PowerBreakdown:
    """Battery-side power split by domain, plus the total.

    Attributes:
        state: the platform state measured.
        total_w: battery power including board leakage.
        by_domain_w: per-domain battery draw.
    """

    state: PlatformState
    total_w: float
    by_domain_w: dict[str, float]


class PowerManagementUnit:
    """Domain/regulator stack driven by platform states.

    Args:
        battery_v: battery rail voltage.
    """

    def __init__(self, battery_v: float = 3.7) -> None:
        self.battery_v = battery_v
        self.domains: dict[str, PowerDomain] = build_domains(battery_v)
        self.state = PlatformState.SLEEP
        self._apply_sleep()

    # -- state programming -----------------------------------------------

    def _all_off_except_mcu(self) -> None:
        for name, domain in self.domains.items():
            if name == "V1":
                continue
            if domain.is_on:
                domain.turn_off()

    def _apply_sleep(self) -> None:
        self._all_off_except_mcu()
        self.domains["V1"].set_load("mcu", profiles.MCU_LPM3_W)

    def _power_domain(self, name: str, loads: dict[str, float]) -> None:
        domain = self.domains[name]
        domain.turn_on()
        for component, power in loads.items():
            domain.set_load(component, power)

    def enter_state(self, state: PlatformState,
                    tx_power_dbm: float = 0.0,
                    fpga_luts: int | None = None,
                    spreading_factor: int = 8,
                    concurrent_sfs: tuple[int, ...] = (8, 8)) -> None:
        """Reconfigure every domain for a platform state.

        Args:
            state: target state.
            tx_power_dbm: radio RF output power for transmit states.
            fpga_luts: override the active design's LUT count (defaults to
                the case-study design for the state).
            spreading_factor: LoRa SF selecting the RX/TX design size.
            concurrent_sfs: branch SFs for the concurrent receiver state.

        Raises:
            ConfigurationError: for invalid parameters.
            PowerError: if a regulator would be overloaded.
        """
        self.state = state
        if state == PlatformState.SLEEP:
            self._apply_sleep()
            return

        self._all_off_except_mcu()
        self.domains["V1"].set_load("mcu", profiles.MCU_ACTIVE_W)

        if state == PlatformState.MCU_ONLY:
            return

        if state in (PlatformState.IQ_TX, PlatformState.IQ_RX,
                     PlatformState.CONCURRENT_RX, PlatformState.FPGA_BOOT):
            if fpga_luts is None:
                fpga_luts = self._default_design_luts(
                    state, spreading_factor, concurrent_sfs)
            clock = (profiles.FPGA_TX_CLOCK_HZ
                     if state == PlatformState.IQ_TX
                     else profiles.FPGA_RX_CLOCK_HZ)
            if state == PlatformState.FPGA_BOOT:
                clock = fpga_config.QUAD_SPI_CLOCK_HZ
            fpga_w = profiles.fpga_power_w(fpga_luts, clock)
            self._power_domain("V2", {"fpga_core": fpga_w})
            self._power_domain(
                "V3", {"fpga_aux": 0.002,
                       "flash_memory": (profiles.FLASH_ACTIVE_W
                                        if state == PlatformState.FPGA_BOOT
                                        else profiles.FLASH_STANDBY_W)})
            self._power_domain("V4", {"fpga_pll": 0.003})

        if state == PlatformState.IQ_TX:
            self._power_domain(
                "V5", {"iq_radio": profiles.iq_radio_tx_w(tx_power_dbm),
                       "fpga_io": 0.001})
        elif state in (PlatformState.IQ_RX, PlatformState.CONCURRENT_RX):
            self._power_domain(
                "V5", {"iq_radio": profiles.IQ_RADIO_RX_W, "fpga_io": 0.001})
        elif state == PlatformState.BACKBONE_RX:
            self._power_domain(
                "V5", {"backbone_radio": profiles.BACKBONE_RX_W})
        elif state == PlatformState.BACKBONE_TX:
            self._power_domain(
                "V5", {"backbone_radio": profiles.BACKBONE_TX_14DBM_W})

    @staticmethod
    def _default_design_luts(state: PlatformState, spreading_factor: int,
                             concurrent_sfs: tuple[int, ...]) -> int:
        if state == PlatformState.IQ_TX:
            return lora_tx_design(spreading_factor).luts
        if state == PlatformState.IQ_RX:
            return lora_rx_design(spreading_factor).luts
        if state == PlatformState.CONCURRENT_RX:
            return concurrent_rx_design(list(concurrent_sfs)).luts
        if state == PlatformState.FPGA_BOOT:
            return 0
        raise ConfigurationError(f"no default design for state {state}")

    # -- measurement --------------------------------------------------------

    def battery_power_w(self) -> float:
        """Total battery draw in the current state."""
        total = sum(domain.battery_power_w()
                    for domain in self.domains.values())
        return total + profiles.BOARD_LEAKAGE_W

    def breakdown(self) -> PowerBreakdown:
        """Battery draw split per domain."""
        by_domain = {name: domain.battery_power_w()
                     for name, domain in self.domains.items()}
        return PowerBreakdown(state=self.state,
                              total_w=self.battery_power_w(),
                              by_domain_w=by_domain)

    def ble_tx_power_w(self, tx_power_dbm: float = 0.0) -> float:
        """Convenience: battery power transmitting BLE beacons."""
        self.enter_state(PlatformState.IQ_TX, tx_power_dbm=tx_power_dbm,
                         fpga_luts=ble_tx_design().luts)
        return self.battery_power_w()
