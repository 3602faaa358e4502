"""External RF front-end models: SE2435L (900 MHz) and SKY66112 (2.4 GHz).

The AT86RF215's 14 dBm maximum is below the FCC's 30 dBm ceiling, so
tinySDR adds optional external PAs (paper section 3.1.1): the SE2435L
boosts the 900 MHz path to 30 dBm and the SKY66112 the 2.4 GHz path to
27 dBm.  Both include a receive LNA and a bypass circuit; bypass draws at
most 280 uA and sleep only 1 uA.  :meth:`RfFrontend.power_draw_w` turns
these currents into a per-mode draw; the platform power model
(:mod:`repro.power`) does not charge the front-ends.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, PowerError


class FrontendMode(enum.Enum):
    """Operating mode of an RF front-end module."""

    SLEEP = "sleep"
    BYPASS = "bypass"
    PA = "pa"
    LNA = "lna"


@dataclass(frozen=True)
class FrontendSpec:
    """Datasheet constants of one front-end chip.

    Attributes:
        name: part number.
        band_hz: (low, high) RF band covered.
        max_output_dbm: PA saturated output power.
        gain_db: small-signal PA gain.
        lna_gain_db: receive LNA gain.
        lna_noise_figure_db: LNA noise figure.
        pa_efficiency: DC-to-RF efficiency at full output.
        bypass_current_a: maximum bypass-mode current.
        sleep_current_a: sleep-mode current.
        lna_current_a: receive LNA current.
        supply_v: supply voltage.
    """

    name: str
    band_hz: tuple[float, float]
    max_output_dbm: float
    gain_db: float
    lna_gain_db: float
    lna_noise_figure_db: float
    pa_efficiency: float
    bypass_current_a: float
    sleep_current_a: float
    lna_current_a: float
    supply_v: float


# datasheet: Skyworks SE2435L; paper: section 3.1.1 (900 MHz front end)
SE2435L = FrontendSpec(
    name="SE2435L",
    band_hz=(860e6, 930e6),
    max_output_dbm=30.0,
    gain_db=16.0,
    lna_gain_db=12.0,
    lna_noise_figure_db=1.5,
    pa_efficiency=0.30,
    bypass_current_a=280e-6,
    sleep_current_a=1e-6,
    lna_current_a=7e-3,
    supply_v=3.5,
)

# datasheet: Skyworks SKY66112-11; paper: section 3.1.1 (2.4 GHz front end)
SKY66112 = FrontendSpec(
    name="SKY66112",
    band_hz=(2.4e9, 2.4835e9),
    max_output_dbm=27.0,
    gain_db=14.0,
    lna_gain_db=11.0,
    lna_noise_figure_db=2.0,
    pa_efficiency=0.28,
    bypass_current_a=280e-6,
    sleep_current_a=1e-6,
    lna_current_a=6e-3,
    supply_v=3.0,
)


class RfFrontend:
    """One bypassable PA/LNA front-end module."""

    def __init__(self, spec: FrontendSpec) -> None:
        self.spec = spec
        self.mode = FrontendMode.SLEEP

    def set_mode(self, mode: FrontendMode) -> None:
        """Select sleep, bypass, PA (transmit) or LNA (receive) mode."""
        self.mode = mode

    def output_power_dbm(self, input_power_dbm: float) -> float:
        """RF output power for a given drive level in the current mode.

        Raises:
            PowerError: when called in sleep mode.
            ConfigurationError: in LNA mode (receive path has no TX output).
        """
        if self.mode == FrontendMode.SLEEP:
            raise PowerError(f"{self.spec.name} is asleep")
        if self.mode == FrontendMode.BYPASS:
            return input_power_dbm
        if self.mode == FrontendMode.LNA:
            raise ConfigurationError(
                f"{self.spec.name} is in LNA (receive) mode")
        return min(input_power_dbm + self.spec.gain_db,
                   self.spec.max_output_dbm)

    def required_drive_dbm(self, target_output_dbm: float) -> float:
        """Radio drive level needed for a target PA output.

        Raises:
            ConfigurationError: if the target exceeds the PA's maximum.
        """
        if target_output_dbm > self.spec.max_output_dbm:
            raise ConfigurationError(
                f"{self.spec.name} cannot produce {target_output_dbm!r} dBm "
                f"(max {self.spec.max_output_dbm})")
        return target_output_dbm - self.spec.gain_db

    def power_draw_w(self, output_power_dbm: float | None = None) -> float:
        """DC power draw in the current mode.

        In PA mode ``output_power_dbm`` selects the operating point; PA
        draw scales with RF output through the efficiency figure.
        """
        spec = self.spec
        if self.mode == FrontendMode.SLEEP:
            return spec.sleep_current_a * spec.supply_v
        if self.mode == FrontendMode.BYPASS:
            return spec.bypass_current_a * spec.supply_v
        if self.mode == FrontendMode.LNA:
            return spec.lna_current_a * spec.supply_v
        if output_power_dbm is None:
            output_power_dbm = spec.max_output_dbm
        if output_power_dbm > spec.max_output_dbm:
            raise ConfigurationError(
                f"{spec.name} cannot produce {output_power_dbm!r} dBm")
        rf_watts = 10.0 ** (output_power_dbm / 10.0) / 1e3
        return rf_watts / spec.pa_efficiency

    def rx_noise_figure_db(self, radio_nf_db: float) -> float:
        """Cascaded receive noise figure with/without the LNA (Friis).

        In bypass mode the radio's own NF dominates; with the LNA engaged
        the cascade improves toward the LNA's NF.
        """
        if self.mode != FrontendMode.LNA:
            return radio_nf_db
        lna_gain = 10.0 ** (self.spec.lna_gain_db / 10.0)
        lna_f = 10.0 ** (self.spec.lna_noise_figure_db / 10.0)
        radio_f = 10.0 ** (radio_nf_db / 10.0)
        cascade = lna_f + (radio_f - 1.0) / lna_gain
        return 10.0 * math.log10(cascade)
