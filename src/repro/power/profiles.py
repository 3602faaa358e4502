"""Per-component power profiles: the one table of chip draws.

Every chip draw a model charges is defined here once.  The chip ledgers
(:mod:`repro.radio.at86rf215`, :mod:`repro.mcu.msp432`,
:mod:`repro.ota.flash`), the OTA engines and the PMU all read it, so
this module imports nothing from the models and stays an import leaf.
Two chip-local draws still disagree with it: the MSP432 ledger's
14.5 mW active draw (:data:`MCU_ACTIVE_W` is 7.2 mW) and
:func:`repro.radio.at86rf215.tx_power_draw_w` (against
:func:`iq_radio_tx_w`); reconciling either moves the pinned ledgers.
Datasheet figures are used where the paper quotes them; the two free
parameters (FPGA dynamic power coefficient and board leakage) are
calibrated once against the paper's measured totals - 30 uW sleep,
231/283 mW single-tone TX at 0/14 dBm (Fig. 9), 186 mW LoRa RX with
59 mW in the radio, 207 mW concurrent RX - and then reused unchanged by
every benchmark.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

# --- MCU (MSP432P401R) ------------------------------------------------------

MCU_ACTIVE_W = 7.2e-3  # datasheet: MSP432P401R, ~4 mA active at 1.8 V
"""~4 mA at 1.8 V running the MAC and control loops."""

MCU_LPM3_W = 2.55e-6  # datasheet: MSP432P401R, LPM3 0.85 uA at 3 V
"""0.85 uA at 3 V: RTC + wakeup timer only."""

MCU_LPM45_W = 0.025e-6 * 3.0  # datasheet: MSP432P401R, LPM4.5 25 nA at 3 V

# --- I/Q radio (AT86RF215) ---------------------------------------------------

IQ_RADIO_RX_W = 0.050  # paper: Table 2 (50 mW receive)
"""Table 2: 50 mW receive."""

IQ_RADIO_TX_BASE_W = 0.122  # paper: Fig. 9 (flat low-power TX region)
"""Measured flat region of Fig. 9: DC draw is constant at low RF power."""

IQ_RADIO_TX_KNEE_DBM = 0.0  # paper: Fig. 9 (knee of the TX power curve)
IQ_RADIO_TX_SLOPE_W_PER_RF_W = 2.37  # paper: Fig. 9 (+14 dBm calibration)
"""Above the knee the DC draw rises with RF output; calibrated so +14 dBm
costs 179 mW, the radio share the paper reports for LoRa TX."""

IQ_RADIO_SLEEP_W = 30e-9  # datasheet: AT86RF215, DEEP_SLEEP current
"""Deep-sleep draw of the radio chip itself (sub-microamp)."""

IQ_RADIO_TRXOFF_W = 0.0003  # datasheet: AT86RF215, TRXOFF supply current


def iq_radio_tx_w(output_power_dbm: float) -> float:
    """AT86RF215 DC draw at a given RF output (flat-then-rising, Fig. 9)."""
    if not -14.0 <= output_power_dbm <= 14.0:
        raise ConfigurationError(
            f"radio output must be -14..14 dBm, got {output_power_dbm!r}")
    rf_w = 10.0 ** (output_power_dbm / 10.0) / 1e3
    knee_w = 10.0 ** (IQ_RADIO_TX_KNEE_DBM / 10.0) / 1e3
    if rf_w <= knee_w:
        return IQ_RADIO_TX_BASE_W
    return IQ_RADIO_TX_BASE_W + (rf_w - knee_w) * IQ_RADIO_TX_SLOPE_W_PER_RF_W


# --- Backbone radio (SX1276) -------------------------------------------------

BACKBONE_RX_W = 0.0396  # datasheet: SX1276, ~12 mA RX at 3.3 V
BACKBONE_TX_14DBM_W = 0.120  # datasheet: SX1276, +14 dBm TX supply current
BACKBONE_SLEEP_W = 0.66e-6  # datasheet: SX1276, 0.2 uA sleep at 3.3 V

# --- FPGA (LFE5U-25F) ---------------------------------------------------------

FPGA_STATIC_W = 0.020  # datasheet: Lattice ECP5, static core leakage
FPGA_DYNAMIC_W_PER_LUT_HZ = 8.3e-13  # paper: Fig. 9 (calibrated)
"""Calibrated against Fig. 9 (TX design at 64 MHz) and the LoRa RX total."""

FPGA_OFF_W = 0.0  # paper: section 3.2.2 (power-gated domain, fully off)


def fpga_power_w(luts: int, effective_clock_hz: float) -> float:
    """FPGA draw: static leakage plus activity-scaled dynamic power.

    Raises:
        ConfigurationError: for negative LUT counts or clocks.
    """
    if luts < 0:
        raise ConfigurationError(f"LUT count must be >= 0, got {luts}")
    if effective_clock_hz < 0:
        raise ConfigurationError(
            f"clock must be >= 0, got {effective_clock_hz!r}")
    return FPGA_STATIC_W + FPGA_DYNAMIC_W_PER_LUT_HZ * luts * effective_clock_hz


FPGA_TX_CLOCK_HZ = 52e6  # paper: Fig. 9 (TX calibration; 64 MHz derated)
"""Effective toggle rate of modulator designs: the 64 MHz serializer
clock discounted by idle cycles."""

FPGA_RX_CLOCK_HZ = 32e6  # paper: LoRa RX total (calibrated toggle rate)
"""Demodulator designs run the sample pipeline and burst FFTs near 32 MHz."""

# --- Memories -----------------------------------------------------------------

FLASH_ACTIVE_W = 0.015  # datasheet: serial NOR flash, active read
FLASH_PROGRAM_W = 0.030  # datasheet: serial NOR flash, program/erase
FLASH_STANDBY_W = 0.2e-6 * 1.8  # datasheet: serial NOR flash, standby
MICROSD_ACTIVE_W = 0.060  # spec: typical microSD active draw

# --- Board --------------------------------------------------------------------

BOARD_LEAKAGE_W = 20.5e-6  # paper: 30 uW measured sleep minus datasheet sum
"""Residual board draw in sleep (level shifters, pull-ups, battery
monitoring) - the difference between the datasheet sum (~9 uW) and the
paper's measured 30 uW system sleep power."""
