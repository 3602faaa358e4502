"""AT86RF215 I/Q radio transceiver model.

The radio chosen for tinySDR (paper Table 2): dual-band (389.5-510 MHz,
779-1020 MHz, 2400-2483.5 MHz), 4 MHz baseband sampling at 13-bit
resolution, 50 mW receive power, integrated LNA/AGC/filter/ADC on RX and
DAC plus a 14 dBm programmable PA on TX, with built-in support for the
MR-FSK / MR-OFDM / MR-O-QPSK / O-QPSK modem modes that can bypass the
FPGA entirely.

The model covers what the rest of the system observes:

* a state machine (SLEEP / TRXOFF / TXPREP / RX / TX) with the paper's
  measured transition latencies (Table 4);
* the RX chain - AGC gain, anti-alias filtering and 13-bit quantization
  of the incoming complex baseband;
* the TX chain - 13-bit DAC quantization and output power limiting;
* per-state power draw for the energy accounting.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.dsp.filters import design_lowpass, filter_block
from repro.dsp.fixedpoint import quantize_complex
from repro.errors import ConfigurationError, RadioError
from repro.sim import RADIO_MODE, Timeline

SAMPLE_RATE_HZ = 4_000_000  # paper: Table 2 (4 MHz baseband sampling)
ADC_BITS = 13  # paper: Table 2 (13-bit I/Q resolution)
DAC_BITS = 13  # paper: Table 2 (13-bit TX DAC)

MIN_TX_POWER_DBM = -14.0  # datasheet: AT86RF215, TXPWR field range
MAX_TX_POWER_DBM = 14.0  # paper: Table 2 (14 dBm programmable PA)

RX_POWER_W = 0.050  # paper: Table 2 (50 mW receive power)
"""Receive-mode power draw (paper Table 2: 50 mW)."""

SLEEP_POWER_W = 30e-9  # datasheet: AT86RF215, DEEP_SLEEP current
"""Deep-sleep draw of the radio chip itself (sub-microamp)."""

TRXOFF_POWER_W = 0.0003  # datasheet: AT86RF215, TRXOFF supply current

NOISE_FIGURE_DB = 4.0  # paper: section 3.1.1 (3-5 dB noise figure)
"""Paper: 'the RF front-end has a 3-5 dB noise figure'."""

DEFAULT_FREQUENCY_HZ = 915_000_000  # paper: 915 MHz ISM band evaluation
"""Default carrier: the 915 MHz ISM band used throughout the paper."""

FREQUENCY_BANDS_HZ = (  # datasheet: AT86RF215, supported frequency ranges
    (389_500_000, 510_000_000),
    (779_000_000, 1_020_000_000),
    (2_400_000_000, 2_483_500_000),
)

# Measured transition latencies, Table 4 of the paper.
RADIO_SETUP_S = 1.2e-3  # paper: Table 4
TX_TO_RX_S = 45e-6  # paper: Table 4
RX_TO_TX_S = 11e-6  # paper: Table 4
FREQUENCY_SWITCH_S = 220e-6  # paper: Table 4

IQ_RADIO = "iq_radio"
"""Timeline component name for the AT86RF215 I/Q radio."""


class RadioState(enum.Enum):
    """Transceiver state machine states."""

    SLEEP = "sleep"
    TRXOFF = "trxoff"
    TXPREP = "txprep"
    RX = "rx"
    TX = "tx"


def tx_power_draw_w(output_power_dbm: float) -> float:
    """Radio DC draw while transmitting at a given RF output power.

    Modeled from the AT86RF215 datasheet curve: roughly constant chip
    overhead (~60 mW) plus a PA term that scales with RF output through a
    ~25 % efficiency, matching the flat-then-rising shape of paper Fig. 9.
    """
    if not MIN_TX_POWER_DBM <= output_power_dbm <= MAX_TX_POWER_DBM:
        raise ConfigurationError(
            f"output power must be {MIN_TX_POWER_DBM}..{MAX_TX_POWER_DBM} "
            f"dBm, got {output_power_dbm!r}")
    rf_watts = 10.0 ** (output_power_dbm / 10.0) / 1e3
    pa_efficiency = 0.25
    return 0.060 + rf_watts / pa_efficiency


class At86Rf215:
    """Behavioural model of the AT86RF215 transceiver.

    Every state dwell is a ``radio.mode`` event on a
    :class:`~repro.sim.Timeline` at the power of the state it leaves,
    and :meth:`energy_consumed_j` is a replayed view over the ledger.

    Args:
        frequency_hz: initial carrier frequency (must fall in a supported
            band).
    """

    def __init__(self, frequency_hz: float = DEFAULT_FREQUENCY_HZ,
                 timeline: Timeline | None = None) -> None:
        self._check_frequency(frequency_hz)
        self.frequency_hz = frequency_hz
        self.tx_power_dbm = 0.0
        self.state = RadioState.SLEEP
        self.timeline = timeline if timeline is not None else Timeline()
        self._since = self.timeline.checkpoint()
        self._anti_alias_taps = design_lowpass(
            31, cutoff_hz=SAMPLE_RATE_HZ * 0.45, sample_rate_hz=SAMPLE_RATE_HZ)

    # -- configuration -------------------------------------------------------

    @staticmethod
    def _check_frequency(frequency_hz: float) -> None:
        for low, high in FREQUENCY_BANDS_HZ:
            if low <= frequency_hz <= high:
                return
        raise RadioError(
            f"frequency {frequency_hz!r} Hz outside supported bands "
            f"{FREQUENCY_BANDS_HZ}")

    def set_tx_power(self, power_dbm: float) -> None:
        """Program the internal PA output power.

        Raises:
            ConfigurationError: outside the -14..+14 dBm range.
        """
        if not MIN_TX_POWER_DBM <= power_dbm <= MAX_TX_POWER_DBM:
            raise ConfigurationError(
                f"TX power must be {MIN_TX_POWER_DBM}..{MAX_TX_POWER_DBM} "
                f"dBm, got {power_dbm!r}")
        self.tx_power_dbm = power_dbm

    def set_frequency(self, frequency_hz: float) -> float:
        """Retune the synthesizer; costs the 220 us switch latency.

        Returns:
            The switching delay applied.

        Raises:
            RadioError: for out-of-band frequencies or when asleep.
        """
        self._check_frequency(frequency_hz)
        if self.state == RadioState.SLEEP:
            raise RadioError("cannot retune while asleep")
        self.frequency_hz = frequency_hz
        self._advance(FREQUENCY_SWITCH_S, self.state)
        return FREQUENCY_SWITCH_S

    # -- state machine ---------------------------------------------------

    def _advance(self, duration_s: float, new_state: RadioState) -> None:
        self.timeline.record(
            RADIO_MODE, IQ_RADIO,
            label=f"{self.state.value}->{new_state.value}",
            duration_s=duration_s,
            power_w=self.state_power_w(self.state))
        self.state = new_state

    def wake(self) -> float:
        """SLEEP -> TRXOFF; returns the setup latency consumed."""
        if self.state != RadioState.SLEEP:
            raise RadioError(f"wake from {self.state}, expected SLEEP")
        self._advance(RADIO_SETUP_S, RadioState.TRXOFF)
        return RADIO_SETUP_S

    def sleep(self) -> None:
        """Any state -> SLEEP (immediate power gate)."""
        self._advance(0.0, RadioState.SLEEP)

    def enter_rx(self) -> float:
        """Switch into receive mode; latency depends on the current state."""
        if self.state == RadioState.SLEEP:
            raise RadioError("wake the radio before entering RX")
        delay = TX_TO_RX_S if self.state == RadioState.TX else 0.0
        self._advance(delay, RadioState.RX)
        return delay

    def enter_tx(self) -> float:
        """Switch into transmit mode; latency depends on the current state."""
        if self.state == RadioState.SLEEP:
            raise RadioError("wake the radio before entering TX")
        delay = RX_TO_TX_S if self.state == RadioState.RX else 0.0
        self._advance(delay, RadioState.TX)
        return delay

    # -- signal path -------------------------------------------------------

    def transmit(self, samples: np.ndarray) -> np.ndarray:
        """Run samples through the TX DAC and power scaling.

        The output is normalized so unit amplitude corresponds to the
        programmed ``tx_power_dbm``; the channel model applies absolute
        scaling.

        Raises:
            RadioError: when not in TX state.
        """
        if self.state != RadioState.TX:
            raise RadioError(f"transmit while in {self.state}, expected TX")
        samples = np.asarray(samples, dtype=np.complex128)
        peak = float(np.max(np.abs(samples))) if samples.size else 0.0
        if peak > 0:
            samples = samples / max(peak, 1.0)
        quantized = quantize_complex(samples, DAC_BITS)
        self._advance(samples.size / SAMPLE_RATE_HZ, RadioState.TX)
        return quantized

    def receive(self, samples: np.ndarray) -> np.ndarray:
        """Run incoming baseband through the RX chain.

        Anti-alias filter -> AGC -> 13-bit ADC.  The incoming array is the
        channel's output (signal plus noise at the antenna reference).

        Raises:
            RadioError: when not in RX state.
        """
        if self.state != RadioState.RX:
            raise RadioError(f"receive while in {self.state}, expected RX")
        samples = np.asarray(samples, dtype=np.complex128)
        filtered = filter_block(self._anti_alias_taps, samples)
        if filtered.size:
            rms = float(np.sqrt(np.mean(np.abs(filtered) ** 2)))
            if rms > 0:
                # Back off 12 dB from full scale to leave headroom for the
                # signal's peak-to-average ratio, as a real AGC does.
                filtered = filtered * (0.25 / rms)
        quantized = quantize_complex(filtered, ADC_BITS)
        self._advance(samples.size / SAMPLE_RATE_HZ, RadioState.RX)
        return quantized

    # -- power ---------------------------------------------------------------

    def state_power_w(self, state: RadioState) -> float:
        """DC power draw in a given state."""
        if state == RadioState.SLEEP:
            return SLEEP_POWER_W
        if state == RadioState.TRXOFF:
            return TRXOFF_POWER_W
        if state == RadioState.TXPREP:
            return TRXOFF_POWER_W
        if state == RadioState.RX:
            return RX_POWER_W
        return tx_power_draw_w(self.tx_power_dbm)

    def energy_consumed_j(self) -> float:
        """Total energy drawn so far (replayed from the ledger)."""
        return self.timeline.energy_j(kinds={RADIO_MODE}, component=IQ_RADIO,
                                      since=self._since)
