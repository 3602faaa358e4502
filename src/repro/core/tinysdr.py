"""The TinySDR platform facade.

One object composing every subsystem the way the board wires the chips
together: the AT86RF215 I/Q radio behind the LVDS interface, the ECP5
FPGA (configurator + resource model + whatever PHY design is loaded),
the MSP432 MCU, the SX1276 backbone radio, the external flash, and the
power management unit.  It exposes the operations a testbed user
performs - load a protocol personality, duty-cycle, transmit/receive
LoRa or BLE, take an OTA update - while the energy meter records what
every step costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.firmware import FirmwareImage, get_firmware
from repro.core.timing import platform_timings
from repro.errors import ConfigurationError, FpgaError
from repro.fpga.config import FpgaConfigurator
from repro.mcu.msp432 import McuMode, Msp432
from repro.ota.flash import BOOT_OFFSET, MCU_OFFSET, Mx25R6435F
from repro.ota.mac import OtaLink
from repro.ota.updater import OtaUpdater, UpdateReport
from repro.phy.ble.channels import (
    TINYSDR_HOP_DELAY_S,
    advertising_event,
    beacon_airtime_s,
)
from repro.phy.ble.gfsk import GfskModulator
from repro.phy.ble.packet import AdvPacket
from repro.phy.lora.demodulator import LoRaDemodulator
from repro.phy.lora.modulator import LoRaModulator
from repro.phy.lora.params import LoRaParams
from repro.power.meter import EnergyMeter
from repro.power.pmu import PlatformState, PowerManagementUnit
from repro.radio.at86rf215 import (
    DEFAULT_FREQUENCY_HZ,
    RADIO_SETUP_S,
    At86Rf215,
)

BLE_CENTER_FREQUENCY_HZ = 2_440_000_000
"""Mid-band 2.4 GHz carrier used for BLE beacon bursts (paper Fig. 13)."""


@dataclass(frozen=True)
class TransmitRecord:
    """Bookkeeping for one transmission.

    Attributes:
        samples: the baseband waveform handed to the radio.
        airtime_s: on-air duration.
        energy_j: battery energy the transmission consumed.
    """

    samples: np.ndarray
    airtime_s: float
    energy_j: float


class TinySdr:
    """A complete tinySDR node.

    Args:
        node_id: testbed identifier.
        frequency_hz: initial carrier (900 MHz ISM by default).
    """

    def __init__(self, node_id: int = 0,
                 frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> None:
        self.node_id = node_id
        self.radio = At86Rf215(frequency_hz=frequency_hz)
        self.mcu = Msp432()
        self.flash = Mx25R6435F()
        self.configurator = FpgaConfigurator()
        self.pmu = PowerManagementUnit()
        self.meter = EnergyMeter()
        self.firmware: FirmwareImage | None = None
        self._lora_params: LoRaParams | None = None
        self.asleep = True

    # -- lifecycle ---------------------------------------------------------

    def load_firmware(self, name: str) -> FirmwareImage:
        """Install a firmware personality into flash and boot the FPGA."""
        image = get_firmware(name)
        self.flash.write(BOOT_OFFSET, image.fpga_bitstream)
        self.flash.write(MCU_OFFSET, image.mcu_program)
        self.configurator.program(image.fpga_bitstream)
        self.firmware = image
        if self.radio.state.name == "SLEEP":
            self.radio.wake()
        self.asleep = False
        return image

    def wake(self) -> float:
        """Sleep -> operational: boot the FPGA and set up the radio.

        Returns the wakeup latency (paper Table 4: 22 ms, FPGA-bound).

        Raises:
            FpgaError: when no firmware has ever been loaded.
        """
        if self.firmware is None:
            raise FpgaError("no firmware loaded; call load_firmware() first")
        if not self.asleep:
            return 0.0
        bitstream = self.flash.read(BOOT_OFFSET,
                                    len(self.firmware.fpga_bitstream))
        boot_time = self.configurator.program(bitstream)
        if self.radio.state.name == "SLEEP":
            self.radio.wake()
        self.mcu.set_mode(McuMode.ACTIVE)
        wake_time = max(boot_time, RADIO_SETUP_S)
        self.pmu.enter_state(PlatformState.FPGA_BOOT)
        self.meter.record("wakeup", self.pmu.battery_power_w(), wake_time)
        self.asleep = False
        return wake_time

    def sleep(self) -> None:
        """Power-gate everything but the MCU's wakeup timer."""
        self.configurator.shutdown()
        self.radio.sleep()
        self.mcu.set_mode(McuMode.LPM3)
        self.pmu.enter_state(PlatformState.SLEEP)
        self.asleep = True

    def record_sleep(self, duration_s: float) -> None:
        """Account a sleep interval on the energy meter."""
        if not self.asleep:
            raise ConfigurationError("platform is not asleep")
        self.meter.record("sleep", self.pmu.battery_power_w(), duration_s)

    # -- LoRa --------------------------------------------------------------

    def configure_lora(self, params: LoRaParams) -> None:
        """Select the LoRa PHY configuration for subsequent TX/RX.

        Raises:
            FpgaError: if the loaded firmware is not a LoRa personality.
        """
        if self.firmware is None or "lora" not in self.firmware.name:
            raise FpgaError(
                "LoRa operations need a lora_* firmware personality")
        self._lora_params = params

    def transmit_lora(self, payload: bytes,
                      tx_power_dbm: float = 0.0) -> TransmitRecord:
        """Modulate and transmit one LoRa packet.

        Raises:
            ConfigurationError: when no LoRa configuration is selected.
        """
        if self._lora_params is None:
            raise ConfigurationError("call configure_lora() first")
        self.wake()
        modulator = LoRaModulator(self._lora_params, quantized=True)
        samples = modulator.modulate(payload)
        self.radio.set_tx_power(tx_power_dbm)
        self.radio.enter_tx()
        transmitted = self.radio.transmit(samples)
        airtime = samples.size / self._lora_params.sample_rate_hz
        self.pmu.enter_state(
            PlatformState.IQ_TX, tx_power_dbm=tx_power_dbm,
            fpga_luts=self.firmware.fpga_luts,
            spreading_factor=self._lora_params.spreading_factor)
        energy = self.pmu.battery_power_w() * airtime
        self.meter.record("lora_tx", self.pmu.battery_power_w(), airtime)
        return TransmitRecord(samples=transmitted, airtime_s=airtime,
                              energy_j=energy)

    def receive_lora(self, stream: np.ndarray):
        """Demodulate the first LoRa packet in a captured stream.

        Raises:
            ConfigurationError: when no LoRa configuration is selected.
        """
        if self._lora_params is None:
            raise ConfigurationError("call configure_lora() first")
        self.wake()
        self.radio.enter_rx()
        conditioned = self.radio.receive(np.asarray(stream))
        duration = conditioned.size / self._lora_params.sample_rate_hz
        self.pmu.enter_state(
            PlatformState.IQ_RX, fpga_luts=self.firmware.fpga_luts,
            spreading_factor=self._lora_params.spreading_factor)
        self.meter.record("lora_rx", self.pmu.battery_power_w(), duration)
        return LoRaDemodulator(self._lora_params).receive(conditioned)

    # -- BLE -----------------------------------------------------------------

    def transmit_ble_beacons(self, packet: AdvPacket,
                             tx_power_dbm: float = 0.0) -> list[TransmitRecord]:
        """Send one advertising event across the three channels.

        Hops 37 -> 38 -> 39 with the platform's 220 us switch delay
        (paper Fig. 13).

        Raises:
            FpgaError: when the BLE personality is not loaded.
        """
        if self.firmware is None or "ble" not in self.firmware.name:
            raise FpgaError(
                "BLE operations need the ble_beacon firmware personality")
        self.wake()
        airtime = beacon_airtime_s(len(packet.pdu()))
        schedule = advertising_event(airtime, TINYSDR_HOP_DELAY_S)
        modulator = GfskModulator()
        records = []
        self.radio.set_frequency(BLE_CENTER_FREQUENCY_HZ)
        self.radio.set_tx_power(tx_power_dbm)
        self.radio.enter_tx()
        self.pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=tx_power_dbm,
                             fpga_luts=self.firmware.fpga_luts)
        power = self.pmu.battery_power_w()
        for burst in schedule:
            bits = packet.air_bits(burst.channel)
            samples = modulator.modulate(np.asarray(bits))
            transmitted = self.radio.transmit(samples)
            self.meter.record("ble_tx", power, burst.duration_s)
            records.append(TransmitRecord(
                samples=transmitted, airtime_s=burst.duration_s,
                energy_j=power * burst.duration_s))
        return records

    # -- OTA ----------------------------------------------------------------

    def take_ota_update(self, firmware_name: str, link: OtaLink,
                        rng: np.random.Generator) -> UpdateReport:
        """Receive a firmware update over the backbone radio.

        Switches to the backbone, runs the full compress/transfer/
        decompress/reprogram pipeline, and accounts the energy.
        """
        image = get_firmware(firmware_name)
        updater = OtaUpdater(flash=self.flash, mcu=self.mcu)
        self.pmu.enter_state(PlatformState.BACKBONE_RX)
        report = updater.update(image.fpga_bitstream, link, rng,
                                is_fpga_image=True)
        self.meter.record("ota_update",
                          report.node_energy_j / max(report.total_time_s,
                                                     1e-9),
                          report.total_time_s)
        self.firmware = image
        self.configurator = updater.configurator
        self.asleep = False
        return report

    # -- reporting ----------------------------------------------------------

    def timing_table(self):
        """Paper Table 4 for this platform."""
        return platform_timings().as_table()

    def energy_report(self) -> dict[str, float]:
        """Energy by activity label plus the total."""
        report = dict(self.meter.by_label())
        report["total_j"] = self.meter.total_energy_j
        return report
