"""MSP432P401R microcontroller model.

TinySDR's MCU (paper section 3.1.1): a 32-bit Cortex M4F with 64 kB of
SRAM, 256 kB of flash, sub-microamp sleep current, and SPI/I2C/ADC
peripherals.  It runs the MAC protocols, controls every other chip, and
performs the OTA decompression - which is why the OTA pipeline works in
30 kB blocks: that is what fits in SRAM next to the runtime (paper 3.4).

The model tracks memory budgets and power state; the OTA and power
simulations consume it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, MemoryError_
from repro.sim import MCU_MODE, MCU_RUN, Timeline

NODE_MCU = "mcu"
"""Timeline component name for the MSP432."""

SRAM_BYTES = 64 * 1024
FLASH_BYTES = 256 * 1024


class McuMode(enum.Enum):
    """Power modes of the MSP432 (subset the platform uses)."""

    ACTIVE = "active"
    LPM3 = "lpm3"
    LPM45 = "lpm4.5"


MODE_POWER_W = {
    McuMode.ACTIVE: 0.0145,   # ~4.6 mA/MHz class core running at ~48 MHz
    McuMode.LPM3: 0.85e-6 * 3.0,   # RTC + wakeup timer alive
    McuMode.LPM45: 0.025e-6 * 3.0,
}


@dataclass
class MemoryRegion:
    """A named allocation inside SRAM or flash."""

    name: str
    size_bytes: int


@dataclass
class MemoryBank:
    """Byte-budget accounting for one memory (SRAM or flash)."""

    name: str
    capacity_bytes: int
    regions: dict[str, MemoryRegion] = field(default_factory=dict)

    @property
    def used_bytes(self) -> int:
        """Total allocated bytes."""
        return sum(region.size_bytes for region in self.regions.values())

    @property
    def free_bytes(self) -> int:
        """Remaining budget."""
        return self.capacity_bytes - self.used_bytes

    def allocate(self, name: str, size_bytes: int) -> MemoryRegion:
        """Reserve a region.

        Raises:
            MemoryError_: on duplicate names or exhausted capacity.
        """
        if size_bytes <= 0:
            raise ConfigurationError(
                f"allocation size must be positive, got {size_bytes}")
        if name in self.regions:
            raise MemoryError_(f"region {name!r} already allocated in {self.name}")
        if size_bytes > self.free_bytes:
            raise MemoryError_(
                f"{self.name}: allocating {size_bytes} B with only "
                f"{self.free_bytes} B free")
        region = MemoryRegion(name=name, size_bytes=size_bytes)
        self.regions[name] = region
        return region

    def release(self, name: str) -> None:
        """Free a region.

        Raises:
            MemoryError_: if the region does not exist.
        """
        if name not in self.regions:
            raise MemoryError_(f"region {name!r} not allocated in {self.name}")
        del self.regions[name]

    def utilization(self) -> float:
        """Fraction of the bank in use."""
        return self.used_bytes / self.capacity_bytes


class Msp432:
    """Behavioural MSP432 model: memory banks plus a power-mode timeline.

    All time/energy state lives on a :class:`~repro.sim.Timeline`: every
    :meth:`run` dwell is an ``mcu.run`` event at the current mode's
    power, every :meth:`set_mode` a zero-duration ``mcu.mode`` marker,
    and :meth:`energy_consumed_j` is a replayed view over the ledger.
    """

    def __init__(self, timeline: Timeline | None = None) -> None:
        self.sram = MemoryBank("sram", SRAM_BYTES)
        self.flash = MemoryBank("flash", FLASH_BYTES)
        self.mode = McuMode.ACTIVE
        self.timeline = timeline if timeline is not None else Timeline()
        self._since = self.timeline.checkpoint()

    def set_mode(self, mode: McuMode) -> None:
        """Switch power mode (instantaneous; MSP432 wakes in ~10 us)."""
        self.mode = mode
        self.timeline.record(MCU_MODE, NODE_MCU, label=mode.value)

    def run(self, duration_s: float) -> None:
        """Advance time, recording a dwell at the current mode's power.

        Raises:
            ConfigurationError: for negative durations.
        """
        self.timeline.record(MCU_RUN, NODE_MCU, label=self.mode.value,
                             duration_s=duration_s,
                             power_w=MODE_POWER_W[self.mode])

    def energy_consumed_j(self) -> float:
        """Total energy drawn so far (replayed from the ledger)."""
        return self.timeline.energy_j(kinds={MCU_RUN}, component=NODE_MCU,
                                      since=self._since)

    def power_w(self) -> float:
        """Instantaneous power in the current mode."""
        return MODE_POWER_W[self.mode]


def firmware_footprint_report(mcu: Msp432) -> dict[str, float]:
    """Summarize resource use the way paper section 5.2 does.

    "TTN protocol together with control for the I/Q radio, backbone
    radio, FPGA, PMU and decompression algorithm for OTA take only 18 %
    of MCU resources."
    """
    return {
        "flash_used_bytes": float(mcu.flash.used_bytes),
        "flash_utilization": mcu.flash.utilization(),
        "sram_used_bytes": float(mcu.sram.used_bytes),
        "sram_utilization": mcu.sram.utilization(),
    }
