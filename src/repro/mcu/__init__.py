"""MCU substrate: the MSP432's SRAM and flash budgets and power modes."""

from repro.mcu.msp432 import (
    FLASH_BYTES,
    McuMode,
    MemoryBank,
    MemoryRegion,
    MODE_POWER_W,
    Msp432,
    SRAM_BYTES,
    firmware_footprint_report,
)

__all__ = [
    "FLASH_BYTES",
    "MODE_POWER_W",
    "McuMode",
    "MemoryBank",
    "MemoryRegion",
    "Msp432",
    "SRAM_BYTES",
    "firmware_footprint_report",
]
