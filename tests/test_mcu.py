"""Tests for the MCU model."""

import pytest

from repro.errors import ConfigurationError, MemoryError_
from repro.mcu import (
    FLASH_BYTES,
    McuMode,
    MemoryBank,
    Msp432,
    SRAM_BYTES,
    firmware_footprint_report,
)


class TestMemoryBank:
    def test_allocate_and_release(self):
        bank = MemoryBank("test", 1000)
        bank.allocate("a", 600)
        assert bank.free_bytes == 400
        bank.release("a")
        assert bank.free_bytes == 1000

    def test_exhaustion_raises(self):
        bank = MemoryBank("test", 1000)
        bank.allocate("a", 900)
        with pytest.raises(MemoryError_):
            bank.allocate("b", 200)

    def test_duplicate_name_raises(self):
        bank = MemoryBank("test", 1000)
        bank.allocate("a", 100)
        with pytest.raises(MemoryError_):
            bank.allocate("a", 100)

    def test_release_unknown_raises(self):
        with pytest.raises(MemoryError_):
            MemoryBank("test", 1000).release("ghost")

    def test_utilization(self):
        bank = MemoryBank("test", 1000)
        bank.allocate("a", 250)
        assert bank.utilization() == pytest.approx(0.25)

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBank("test", 1000).allocate("a", 0)


class TestMsp432:
    def test_memory_sizes(self):
        mcu = Msp432()
        assert mcu.sram.capacity_bytes == SRAM_BYTES == 64 * 1024
        assert mcu.flash.capacity_bytes == FLASH_BYTES == 256 * 1024

    def test_ota_block_fits_sram_but_full_image_does_not(self):
        mcu = Msp432()
        mcu.sram.allocate("runtime", 20 * 1024)
        mcu.sram.allocate("ota_block", 30 * 1024)  # the paper's block size
        mcu.sram.release("ota_block")
        with pytest.raises(MemoryError_):
            mcu.sram.allocate("whole_bitstream", 579 * 1024)

    def test_lpm3_power_below_3uw(self):
        mcu = Msp432()
        mcu.set_mode(McuMode.LPM3)
        assert mcu.power_w() < 3e-6

    def test_energy_integration(self):
        mcu = Msp432()
        mcu.set_mode(McuMode.LPM3)
        mcu.run(1000.0)
        lpm3_energy = mcu.energy_consumed_j()
        mcu.set_mode(McuMode.ACTIVE)
        mcu.run(1.0)
        assert mcu.energy_consumed_j() - lpm3_energy > lpm3_energy

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            Msp432().run(-1.0)

    def test_paper_18_percent_footprint_claim(self):
        # TTN MAC + radio/FPGA/PMU control + decompression ~ 18 % of the
        # 256 kB flash (paper 5.2): model it as a 46 kB image.
        mcu = Msp432()
        mcu.flash.allocate("mac_and_control", 46 * 1024)
        report = firmware_footprint_report(mcu)
        assert report["flash_utilization"] == pytest.approx(0.18, abs=0.005)

