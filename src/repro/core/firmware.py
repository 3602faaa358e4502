"""Firmware image registry.

A tinySDR "protocol personality" is an (FPGA bitstream, MCU program)
pair.  The registry generates deterministic synthetic images whose sizes
and compressibility track the paper's case studies, and names them so
the OTA benches and examples can request "the LoRa image" or "the BLE
image" symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fpga.bitstream import generate_bitstream, generate_mcu_program
from repro.fpga.resources import (
    LFE5U_25F_LUTS,
    ble_tx_design,
    concurrent_rx_design,
    lora_rx_design,
    lora_tx_design,
)


@dataclass(frozen=True)
class FirmwareImage:
    """One deployable firmware pair.

    Attributes:
        name: registry key.
        fpga_bitstream: the 579 kB configuration image.
        mcu_program: the MCU application image.
        fpga_luts: LUT count of the contained design (drives power and
            compressibility).
    """

    name: str
    fpga_bitstream: bytes
    mcu_program: bytes
    fpga_luts: int


def _build(name: str, luts: int, seed: int) -> FirmwareImage:
    return FirmwareImage(
        name=name,
        fpga_bitstream=generate_bitstream(luts / LFE5U_25F_LUTS, seed=seed),
        mcu_program=generate_mcu_program(seed=seed + 1000),
        fpga_luts=luts)


_REGISTRY_BUILDERS = {
    "lora_modem": lambda: _build(
        "lora_modem",
        lora_tx_design(8).luts + lora_rx_design(8).luts, seed=42),
    "lora_rx_only": lambda: _build(
        "lora_rx_only", lora_rx_design(8).luts, seed=44),
    "ble_beacon": lambda: _build(
        "ble_beacon", ble_tx_design().luts, seed=43),
    "concurrent_rx": lambda: _build(
        "concurrent_rx", concurrent_rx_design([8, 8]).luts, seed=45),
}

_CACHE: dict[str, FirmwareImage] = {}


def get_firmware(name: str) -> FirmwareImage:
    """Fetch (and cache) a named firmware image.

    Raises:
        ConfigurationError: for unknown names.
    """
    if name not in _REGISTRY_BUILDERS:
        raise ConfigurationError(
            f"unknown firmware {name!r}; available: "
            f"{sorted(_REGISTRY_BUILDERS)}")
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY_BUILDERS[name]()
    return _CACHE[name]


def available_firmware() -> list[str]:
    """Names of registered firmware images."""
    return sorted(_REGISTRY_BUILDERS)
