"""FPGA configuration: quad-SPI boot from external flash.

The LFE5U-25F is SRAM-based and boots from the external MX25R6435F flash:
"it automatically reads its firmware directly from the flash memory using
a 62 MHz quad SPI interface and programs itself ... programming times of
22 ms" (paper section 3.4).  This module models that configuration path
and its timing, which dominates tinySDR's 22 ms wake-up latency (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, FpgaError
from repro.fpga.bitstream import BITSTREAM_BYTES, bitstream_fingerprint
from repro.power import profiles
from repro.sim.events import FPGA_CONFIG
from repro.sim.timeline import Timeline

NODE_FPGA = "fpga"
"""Timeline component name for the ECP5 fabric."""

QUAD_SPI_CLOCK_HZ = 62_000_000  # paper: section 3.1.3 (62 MHz quad-SPI)
QUAD_SPI_LANES = 4  # paper: section 3.1.3 (quad-SPI configuration port)

CONFIG_OVERHEAD_S = 3.3e-3  # paper: section 5.3 (22 ms total calibration)
"""Preamble/wake/CRC-check overhead beyond raw bit transfer, calibrated so
a 579 kB image completes in the paper's 22 ms."""


def transfer_time_s(num_bytes: int,
                    clock_hz: float = QUAD_SPI_CLOCK_HZ,
                    lanes: int = QUAD_SPI_LANES) -> float:
    """Raw quad-SPI transfer time for ``num_bytes``.

    Raises:
        ConfigurationError: for non-positive sizes, clocks or lane counts.
    """
    if num_bytes <= 0:
        raise ConfigurationError(f"byte count must be positive, got {num_bytes}")
    if clock_hz <= 0 or lanes <= 0:
        raise ConfigurationError("clock and lane count must be positive")
    bits = num_bytes * 8
    return bits / (clock_hz * lanes)


def programming_time_s(bitstream_bytes: int = BITSTREAM_BYTES) -> float:
    """Total FPGA configuration time: transfer plus fixed overhead."""
    return transfer_time_s(bitstream_bytes) + CONFIG_OVERHEAD_S


@dataclass
class FpgaConfigurator:
    """Stateful FPGA configuration port.

    Tracks which bitstream is loaded and whether the fabric is running,
    so the platform model can enforce 'no samples before configuration'.
    """

    configured: bool = False
    active_fingerprint: str | None = None
    timeline: Timeline = field(default_factory=Timeline, repr=False,
                               compare=False)

    @property
    def total_config_time_s(self) -> float:
        """Cumulative configuration time, replayed from the ledger."""
        return self.timeline.time_s(kinds={FPGA_CONFIG},
                                    component=NODE_FPGA)

    @property
    def config_count(self) -> int:
        """Boots performed, counted from the ledger."""
        return self.timeline.count(kinds={FPGA_CONFIG},
                                   component=NODE_FPGA)

    def program(self, bitstream: bytes) -> float:
        """Load a bitstream; returns the configuration time consumed.

        Raises:
            FpgaError: for an empty bitstream.
        """
        if not bitstream:
            raise FpgaError("cannot configure from an empty bitstream")
        elapsed = programming_time_s(len(bitstream))
        self.configured = True
        self.active_fingerprint = bitstream_fingerprint(bitstream)
        self.timeline.record(FPGA_CONFIG, NODE_FPGA,
                             label=f"{len(bitstream)} B quad-SPI load",
                             duration_s=elapsed,
                             power_w=profiles.FPGA_STATIC_W)
        return elapsed

    def shutdown(self) -> None:
        """Power-gate the fabric; SRAM configuration is lost."""
        self.configured = False
        self.active_fingerprint = None

    def require_configured(self) -> None:
        """Raise unless a design is loaded and running.

        Raises:
            FpgaError: when the fabric is unconfigured.
        """
        if not self.configured:
            raise FpgaError(
                "FPGA is not configured; program a bitstream first")
