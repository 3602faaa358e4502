"""End-to-end OTA update session.

Composes the whole paper-section-3.4 pipeline: the AP compresses the
image into 30 kB blocks; the MAC transfers them over the backbone LoRa
link with ACK/retransmit; the node stages compressed data in flash,
decompresses block by block inside its SRAM budget, writes the boot
image back to flash, and reconfigures the FPGA over quad SPI.  The
session report carries the time and energy splits the paper's section
5.3 evaluation quotes (programming time CDF, 6144 mJ per LoRa update,
450 ms decompression, 22 ms reconfiguration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OtaError
from repro.fpga.config import NODE_FPGA, FpgaConfigurator
from repro.mcu.msp432 import NODE_MCU, Msp432
from repro.ota.bank import BootResult
from repro.ota.blocks import (
    BLOCK_BYTES,
    reassemble,
    split_and_compress,
    total_compressed_bytes,
)
from repro.ota.flash import FlashLayout, Mx25R6435F
from repro.ota.mac import (
    NODE_RADIO,
    OtaLink,
    TransferReport,
    simulate_transfer,
)
from repro.power import profiles
from repro.sim import (
    CONTROL_RX,
    CONTROL_TX,
    FLASH_BUSY,
    FPGA_CONFIG,
    MCU_DECOMPRESS,
    PACKET_RX,
    PACKET_TIMEOUT,
    PACKET_TX,
    Timeline,
)

DECOMPRESS_BANDWIDTH_BPS = 1.35e6 * 8
"""MSP432 miniLZO throughput, calibrated so a full 579 kB image
decompresses in the paper's 'maximum of 450 ms'."""

NODE_FLASH = "flash"
"""Timeline component name for the node's external NOR flash."""


@dataclass(frozen=True)
class UpdateReport:
    """Everything one OTA session cost.

    All time and energy fields are views derived from the session's
    :class:`~repro.sim.Timeline` ledger (see
    :func:`node_energy_from_timeline`), not hand-kept accumulators.
    The robustness fields default to what :class:`OtaUpdater` does: a
    single-bank install with nothing resumed; a
    :class:`~repro.ota.hardened.HardenedOtaSession` fills them in.

    Attributes:
        transfer: the MAC-level transfer report.
        compressed_bytes: bytes sent over the air.
        raw_bytes: size of the installed image.
        decompress_time_s: node-side block decompression time.
        reconfigure_time_s: FPGA quad-SPI boot time (0 for MCU images).
        total_time_s: wall-clock session duration.
        node_energy_j: node-side energy (backbone radio + MCU + flash).
        timeline: the ledger the session was recorded on.
        boot: what a dual-bank node ended up running (``None`` for a
            single-bank install).
        resumes: transfers continued from a flash checkpoint.
        watchdog_resets: hangs the watchdog cleared this session.
    """

    transfer: TransferReport
    compressed_bytes: int
    raw_bytes: int
    decompress_time_s: float
    reconfigure_time_s: float
    total_time_s: float
    node_energy_j: float
    timeline: Timeline | None = field(default=None, repr=False,
                                      compare=False)
    boot: BootResult | None = None
    resumes: int = 0
    watchdog_resets: int = 0

    @property
    def applied(self) -> bool:
        """Whether the node is actually running the new image."""
        return self.boot is None or self.boot.bank != "golden"

    @property
    def rolled_back(self) -> bool:
        """Whether verification failed and the node fell back to golden."""
        return self.boot is not None and self.boot.rolled_back


def node_energy_from_timeline(timeline: Timeline, since: int = 0,
                              component: str = NODE_RADIO) -> float:
    """Node-side session energy, derived entirely from the ledger.

    Combines the radio receive/transmit dwells, the MCU-active time
    (radio handling plus decompression) and the flash activity recorded
    after ``since`` with the :mod:`repro.power.profiles` draw constants.
    Each per-phase dwell is replayed from the ledger in append order, so
    the result is bit-identical to the sequential accounting this
    replaced.
    """
    rx_time = timeline.time_s(kinds={PACKET_RX, PACKET_TIMEOUT},
                              component=component, since=since)
    rx_time = rx_time + timeline.time_s(kinds={CONTROL_RX},
                                        component=component, since=since)
    tx_time = timeline.time_s(kinds={PACKET_TX}, component=component,
                              since=since)
    tx_time = tx_time + timeline.time_s(kinds={CONTROL_TX},
                                        component=component, since=since)
    decompress_time = timeline.time_s(kinds={MCU_DECOMPRESS}, since=since)
    flash_energy = timeline.energy_j(kinds={FLASH_BUSY}, since=since)
    rx = rx_time * profiles.BACKBONE_RX_W
    tx = tx_time * profiles.BACKBONE_TX_14DBM_W
    mcu = (rx_time + tx_time + decompress_time) * profiles.MCU_ACTIVE_W
    return rx + tx + mcu + flash_energy


class OtaUpdater:
    """Drives complete update sessions against a node model."""

    def __init__(self, flash: Mx25R6435F | None = None,
                 mcu: Msp432 | None = None,
                 layout: FlashLayout | None = None) -> None:
        self.flash = flash or Mx25R6435F()
        self.mcu = mcu or Msp432()
        self.layout = layout or FlashLayout()
        self.configurator = FpgaConfigurator()

    def update(self, image: bytes, link: OtaLink,
               rng: np.random.Generator,
               is_fpga_image: bool = True,
               block_bytes: int = BLOCK_BYTES,
               timeline: Timeline | None = None) -> UpdateReport:
        """Run one full OTA session.

        Args:
            image: the raw firmware image (bitstream or MCU program).
            link: backbone link conditions.
            rng: randomness source for packet outcomes.
            is_fpga_image: FPGA images end with a quad-SPI reconfigure;
                MCU images end with a self-flash and reboot.
            block_bytes: compression block size.
            timeline: ledger the session is recorded on (a fresh one
                when not supplied).

        Raises:
            OtaError: if the transfer aborts or the installed image does
                not verify against the original.
        """
        timeline = timeline if timeline is not None else Timeline()
        since = timeline.checkpoint()
        session_start_s = timeline.now_s
        blocks = split_and_compress(image, block_bytes)
        wire_image = b"".join(block.header() + block.payload
                              for block in blocks)
        compressed_bytes = total_compressed_bytes(blocks)
        stats_before = self.flash.stats()

        transfer = simulate_transfer(wire_image, link, rng,
                                     timeline=timeline)
        if transfer.failed:
            raise OtaError(
                f"transfer aborted after {transfer.packets_sent} packets: "
                f"{transfer.events[-1] if transfer.events else 'unknown'}")

        # Stage compressed data, then decompress block by block through
        # the SRAM-bounded pipeline and install the boot image.
        self.flash.write(self.layout.staging_offset, wire_image)
        recovered = reassemble(blocks, sram=self.mcu.sram)
        if recovered != image:
            raise OtaError("decompressed image does not match the original")
        target = (self.layout.boot_offset if is_fpga_image
                  else self.layout.mcu_offset)
        self.flash.write(target, recovered)

        timeline.record(
            MCU_DECOMPRESS, NODE_MCU,
            label=f"{len(blocks)} blocks, {len(image)} bytes",
            duration_s=len(image) * 8 / DECOMPRESS_BANDWIDTH_BPS,
            power_w=profiles.MCU_ACTIVE_W)
        if is_fpga_image:
            timeline.record(
                FPGA_CONFIG, NODE_FPGA, label="quad-SPI boot",
                duration_s=self.configurator.program(
                    self.flash.read(target, len(image))),
                power_w=profiles.FPGA_STATIC_W)

        stats_after = self.flash.stats()
        # Flash erase/program runs concurrently with the (far slower)
        # radio transfer - the paper writes each packet to flash as it
        # arrives - so flash busy time contributes energy but not
        # wall-clock time: a non-advancing event carrying the measured
        # energy delta.
        timeline.record(
            FLASH_BUSY, NODE_FLASH, label="stage + install",
            duration_s=stats_after.busy_time_s - stats_before.busy_time_s,
            energy_override_j=stats_after.energy_j - stats_before.energy_j,
            advance=False, t_start_s=session_start_s)
        return UpdateReport(
            transfer=transfer,
            compressed_bytes=compressed_bytes,
            raw_bytes=len(image),
            decompress_time_s=timeline.time_s(kinds={MCU_DECOMPRESS},
                                              since=since),
            reconfigure_time_s=timeline.time_s(kinds={FPGA_CONFIG},
                                               since=since),
            total_time_s=timeline.time_s(since=since, advancing_only=True),
            node_energy_j=node_energy_from_timeline(timeline, since=since),
            timeline=timeline)
