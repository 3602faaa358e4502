"""Fault-tolerant OTA session: resume, verify-before-boot, watchdog.

The baseline :class:`~repro.ota.updater.OtaUpdater` assumes the world
cooperates: transfers either complete or abort, installs always take,
nodes never lose power.  On a light pole none of that holds, and a node
you cannot recover over the air is a truck roll.  This module is the
hardened pipeline the chaos suite beats on:

* **Resumable transfers** - every delivered fragment is staged to flash
  and its sequence number checkpointed in the metadata log
  (:class:`~repro.ota.bank.CheckpointLog`), so a node that browns out
  resumes from its last acknowledged fragment instead of starting over
  (``ota.resume``), and never re-receives a fragment it already ACKed.
* **Verified dual-bank install** - images land in the inactive bank of a
  :class:`~repro.ota.bank.FirmwareBanks` layout with read-back retry;
  the boot path CRC-verifies before switching and rolls back to the
  golden image on mismatch (``ota.rollback``).
* **Watchdog** - a deadline of :data:`WATCHDOG_TIMEOUT_S` around
  decompression/install turns an injected MCU hang into a
  ``watchdog.reset`` plus a typed :class:`WatchdogTimeoutError` the AP
  can retry, instead of a silently dead node.

Fault injection is strictly opt-in: with ``faults=None`` and
``policy=None`` nothing here runs on the default code paths and the
parity goldens are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    BrownoutInterrupt,
    CompressionError,
    OtaError,
    WatchdogTimeoutError,
)
from repro.faults.plan import NodeFaults
from repro.fpga.config import NODE_FPGA, FpgaConfigurator
from repro.mcu.msp432 import DECOMPRESS_BANDWIDTH_BPS, NODE_MCU, Msp432
from repro.ota.bank import STAGING_OFFSET, FirmwareBanks, bank_offset
from repro.ota.blocks import (
    parse_wire_image,
    reassemble,
    split_and_compress,
    total_compressed_bytes,
    wire_image,
)
from repro.ota.flash import NODE_FLASH
from repro.ota.mac import (
    DATA_PAYLOAD_BYTES,
    NODE_RADIO,
    EndOfUpdate,
    OtaLink,
    ProgrammingRequest,
    ReadyMessage,
    crc32,
    fragment_image,
    run_stop_and_wait,
    transfer_report_from_timeline,
)
from repro.ota.updater import UpdateReport, node_energy_from_timeline
from repro.power import profiles
from repro.retry import RetryPolicy
from repro.sim.events import (
    CONTROL_RX,
    CONTROL_TX,
    FLASH_BUSY,
    FPGA_CONFIG,
    MCU_DECOMPRESS,
    OTA_RESUME,
    SCHEDULER_FIRE,
    WATCHDOG_RESET,
)
from repro.sim.timeline import Timeline

STAGING_PROGRAM_ATTEMPTS = 6
"""Program/verify rounds per staged fragment before declaring the
staging area bad and failing the session."""

WATCHDOG_TIMEOUT_S = 5.0
"""Hang-detection deadline around install.  Generous next to the 450 ms
worst-case decompression: a deadline this far past any legitimate dwell
only ever catches real hangs."""

IMAGE_ID = 1
"""Firmware identifier a session stages under (scopes its checkpoints)."""


class HardenedOtaSession:
    """One node's fault-tolerant programming session.

    Args:
        image: the raw firmware image to deliver.
        link: backbone link conditions.
        banks: the node's dual-bank flash (persists across attempts, so
            staged data and checkpoints survive a failed session).
        is_fpga_image: FPGA images end with a quad-SPI reconfigure.
        policy: retransmission discipline (default: the historical
            fixed-timeout behaviour).
        faults: the node's fault injector, or ``None`` for a clean run.
    """

    def __init__(self, image: bytes, link: OtaLink, banks: FirmwareBanks,
                 is_fpga_image: bool = True,
                 policy: RetryPolicy | None = None,
                 faults: NodeFaults | None = None) -> None:
        if not image:
            raise OtaError("cannot deliver an empty image")
        self.image = image
        self.link = link
        self.banks = banks
        self.is_fpga_image = is_fpga_image
        self.policy = policy
        self.faults = faults
        self.mcu = Msp432()
        self.configurator = FpgaConfigurator()

    # -- phases ------------------------------------------------------------

    def _transfer(self, fragments, rng: np.random.Generator,
                  timeline: Timeline) -> int:
        """Deliver outstanding fragments, riding out brownouts.

        Returns the number of checkpoint resumes performed.

        Raises:
            OtaError: a fragment exhausted its retries or the session
                deadline expired.
        """
        banks = self.banks
        resumes = 0
        next_seq = banks.resume_point(IMAGE_ID)
        if next_seq == 0:
            total_bytes = sum(len(f.payload) for f in fragments)
            banks.flash.erase_range(STAGING_OFFSET, total_bytes)
        elif next_seq < len(fragments):
            timeline.record(OTA_RESUME, NODE_RADIO,
                            label=f"resume from seq={next_seq} "
                                  "(prior session checkpoint)")
            resumes += 1

        def stage_and_checkpoint(fragment) -> None:
            # Verify the local write before checkpointing: a fragment is
            # only ever recorded as delivered once it is durably staged,
            # so a resume point never covers bytes the flash dropped.
            # Re-programming the same data is legal NOR (it only clears
            # bits), so a failed or stuck page gets fresh tries.
            address = STAGING_OFFSET + fragment.sequence * DATA_PAYLOAD_BYTES
            for _ in range(STAGING_PROGRAM_ATTEMPTS):
                banks.flash.program(address, fragment.payload)
                if banks.flash.read(address, len(fragment.payload)) \
                        == fragment.payload:
                    break
            else:
                raise OtaError(
                    f"fragment {fragment.sequence} failed staging "
                    f"verification {STAGING_PROGRAM_ATTEMPTS} times")
            banks.checkpoint(IMAGE_ID, fragment.sequence + 1)

        while next_seq < len(fragments):
            try:
                lost = run_stop_and_wait(
                    fragments[next_seq:], rng, timeline,
                    lambda now_s, fragment, attempt: self.link,
                    policy=self.policy, faults=self.faults,
                    on_delivered=stage_and_checkpoint)
            except BrownoutInterrupt:
                # RAM is gone; the flash log is the only truth left.
                next_seq = banks.resume_point(IMAGE_ID)
                timeline.record(OTA_RESUME, NODE_RADIO,
                                label=f"resume from seq={next_seq} "
                                      "after brownout")
                resumes += 1
                continue
            if lost is not None:
                raise OtaError(
                    f"transfer aborted at fragment {lost.sequence}")
            break
        return resumes

    def _install(self, wire_bytes: int, timeline: Timeline) -> str:
        """Read back the staged image, decompress, verify and install.

        Returns the target bank.

        Raises:
            WatchdogTimeoutError: an injected hang tripped the watchdog.
            OtaError: the staged data failed decompression or the
                recovered image does not match (checkpoints are cleared
                so the next attempt re-transfers from scratch).
        """
        banks = self.banks
        if self.faults is not None and self.faults.hangs_now():
            # The MCU stops making progress: nothing kicks the watchdog,
            # so at the deadline its timer fires the check and resets
            # the node.
            deadline_s = timeline.now_s + WATCHDOG_TIMEOUT_S
            timeline.advance_to(deadline_s)
            timeline.record(SCHEDULER_FIRE, "scheduler",
                            label="node install watchdog deadline check",
                            advance=False, t_start_s=deadline_s)
            timeline.record(WATCHDOG_RESET, "watchdog",
                            label=f"node install watchdog expired after "
                                  f"{WATCHDOG_TIMEOUT_S:g} s without a kick")
            raise WatchdogTimeoutError(
                f"install hang; watchdog reset after "
                f"{WATCHDOG_TIMEOUT_S:g} s")
        staged = banks.flash.read(STAGING_OFFSET, wire_bytes)
        try:
            blocks = parse_wire_image(staged)
            recovered = reassemble(blocks, sram=self.mcu.sram)
        except CompressionError as exc:
            banks.checkpoints.clear()
            raise OtaError(
                f"staged image failed decompression: {exc}") from exc
        if recovered != self.image:
            banks.checkpoints.clear()
            raise OtaError(
                "decompressed image does not match the original; "
                "checkpoints cleared for a fresh transfer")
        timeline.record(
            MCU_DECOMPRESS, NODE_MCU,
            label=f"{len(blocks)} blocks, {len(recovered)} bytes",
            duration_s=len(recovered) * 8 / DECOMPRESS_BANDWIDTH_BPS,
            power_w=profiles.MCU_ACTIVE_W)
        return banks.install(recovered, IMAGE_ID)

    # -- the session -------------------------------------------------------

    def run(self, rng: np.random.Generator,
            timeline: Timeline | None = None,
            campaign_offset_s: float = 0.0) -> UpdateReport:
        """Run one full hardened session.

        Args:
            rng: randomness source for packet outcomes (fault draws come
                from the injector's own streams).
            timeline: ledger to record on (fresh when not supplied).
            campaign_offset_s: maps this timeline's clock onto the
                campaign clock, for AP-outage windows.

        Raises:
            OtaError: the transfer or install failed in a retryable way.
            WatchdogTimeoutError: an injected hang tripped the watchdog.
            RollbackError: both banks failed verification (the node is
                unrecoverable over the air).
        """
        timeline = timeline if timeline is not None else Timeline()
        since = timeline.checkpoint()
        session_start_s = timeline.now_s
        if self.faults is not None:
            self.faults.attach(timeline, campaign_offset_s)
        previous_bank_timeline = self.banks.timeline
        self.banks.timeline = timeline
        try:
            return self._run(rng, timeline, since, session_start_s)
        finally:
            self.banks.timeline = previous_bank_timeline

    def _run(self, rng: np.random.Generator, timeline: Timeline,
             since: int, session_start_s: float) -> UpdateReport:
        banks = self.banks
        stats_before = banks.flash.stats()
        blocks = split_and_compress(self.image)
        wire = wire_image(blocks)
        fragments = fragment_image(wire)

        request = ProgrammingRequest((1,), (0.0,), image_id=IMAGE_ID)
        timeline.record(
            CONTROL_RX, NODE_RADIO, label="programming request",
            duration_s=self.link.airtime_s(request.wire_bytes),
            power_w=profiles.BACKBONE_RX_W)
        timeline.record(
            CONTROL_TX, NODE_RADIO, label="ready",
            duration_s=self.link.airtime_s(ReadyMessage(1).wire_bytes),
            power_w=profiles.BACKBONE_TX_14DBM_W)

        resumes = self._transfer(fragments, rng, timeline)

        end = EndOfUpdate(len(fragments), crc32(wire))
        timeline.record(
            CONTROL_RX, NODE_RADIO, label="end of update",
            duration_s=self.link.airtime_s(end.wire_bytes),
            power_w=profiles.BACKBONE_RX_W)

        target = self._install(len(wire), timeline)
        if self.is_fpga_image:
            installed = banks.flash.read(bank_offset(target),
                                         len(self.image))
            timeline.record(
                FPGA_CONFIG, NODE_FPGA, label="quad-SPI boot",
                duration_s=self.configurator.program(installed),
                power_w=profiles.FPGA_STATIC_W)
        boot = banks.boot()
        if not boot.rolled_back:
            banks.checkpoints.clear()

        stats_after = banks.flash.stats()
        timeline.record(
            FLASH_BUSY, NODE_FLASH, label="stage + install + verify",
            duration_s=stats_after.busy_time_s - stats_before.busy_time_s,
            energy_override_j=stats_after.energy_j - stats_before.energy_j,
            advance=False, t_start_s=session_start_s)
        transfer = transfer_report_from_timeline(timeline, since,
                                                 failed=False, messages=[])
        return UpdateReport(
            transfer=transfer,
            compressed_bytes=total_compressed_bytes(blocks),
            raw_bytes=len(self.image),
            decompress_time_s=timeline.time_s(kinds={MCU_DECOMPRESS},
                                              since=since),
            reconfigure_time_s=timeline.time_s(kinds={FPGA_CONFIG},
                                               since=since),
            total_time_s=timeline.time_s(since=since, advancing_only=True),
            node_energy_j=node_energy_from_timeline(timeline, since=since),
            timeline=timeline,
            boot=boot,
            resumes=resumes)
