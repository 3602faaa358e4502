"""Unit tests for the hardened OTA pipeline (resume/rollback/watchdog)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CompressionError,
    ConfigurationError,
    FlashError,
    OtaError,
    RollbackError,
    WatchdogTimeoutError,
)
from repro.faults.models import BrownoutModel, FlashFaultModel, HangModel
from repro.faults.plan import FaultPlan
from repro.ota.ap import GOLDEN_IMAGE, GOLDEN_IMAGE_ID
from repro.ota.bank import (
    GOLDEN_OFFSET,
    MAX_IMAGE_BYTES,
    Checkpoint,
    CheckpointLog,
    FirmwareBanks,
    ImageRecord,
    bank_offset,
)
from repro.ota.blocks import (
    parse_wire_image,
    split_and_compress,
    total_compressed_bytes,
    wire_image,
)
from repro.ota.flash import FaultyFlash, Mx25R6435F
from repro.ota.hardened import IMAGE_ID, WATCHDOG_TIMEOUT_S, HardenedOtaSession
from repro.ota.mac import OtaLink
from repro.retry import ACK_TIMEOUT_S, MAX_ATTEMPTS_PER_PACKET, RetryPolicy
from repro.sim.events import (
    FAULT_HANG,
    OTA_RESUME,
    PACKET_DELIVERED,
    SCHEDULER_FIRE,
    WATCHDOG_RESET,
)
from repro.sim.timeline import Timeline

IMAGE = np.random.default_rng(2020).integers(
    0, 256, 3000, dtype=np.uint8).tobytes()
"""A small, incompressible stand-in firmware image - it stays ~3 kB on
the wire, so transfers span dozens of fragments (plenty of room for
brownouts and deadlines to land mid-transfer)."""


def provisioned_banks(timeline: Timeline | None = None) -> FirmwareBanks:
    banks = FirmwareBanks(Mx25R6435F(), timeline=timeline)
    banks.install_golden(GOLDEN_IMAGE, GOLDEN_IMAGE_ID)
    return banks


class TestRetryPolicy:
    def test_default_matches_the_historical_constants(self):
        policy = RetryPolicy()
        assert policy.max_attempts == MAX_ATTEMPTS_PER_PACKET
        assert policy.delay_s(0) == ACK_TIMEOUT_S
        assert policy.delay_s(17) == ACK_TIMEOUT_S
        assert policy.jitter_rng() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff="quadratic")
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_delay_s=0.1, base_delay_s=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=0.5)  # jitter needs a seed
        with pytest.raises(ConfigurationError):
            RetryPolicy(session_deadline_s=-1.0)

    def test_exponential_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff="exponential", base_delay_s=0.5,
                             max_delay_s=4.0)
        assert [policy.delay_s(a) for a in range(5)] \
            == [0.5, 1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(jitter_fraction=0.25, seed=99)
        delays_a = [policy.delay_s(0, policy.jitter_rng())
                    for _ in range(1)]
        rng_a, rng_b = policy.jitter_rng(), policy.jitter_rng()
        run_a = [policy.delay_s(a, rng_a) for a in range(50)]
        run_b = [policy.delay_s(a, rng_b) for a in range(50)]
        assert run_a == run_b
        assert delays_a[0] == run_a[0]
        for delay in run_a:
            assert 0.75 * ACK_TIMEOUT_S <= delay <= 1.25 * ACK_TIMEOUT_S


class TestRecords:
    def test_image_record_roundtrip(self):
        record = ImageRecord(image_id=3, length=1234, crc=0xDEADBEEF)
        assert ImageRecord.from_bytes(record.to_bytes()) == record

    def test_image_record_rejects_bad_magic(self):
        raw = bytearray(ImageRecord(1, 2, 3).to_bytes())
        raw[0] ^= 0xFF
        assert ImageRecord.from_bytes(bytes(raw)) is None

    def test_checkpoint_roundtrip_and_crc(self):
        checkpoint = Checkpoint(image_id=1, next_sequence=42)
        raw = checkpoint.to_bytes()
        assert Checkpoint.from_bytes(raw) == checkpoint
        corrupted = bytearray(raw)
        corrupted[4] ^= 0x01
        assert Checkpoint.from_bytes(bytes(corrupted)) is None
        assert Checkpoint.from_bytes(b"\xff" * len(raw)) is None


class TestCheckpointLog:
    def test_append_latest_clear(self):
        log = CheckpointLog(Mx25R6435F())
        assert log.latest() is None
        log.append(Checkpoint(image_id=1, next_sequence=5))
        log.append(Checkpoint(image_id=1, next_sequence=9))
        log.append(Checkpoint(image_id=2, next_sequence=3))
        assert log.latest(image_id=1).next_sequence == 9
        assert log.latest(image_id=2).next_sequence == 3
        assert log.latest().next_sequence == 3
        log.clear()
        assert log.latest() is None

    def test_full_log_compacts_instead_of_failing(self):
        log = CheckpointLog(Mx25R6435F())
        for seq in range(log.capacity + 3):
            log.append(Checkpoint(image_id=1, next_sequence=seq))
        assert log.latest(image_id=1).next_sequence == log.capacity + 2

    def test_offset_must_be_sector_aligned(self):
        with pytest.raises(ConfigurationError):
            CheckpointLog(Mx25R6435F(), offset=100)


class TestFirmwareBanks:
    def test_install_and_boot_alternate_banks(self):
        banks = provisioned_banks()
        assert banks.active_bank == "golden"
        target = banks.install(IMAGE, image_id=1)
        assert target == "a"
        boot = banks.boot()
        assert (boot.bank, boot.image_id, boot.rolled_back) \
            == ("a", 1, False)
        assert banks.install(IMAGE, image_id=2) == "b"
        assert banks.boot().bank == "b"

    def test_corrupt_candidate_rolls_back_to_golden(self):
        banks = provisioned_banks()
        target = banks.install(IMAGE, image_id=1)
        # NOR programming can only clear bits, so programming zeros over
        # the slot start corrupts the installed image in place.
        banks.flash.program(bank_offset(target), bytes(16))
        boot = banks.boot()
        assert boot.rolled_back
        assert boot.bank == "golden"
        assert boot.image_id == GOLDEN_IMAGE_ID
        assert banks.active_bank == "golden"

    def test_rollback_error_when_golden_is_also_corrupt(self):
        banks = provisioned_banks()
        target = banks.install(IMAGE, image_id=1)
        banks.flash.program(bank_offset(target), bytes(16))
        banks.flash.program(GOLDEN_OFFSET, bytes(16))
        with pytest.raises(RollbackError):
            banks.boot()

    def test_image_must_fit_the_slot(self):
        banks = provisioned_banks()
        with pytest.raises(ConfigurationError):
            banks.install(b"x" * (MAX_IMAGE_BYTES + 1), 1)
        with pytest.raises(ConfigurationError):
            banks.install(b"", 1)

    def test_checkpoint_and_resume_point(self):
        banks = provisioned_banks()
        assert banks.resume_point(1) == 0
        banks.checkpoint(1, 7)
        assert banks.resume_point(1) == 7
        assert banks.resume_point(2) == 0


class TestParseWireImage:
    def test_roundtrips_the_block_container(self):
        blocks = split_and_compress(IMAGE, 1024)
        wire = wire_image(blocks)
        assert parse_wire_image(wire) == blocks
        # The byte count the reports quote is the image the session sends.
        assert len(wire) == total_compressed_bytes(blocks)

    def test_truncated_streams_raise_typed_errors(self):
        blocks = split_and_compress(IMAGE, 1024)
        wire = wire_image(blocks)
        with pytest.raises(CompressionError):
            parse_wire_image(wire[:4])  # inside a header
        with pytest.raises(CompressionError):
            parse_wire_image(wire[:-3])  # inside a payload
        with pytest.raises(CompressionError):
            parse_wire_image(b"")


class TestHardenedOtaSession:
    def test_clean_run_applies_the_image(self):
        banks = provisioned_banks()
        session = HardenedOtaSession(
            IMAGE, OtaLink(downlink_rssi_dbm=-100.0), banks)
        report = session.run(np.random.default_rng(1))
        assert report.applied
        assert report.boot.bank == "a"
        assert not report.rolled_back
        assert report.resumes == 0
        assert report.total_time_s > 0.0
        assert report.node_energy_j > 0.0
        assert banks.read_image("a") == IMAGE
        # A completed transfer discards its checkpoints.
        assert banks.resume_point(IMAGE_ID) == 0

    def test_brownouts_resume_without_resending_acked_fragments(self):
        plan = FaultPlan(seed=4, brownout=BrownoutModel(
            seed=4, prob_per_fragment=0.25, reboot_time_s=1.0))
        banks = provisioned_banks()
        session = HardenedOtaSession(
            IMAGE, OtaLink(downlink_rssi_dbm=-100.0), banks,
            faults=plan.bind(0))
        timeline = Timeline()
        report = session.run(np.random.default_rng(2), timeline=timeline)
        assert report.applied
        assert report.resumes > 0
        assert timeline.count(kinds={OTA_RESUME}) == report.resumes
        delivered = [e.label for e in timeline.events
                     if e.kind == PACKET_DELIVERED]
        assert len(delivered) == len(set(delivered))

    def test_injected_hang_trips_the_watchdog(self):
        plan = FaultPlan(seed=5, hang=HangModel(seed=5, hang_prob=1.0))
        banks = provisioned_banks()
        session = HardenedOtaSession(
            IMAGE, OtaLink(downlink_rssi_dbm=-100.0), banks,
            faults=plan.bind(0))
        timeline = Timeline()
        with pytest.raises(WatchdogTimeoutError):
            session.run(np.random.default_rng(3), timeline=timeline)
        assert timeline.count(kinds={WATCHDOG_RESET}) == 1
        # Nothing kicks the hung MCU: the clock runs to the deadline,
        # where the timer fires the check and the watchdog resets.
        events = timeline.events
        hang = [event.kind for event in events].index(FAULT_HANG)
        deadline_s = events[hang].t_start_s + WATCHDOG_TIMEOUT_S
        assert timeline.now_s == deadline_s
        assert [(event.kind, event.component, event.label, event.t_start_s,
                 event.advanced) for event in events[hang + 1:]] == [
            (SCHEDULER_FIRE, "scheduler",
             "node install watchdog deadline check", deadline_s, False),
            (WATCHDOG_RESET, "watchdog",
             "node install watchdog expired after 5 s without a kick",
             deadline_s, True)]

    def test_session_deadline_fails_the_transfer_typed(self):
        policy = RetryPolicy(session_deadline_s=0.05)
        banks = provisioned_banks()
        session = HardenedOtaSession(
            IMAGE, OtaLink(downlink_rssi_dbm=-100.0), banks, policy=policy)
        with pytest.raises(OtaError):
            session.run(np.random.default_rng(4))

    def test_persistent_staging_failure_is_a_typed_error(self):
        plan = FaultPlan(seed=6, flash=FlashFaultModel(
            seed=6, page_failure_prob=1.0))
        injector = plan.bind(0)
        flash = FaultyFlash(injector)
        flash.inject = False
        banks = FirmwareBanks(flash)
        banks.install_golden(GOLDEN_IMAGE, GOLDEN_IMAGE_ID)
        flash.inject = True
        session = HardenedOtaSession(
            IMAGE, OtaLink(downlink_rssi_dbm=-100.0), banks,
            faults=injector)
        with pytest.raises((OtaError, FlashError)):
            session.run(np.random.default_rng(5))

    def test_empty_image_is_rejected(self):
        with pytest.raises(OtaError):
            HardenedOtaSession(b"", OtaLink(), provisioned_banks())
