"""Dual-bank firmware storage with a golden image and rollback.

The 8 MB MX25R6435F leaves "far more than the size required" for one
bitstream, so the hardened updater partitions it A/B-style: a write-once
*golden* image the node can always fall back to, two update banks that
alternate as install targets, a staging area for in-flight compressed
data, and a metadata sector holding the append-only resume-checkpoint
log.  Every image carries a 16-byte trailer record (magic, id, length,
CRC-32) at the end of its slot; the boot path CRC-verifies the candidate
bank against its trailer before switching, and rolls back to golden on
any mismatch - a node never boots an image that fails verification.

The checkpoint log exploits NOR semantics: records are *programmed*
into erased cells without erasing the sector first, so appending a
checkpoint costs one page program, not a 40 ms sector erase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, FlashError, RollbackError
from repro.ota.flash import SECTOR_BYTES, Mx25R6435F
from repro.ota.mac import crc32
from repro.sim import OTA_CHECKPOINT, OTA_ROLLBACK, OTA_VERIFY, Timeline

GOLDEN_OFFSET = 0x000000
"""Write-once factory image slot: the rollback target."""

BANK_A_OFFSET = 0x100000
BANK_B_OFFSET = 0x200000
STAGING_OFFSET = 0x300000
"""Where in-flight compressed OTA data lands as fragments arrive."""

SLOT_BYTES = 0x100000
"""Size reserved per firmware slot (image + 16-byte trailer)."""

METADATA_OFFSET = 0x7FF000
"""Last 4 kB sector: the append-only checkpoint log."""

RECORD_MAGIC = 0x494D4731
"""``"IMG1"`` - marks a valid image trailer record."""

RECORD_BYTES = 16
CHECKPOINT_RECORD_BYTES = 12

MAX_IMAGE_BYTES = SLOT_BYTES - RECORD_BYTES
"""Largest image a slot can hold next to its trailer."""

MAX_PROGRAM_RETRIES = 3
"""Extra erase + program rounds an install spends on read-back
mismatches before leaving the image to the boot-time CRC check."""

FLASH_COMPONENT = "flash"

_BANK_OFFSETS = {"golden": GOLDEN_OFFSET, "a": BANK_A_OFFSET,
                 "b": BANK_B_OFFSET}


def bank_offset(bank: str) -> int:
    """Slot base address for a bank name.

    Raises:
        ConfigurationError: for unknown bank names.
    """
    if bank not in _BANK_OFFSETS:
        raise ConfigurationError(f"unknown bank {bank!r}")
    return _BANK_OFFSETS[bank]


@dataclass(frozen=True)
class ImageRecord:
    """The 16-byte trailer at the end of a firmware slot.

    Attributes:
        image_id: campaign-assigned firmware identifier.
        length: installed image size in bytes.
        crc: CRC-32 over the image bytes.
    """

    image_id: int
    length: int
    crc: int

    def to_bytes(self) -> bytes:
        """Serialize: magic (4) + id (4) + length (4) + CRC (4)."""
        return (RECORD_MAGIC.to_bytes(4, "big")
                + self.image_id.to_bytes(4, "big")
                + self.length.to_bytes(4, "big")
                + self.crc.to_bytes(4, "big"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ImageRecord | None":
        """Parse a trailer; ``None`` for erased or non-magic bytes."""
        if len(raw) != RECORD_BYTES \
                or int.from_bytes(raw[0:4], "big") != RECORD_MAGIC:
            return None
        return cls(image_id=int.from_bytes(raw[4:8], "big"),
                   length=int.from_bytes(raw[8:12], "big"),
                   crc=int.from_bytes(raw[12:16], "big"))


@dataclass(frozen=True)
class Checkpoint:
    """One resume-progress record in the metadata log.

    Attributes:
        image_id: which transfer the checkpoint belongs to.
        next_sequence: first data-packet sequence still outstanding.
    """

    image_id: int
    next_sequence: int

    def to_bytes(self) -> bytes:
        """Serialize: id (4) + next seq (4) + CRC-32 over both (4)."""
        body = (self.image_id.to_bytes(4, "big")
                + self.next_sequence.to_bytes(4, "big"))
        return body + crc32(body).to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint | None":
        """Parse a record; ``None`` for erased or CRC-failing bytes."""
        if len(raw) != CHECKPOINT_RECORD_BYTES or raw == b"\xff" * len(raw):
            return None
        if int.from_bytes(raw[8:12], "big") != crc32(raw[0:8]):
            return None
        return cls(image_id=int.from_bytes(raw[0:4], "big"),
                   next_sequence=int.from_bytes(raw[4:8], "big"))


class CheckpointLog:
    """Append-only progress log in the flash metadata sector.

    Surviving a brownout is the whole point: the log lives in flash, so
    a rebooted node reads its last acknowledged sequence number back
    from the array rather than from (lost) RAM.
    """

    def __init__(self, flash: Mx25R6435F,
                 offset: int = METADATA_OFFSET) -> None:
        if offset % SECTOR_BYTES:
            raise ConfigurationError(
                f"checkpoint log offset {offset:#x} must be sector-aligned")
        self.flash = flash
        self.offset = offset
        self.capacity = SECTOR_BYTES // CHECKPOINT_RECORD_BYTES

    def _slot_address(self, slot: int) -> int:
        return self.offset + slot * CHECKPOINT_RECORD_BYTES

    def _next_free_slot(self) -> int | None:
        erased = b"\xff" * CHECKPOINT_RECORD_BYTES
        for slot in range(self.capacity):
            raw = self.flash.read(self._slot_address(slot),
                                  CHECKPOINT_RECORD_BYTES)
            if raw == erased:
                return slot
        return None

    def append(self, checkpoint: Checkpoint,
               max_attempts: int = 8) -> None:
        """Program one record into the next erased slot, verified.

        A full log is compacted by erasing the sector first - the only
        erase this log ever issues.  Each write is read back: a record
        the flash dropped or mangled (injected page faults) is retried
        in a fresh program operation, so :meth:`latest` never returns a
        stale resume point just because one program silently failed.

        Raises:
            FlashError: when ``max_attempts`` rounds all failed to
                persist a parseable record.
        """
        payload = checkpoint.to_bytes()
        for _ in range(max_attempts):
            slot = self._next_free_slot()
            if slot is None:
                self.flash.erase_sector(self.offset)
                slot = 0
            address = self._slot_address(slot)
            self.flash.program(address, payload)
            written = self.flash.read(address, CHECKPOINT_RECORD_BYTES)
            if Checkpoint.from_bytes(written) == checkpoint:
                return
        raise FlashError(
            f"checkpoint record failed to persist after {max_attempts} "
            "program attempts")

    def latest(self, image_id: int | None = None) -> Checkpoint | None:
        """The most recent valid record (optionally for one image)."""
        found: Checkpoint | None = None
        for slot in range(self.capacity):
            raw = self.flash.read(self._slot_address(slot),
                                  CHECKPOINT_RECORD_BYTES)
            record = Checkpoint.from_bytes(raw)
            if record is None:
                continue
            if image_id is None or record.image_id == image_id:
                found = record
        return found

    def clear(self) -> None:
        """Erase the log (a completed transfer discards its progress)."""
        self.flash.erase_sector(self.offset)


@dataclass(frozen=True)
class BootResult:
    """What the node actually booted after an update attempt.

    Attributes:
        bank: the bank the node is running from.
        image_id: the trailer id of the booted image.
        rolled_back: the candidate failed verification and the node fell
            back to the golden image.
    """

    bank: str
    image_id: int
    rolled_back: bool


class FirmwareBanks:
    """Verified install and boot over the dual-bank layout."""

    def __init__(self, flash: Mx25R6435F | None = None,
                 timeline: Timeline | None = None) -> None:
        self.flash = flash if flash is not None else Mx25R6435F()
        self.timeline = timeline
        self.checkpoints = CheckpointLog(self.flash, METADATA_OFFSET)
        self.active_bank = "golden"
        self._pending_bank: str | None = None

    def _record(self, kind: str, label: str) -> None:
        if self.timeline is not None:
            self.timeline.record(kind, FLASH_COMPONENT, label=label)

    # -- slot IO -----------------------------------------------------------

    def _trailer_address(self, bank: str) -> int:
        return bank_offset(bank) + SLOT_BYTES - RECORD_BYTES

    def read_record(self, bank: str) -> ImageRecord | None:
        """The slot's trailer, or ``None`` when empty/corrupt."""
        raw = self.flash.read(self._trailer_address(bank), RECORD_BYTES)
        return ImageRecord.from_bytes(raw)

    def read_image(self, bank: str) -> bytes | None:
        """The installed image bytes, per the slot trailer."""
        record = self.read_record(bank)
        if record is None or record.length > MAX_IMAGE_BYTES:
            return None
        return self.flash.read(bank_offset(bank), record.length)

    def inactive_bank(self) -> str:
        """The update bank the next install should target."""
        return "b" if self.active_bank == "a" else "a"

    def _program_slot(self, bank: str, image: bytes,
                      record: ImageRecord) -> bool:
        """One erase + program + read-back round; True when it verifies."""
        base = bank_offset(bank)
        self.flash.erase_range(base, SLOT_BYTES)
        self.flash.program(base, image)
        self.flash.program(self._trailer_address(bank), record.to_bytes())
        readback = self.flash.read(base, len(image))
        trailer = self.read_record(bank)
        return readback == image and trailer == record

    def install(self, image: bytes, image_id: int,
                bank: str | None = None) -> str:
        """Install an image into a bank with read-back verification.

        Programs the slot, reads it back, and re-erases/re-programs up
        to :data:`MAX_PROGRAM_RETRIES` extra rounds when the array contents
        do not match (failed page programs, stuck bits).  The installed
        bank becomes the boot candidate.

        When every round fails the image is left in place anyway - the
        trailer is programmed, so the *boot-time* CRC check is the
        authority that catches it and rolls back to golden, exactly as
        on real hardware where a program op can report success while the
        cells did not take.

        Returns:
            The bank the image landed in.

        Raises:
            ConfigurationError: when the image does not fit a slot.
        """
        if not image:
            raise ConfigurationError("cannot install an empty image")
        if len(image) > MAX_IMAGE_BYTES:
            raise ConfigurationError(
                f"image of {len(image)} bytes exceeds the "
                f"{MAX_IMAGE_BYTES}-byte slot")
        target = bank if bank is not None else self.inactive_bank()
        record = ImageRecord(image_id=image_id, length=len(image),
                             crc=crc32(image))
        for round_ in range(1 + MAX_PROGRAM_RETRIES):
            if self._program_slot(target, image, record):
                self._record(OTA_VERIFY,
                             f"bank {target} verified after "
                             f"{round_ + 1} program round(s)")
                if target != "golden":
                    self._pending_bank = target
                return target
            self._record(OTA_VERIFY,
                         f"bank {target} read-back mismatch "
                         f"(round {round_ + 1})")
        if target != "golden":
            self._pending_bank = target
        return target

    def install_golden(self, image: bytes, image_id: int = 0) -> None:
        """Provision the factory fallback image."""
        self.install(image, image_id, bank="golden")

    def verify(self, bank: str) -> bool:
        """CRC-check a bank's contents against its trailer."""
        record = self.read_record(bank)
        if record is None or record.length > MAX_IMAGE_BYTES \
                or record.length == 0:
            self._record(OTA_VERIFY, f"bank {bank} has no valid trailer")
            return False
        image = self.flash.read(bank_offset(bank), record.length)
        ok = crc32(image) == record.crc
        self._record(OTA_VERIFY,
                     f"bank {bank} CRC {'ok' if ok else 'MISMATCH'}")
        return ok

    def boot(self) -> BootResult:
        """Verify-then-boot: the candidate bank, or golden on mismatch.

        Raises:
            RollbackError: both the candidate and the golden image fail
                verification - the node is unrecoverable over the air.
        """
        candidate = (self._pending_bank if self._pending_bank is not None
                     else self.active_bank)
        if candidate != "golden" and self.verify(candidate):
            self.active_bank = candidate
            self._pending_bank = None
            record = self.read_record(candidate)
            return BootResult(bank=candidate, image_id=record.image_id,
                              rolled_back=False)
        rolled_back = candidate != "golden"
        if rolled_back:
            self._record(OTA_ROLLBACK,
                         f"bank {candidate} failed verify; booting golden")
        if not self.verify("golden"):
            raise RollbackError(
                f"candidate bank {candidate!r} and the golden image both "
                "fail CRC verification")
        self.active_bank = "golden"
        self._pending_bank = None
        record = self.read_record("golden")
        return BootResult(bank="golden", image_id=record.image_id,
                          rolled_back=rolled_back)

    # -- resume checkpoints ------------------------------------------------

    def checkpoint(self, image_id: int, next_sequence: int) -> None:
        """Persist transfer progress; emits an ``ota.checkpoint`` marker."""
        self.checkpoints.append(Checkpoint(image_id=image_id,
                                           next_sequence=next_sequence))
        self._record(OTA_CHECKPOINT,
                     f"image {image_id} next_seq={next_sequence}")

    def resume_point(self, image_id: int) -> int:
        """First outstanding sequence number for ``image_id`` (0 if none)."""
        record = self.checkpoints.latest(image_id)
        return record.next_sequence if record is not None else 0
