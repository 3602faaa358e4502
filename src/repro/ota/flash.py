"""MX25R6435F flash memory model (paper section 3.1.2).

The 8 MB SPI flash stores FPGA bitstreams and MCU programs - "far more
than the size required", so a node can keep multiple firmware images and
switch protocols without re-downloading.  The model enforces NOR-flash
semantics (erase-before-write at 4 kB sector granularity, bits only
program 1 -> 0) because the OTA updater's flash layout depends on them.
:class:`FaultyFlash` is the same array with a fault plan's failed page
programs and stuck bits injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, FlashError
from repro.power import profiles
from repro.sim import FAULT_FLASH

if TYPE_CHECKING:
    from repro.faults.plan import NodeFaults

CAPACITY_BYTES = 8 * 1024 * 1024
SECTOR_BYTES = 4096
PAGE_BYTES = 256

READ_BANDWIDTH_BPS = 8_000_000 * 8
"""SPI read throughput at the 80 MHz-class clock, bits per second."""

PAGE_PROGRAM_TIME_S = 0.9e-3
SECTOR_ERASE_TIME_S = 40e-3

# The single-bank firmware map of the classic updater (hardened nodes
# partition the array with the dual-bank map of repro.ota.bank instead).
STAGING_OFFSET = 0x000000
"""Where compressed OTA blocks land as they arrive."""

BOOT_OFFSET = 0x100000
"""Where the decompressed FPGA bitstream lives: the address quad-SPI
configuration reads from."""

MCU_OFFSET = 0x200000
"""Where the decompressed MCU program lives."""


@dataclass(frozen=True)
class FlashStats:
    """Cumulative access statistics for timing/energy accounting.

    Timing charges whole page-program *operations*: the device takes
    ``PAGE_PROGRAM_TIME_S`` per page program regardless of how few bytes
    the operation writes, so a 1-byte program costs a full page time
    (the old ``bytes_programmed / PAGE_BYTES`` ratio undercounted it to
    nearly zero).
    """

    bytes_read: int
    bytes_programmed: int
    page_programs: int
    sectors_erased: int

    @property
    def busy_time_s(self) -> float:
        """Total time spent on flash operations."""
        read = self.bytes_read * 8 / READ_BANDWIDTH_BPS
        program = self.page_programs * PAGE_PROGRAM_TIME_S
        erase = self.sectors_erased * SECTOR_ERASE_TIME_S
        return read + program + erase

    @property
    def energy_j(self) -> float:
        """Energy of the logged operations."""
        read = (self.bytes_read * 8 / READ_BANDWIDTH_BPS
                * profiles.FLASH_ACTIVE_W)
        program = (self.page_programs * PAGE_PROGRAM_TIME_S
                   * profiles.FLASH_PROGRAM_W)
        erase = (self.sectors_erased * SECTOR_ERASE_TIME_S
                 * profiles.FLASH_PROGRAM_W)
        return read + program + erase


class Mx25R6435F:
    """NOR flash with erase-before-write semantics."""

    def __init__(self, capacity_bytes: int = CAPACITY_BYTES) -> None:
        if capacity_bytes % SECTOR_BYTES:
            raise ConfigurationError(
                f"capacity must be a multiple of the {SECTOR_BYTES}-byte "
                f"sector size, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._data = bytearray(b"\xff") * capacity_bytes
        self._bytes_read = 0
        self._bytes_programmed = 0
        self._page_programs = 0
        self._sectors_erased = 0

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.capacity_bytes:
            raise FlashError(
                f"access [{address}, {address + length}) outside the "
                f"{self.capacity_bytes}-byte array")

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check_range(address, length)
        self._bytes_read += length
        return bytes(self._data[address:address + length])

    def erase_sector(self, address: int) -> None:
        """Erase the 4 kB sector containing ``address`` (all bytes to 0xFF).

        Raises:
            FlashError: for out-of-range or unaligned addresses.
        """
        if address % SECTOR_BYTES:
            raise FlashError(
                f"sector erase address {address:#x} is not "
                f"{SECTOR_BYTES}-byte aligned")
        self._check_range(address, SECTOR_BYTES)
        self._data[address:address + SECTOR_BYTES] = b"\xff" * SECTOR_BYTES
        self._sectors_erased += 1

    def erase_range(self, address: int, length: int) -> None:
        """Erase every sector overlapping ``[address, address + length)``."""
        self._check_range(address, length)
        first = (address // SECTOR_BYTES) * SECTOR_BYTES
        last = address + length
        for sector in range(first, last, SECTOR_BYTES):
            self.erase_sector(sector)

    def program(self, address: int, data: bytes) -> None:
        """Program bytes (NOR semantics: can only clear bits).

        Raises:
            FlashError: when writing to a location that is not erased
                (would need 0 -> 1 transitions).
        """
        length = len(data)
        self._check_range(address, length)
        end = address + length
        # The range as one big-endian integer: a write is legal when it
        # sets no bit the array holds clear.  The check covers the whole
        # range before the array changes, so an illegal write is
        # rejected atomically rather than leaving a partial program.
        current = int.from_bytes(self._data[address:end], "big")
        written = int.from_bytes(data, "big")
        illegal = written & ~current
        if illegal:
            offset = length - 1 - (illegal.bit_length() - 1) // 8
            raise FlashError(
                f"programming {data[offset]:#04x} over "
                f"{self._data[address + offset]:#04x} at "
                f"{address + offset:#x} requires an erase first")
        self._data[address:end] = (current & written).to_bytes(length, "big")
        self._bytes_programmed += length
        self._page_programs += self.page_span(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Convenience: erase the covered range, then program."""
        self.erase_range(address, len(data))
        self.program(address, data)

    @staticmethod
    def page_span(address: int, length: int) -> int:
        """Number of page-program operations a write issues.

        The device programs at most one page per operation, so a write
        costs one operation per page it touches - a single byte is a
        whole page program.
        """
        if length <= 0:
            return 0
        first = address // PAGE_BYTES
        last = (address + length - 1) // PAGE_BYTES
        return last - first + 1

    def stats(self) -> FlashStats:
        """Snapshot of cumulative access statistics."""
        return FlashStats(bytes_read=self._bytes_read,
                          bytes_programmed=self._bytes_programmed,
                          page_programs=self._page_programs,
                          sectors_erased=self._sectors_erased)


class FaultyFlash(Mx25R6435F):
    """An MX25R6435F whose page programs occasionally fail.

    The plan's :class:`~repro.faults.models.FlashFaultModel` acts per
    page program: a failed program leaves the page's prior contents
    untouched, and a stuck bit leaves one cell reading 1 that the
    program meant to clear.  Both surface later as read-back
    verification mismatches, which is how the hardened installer
    catches them.  Faults draw from the bound :class:`NodeFaults`
    streams, so the same plan seed reproduces the same failed pages and
    stuck bits.  Stats still count failed operations - the device spent
    the time and energy even when the cells did not take.
    """

    def __init__(self, faults: NodeFaults,
                 capacity_bytes: int = CAPACITY_BYTES) -> None:
        super().__init__(capacity_bytes)
        faults.require_flash_model()
        self.faults = faults
        self.inject = True
        """Set False to model factory programming (golden provisioning
        on the bench, before the node ships with its flaky array)."""

    def program(self, address: int, data: bytes) -> None:
        """Program per page, injecting failed operations and stuck bits.

        Raises:
            FlashError: as the base model does, for writes that would
                need 0 -> 1 transitions or fall out of range.
        """
        if not self.inject:
            super().program(address, data)
            return
        cursor = 0
        while cursor < len(data):
            page_end = ((address + cursor) // PAGE_BYTES + 1) * PAGE_BYTES
            chunk = data[cursor:cursor + page_end - (address + cursor)]
            chunk_addr = address + cursor
            if self.faults.flash_page_failed():
                # The operation runs (and is billed) but the cells keep
                # their pre-program contents.
                self._check_range(chunk_addr, len(chunk))
                self._bytes_programmed += len(chunk)
                self._page_programs += 1
                self.faults._emit(FAULT_FLASH,
                                  f"page program failed at {chunk_addr:#x}",
                                  component="flash")
            else:
                super().program(chunk_addr, chunk)
                bit = self.faults.flash_stuck_bit(len(chunk))
                if bit is not None:
                    byte_off, mask = bit // 8, 1 << (bit % 8)
                    if not chunk[byte_off] & mask:
                        self._data[chunk_addr + byte_off] |= mask
                        self.faults._emit(
                            FAULT_FLASH,
                            f"stuck bit at {chunk_addr + byte_off:#x}"
                            f" mask {mask:#04x}", component="flash")
            cursor += len(chunk)
