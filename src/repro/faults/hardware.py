"""Hardware-level fault wrappers: a flash that sometimes misbehaves.

:class:`FaultyFlash` subclasses the :class:`~repro.ota.flash.Mx25R6435F`
model and injects the plan's :class:`~repro.faults.models.FlashFaultModel`
faults at page-program granularity: a failed program leaves the page's
prior contents untouched (the operation still costs time and energy),
and a stuck bit leaves one cell reading 1 that the program meant to
clear.  Both surface later as read-back verification mismatches, which
is exactly how the hardened installer is expected to catch them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ota.flash import PAGE_BYTES, Mx25R6435F
from repro.sim import FAULT_FLASH

if TYPE_CHECKING:
    from repro.faults.plan import NodeFaults


class FaultyFlash(Mx25R6435F):
    """An MX25R6435F whose page programs occasionally fail.

    Faults draw from the bound :class:`NodeFaults` streams, so the same
    plan seed reproduces the same failed pages and stuck bits.  Stats
    still count failed operations - the device spent the time and energy
    even when the cells did not take.
    """

    def __init__(self, faults: "NodeFaults",
                 capacity_bytes: int | None = None) -> None:
        if capacity_bytes is None:
            super().__init__()
        else:
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
