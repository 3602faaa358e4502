"""Stateful property tests (hypothesis RuleBasedStateMachine).

Model-based testing of the two stateful substrates whose invariants
everything else leans on: the NOR flash (erase-before-write semantics)
and the sample FIFO (strict queue order under interleaved I/O).
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import FlashError
from repro.fpga.fifo import SampleFifo
from repro.ota.flash import Mx25R6435F, SECTOR_BYTES


class FlashMachine(RuleBasedStateMachine):
    """The flash model must match a byte-array reference model."""

    def __init__(self):
        super().__init__()
        self.flash = Mx25R6435F(capacity_bytes=4 * SECTOR_BYTES)
        self.model = bytearray(b"\xff" * (4 * SECTOR_BYTES))

    @rule(sector=st.integers(min_value=0, max_value=3))
    def erase(self, sector):
        address = sector * SECTOR_BYTES
        self.flash.erase_sector(address)
        self.model[address:address + SECTOR_BYTES] = \
            b"\xff" * SECTOR_BYTES

    @rule(offset=st.integers(min_value=0, max_value=4 * SECTOR_BYTES - 64),
          data=st.binary(min_size=1, max_size=64))
    def program(self, offset, data):
        # NOR programming can only clear bits; the model predicts
        # whether the device accepts or rejects the write, and which
        # byte it names when it rejects it.
        illegal = [i for i, byte in enumerate(data)
                   if byte & ~self.model[offset + i]]
        if not illegal:
            self.flash.program(offset, data)
            for i, byte in enumerate(data):
                self.model[offset + i] &= byte
        else:
            with pytest.raises(FlashError,
                               match=f"at {offset + illegal[0]:#x} "):
                self.flash.program(offset, data)

    @rule(offset=st.integers(min_value=0, max_value=4 * SECTOR_BYTES - 64),
          length=st.integers(min_value=1, max_value=64))
    def read_matches_model(self, offset, length):
        assert self.flash.read(offset, length) == \
            bytes(self.model[offset:offset + length])


class FifoMachine(RuleBasedStateMachine):
    """The FIFO must behave as a bounded queue."""

    CAPACITY_SAMPLES = 64

    def __init__(self):
        super().__init__()
        self.fifo = SampleFifo(capacity_bytes=self.CAPACITY_SAMPLES * 4)
        self.model: list[complex] = []
        self.counter = 0

    @rule(count=st.integers(min_value=1, max_value=32))
    def write(self, count):
        samples = np.arange(self.counter, self.counter + count,
                            dtype=np.complex128)
        self.counter += count
        written = self.fifo.write(samples, drop_on_overflow=True)
        kept = min(count, self.CAPACITY_SAMPLES - len(self.model))
        assert written == kept
        self.model.extend(samples[:kept].tolist())

    @rule(count=st.integers(min_value=1, max_value=32))
    def read(self, count):
        count = min(count, len(self.model))
        if count == 0:
            return
        out = self.fifo.read(count)
        expected = [self.model.pop(0) for _ in range(count)]
        assert np.allclose(out, expected)

    @invariant()
    def occupancy_consistent(self):
        assert len(self.fifo) == len(self.model)
        assert self.fifo.free_samples == \
            self.CAPACITY_SAMPLES - len(self.model)


TestFlashMachine = FlashMachine.TestCase
TestFifoMachine = FifoMachine.TestCase

_MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=30,
                             deadline=None)
TestFlashMachine.settings = _MACHINE_SETTINGS
TestFifoMachine.settings = _MACHINE_SETTINGS
