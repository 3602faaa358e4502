"""Exception hierarchy for the tinySDR reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package-level failures with a single ``except`` clause
while still distinguishing subsystem-specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class RadioError(ReproError):
    """The radio model rejected an operation (bad state, bad frequency...)."""


class FramingError(ReproError):
    """A serial stream could not be aligned to the expected word structure."""


class DemodulationError(ReproError):
    """A PHY receiver could not recover a packet or symbol stream."""


class CodingError(ReproError):
    """Forward-error-correction encode/decode failed."""


class FpgaError(ReproError):
    """The FPGA model rejected an operation (resources, configuration)."""


class ResourceExhaustedError(FpgaError):
    """A design does not fit in the FPGA's available resources."""


class MemoryError_(ReproError):
    """A memory model (SRAM, flash, FIFO) rejected an access."""


class FlashError(MemoryError_):
    """Flash memory model error (bad address, write to un-erased page...)."""


class FifoOverflowError(MemoryError_):
    """A FIFO was written while full - real-time deadline missed."""


class FifoUnderflowError(MemoryError_):
    """A FIFO was read while empty."""


class PowerError(ReproError):
    """Power-management violation (domain off, regulator overload...)."""


class OtaError(ReproError):
    """Over-the-air programming protocol failure."""


class CompressionError(OtaError):
    """miniLZO compression or decompression failed."""


class FaultInjectionError(ReproError):
    """A fault model was configured or driven inconsistently."""


class WatchdogTimeoutError(ReproError):
    """A watchdog deadline expired without a kick (the node hung)."""


class BrownoutInterrupt(FaultInjectionError):
    """Control-flow signal: the node browned out mid-transfer.

    Carries the sequence number the node will resume from once it
    reboots, so the hardened session can restart the transfer loop.
    """

    def __init__(self, next_sequence: int) -> None:
        super().__init__(f"node brownout; resume from seq={next_sequence}")
        self.next_sequence = next_sequence


class RollbackError(OtaError):
    """Falling back to the golden image failed (both banks corrupt)."""


class TransferAbandonedError(OtaError):
    """A node exhausted every retry/resume budget and was given up on."""


class JournalError(ReproError):
    """A job journal is corrupt, inconsistent, or cannot be replayed."""


class SimulatedCrashError(ReproError):
    """Control-flow signal: the chaos harness killed the service process.

    Raised by :class:`repro.service.resilience.journal.CrashPlan` at a journal
    append boundary.  The service never catches it - the chaos driver
    does, then exercises ``CampaignService.recover``.
    """


class ProtocolError(ReproError):
    """A MAC/link protocol state machine received an invalid event."""


class MicError(ProtocolError):
    """LoRaWAN message integrity check failed."""


class ChannelError(ReproError):
    """Channel model misuse (mismatched lengths, invalid parameters)."""
