"""Typed simulation events: the rows of the timeline ledger.

Event *kinds* form a small closed taxonomy (dotted ``layer.action``
strings) so views can select by behaviour class without string
matching on free-text labels.  The taxonomy mirrors the state changes
the paper's evaluation integrates over:

==================  =====================================================
kind                meaning
==================  =====================================================
``radio.mode``      transceiver state switch (sleep/TRXOFF/RX/TX dwell)
``packet.tx``       one packet transmission (ACKs, NACKs, uplink data)
``packet.rx``       one packet reception (firmware fragments, downlink)
``packet.timeout``  an ACK-or-data wait that expired
``packet.done``     zero-duration marker: a fragment was delivered
``control.tx``      protocol control message sent (ready message)
``control.rx``      protocol control message received (request, end)
``mcu.mode``        MCU power-mode transition (zero-duration marker)
``mcu.run``         MCU dwell in its current mode
``mcu.decompress``  node-side miniLZO block decompression
``fpga.config``     quad-SPI bitstream load / fabric boot
``flash.busy``      external flash erase/program activity (concurrent)
``sleep``           duty-cycle sleep interval
``meter.segment``   a constant-power :class:`EnergyMeter` segment
``scheduler.fire``  the MSP432 timer fired the watchdog's deadline check
``ota.request``     AP campaign announcement airtime
``ota.session``     one node's whole programming session (span)
``ota.retry``       AP waiting out a node's next listen window
``ota.failure``     zero-duration marker: a session or fragment died
``ota.checkpoint``  resume checkpoint persisted to the flash metadata log
``ota.resume``      a rebooted node resumed its transfer mid-image
``ota.rollback``    CRC-verify failed; node fell back to the golden image
``ota.verify``      image CRC verification before boot
``watchdog.reset``  the watchdog expired and rebooted a hung node
``fault.loss``      injected packet loss (Gilbert-Elliott burst state)
``fault.corrupt``   injected bit corruption on a delivered packet
``fault.flash``     injected flash page-program failure or stuck bits
``fault.brownout``  injected node brownout/reboot mid-transfer
``fault.outage``    packet fell inside an injected AP outage window
``fault.hang``      injected MCU hang (watchdog-detected)
``fault.worker_crash``  injected service-worker crash mid-attempt (the
                    span is the supervisor's missed-heartbeat dwell)
``fault.workload_hang``  injected workload hang (zero-duration marker;
                    the watchdog reset carries the detection dwell)
``service.submit``  a tenant submitted a job to the campaign service
``service.admit``   the job cleared quota/rate-limit admission
``service.reject``  admission refused the job (quota or rate limit)
``service.shed``    admission shed the job at an overload high-water mark
``service.dispatch``  the scheduler picked the job off the queue
``service.progress``  a workload adapter reported a progress milestone
``service.execute``  the workload's whole virtual-time execution span
``service.retry``   the supervisor backed off before re-running a job
``service.cache``   the result cache answered the job (zero recompute),
                    or evicted an entry that failed digest re-verification
``service.complete``  the job finished and its result was recorded
``service.quarantine``  the job struck out and was quarantined as poison
``service.breaker.open``  a per-workload circuit breaker tripped open
``service.breaker.half_open``  an open breaker started a probe window
``service.breaker.close``  a half-open breaker's probe succeeded
==================  =====================================================

The ``fault.*`` namespace is reserved for *injected* failures from
:mod:`repro.faults`: traces carry exactly what was done to the system,
distinct from the ``ota.*`` events that show how it coped.  The
``service.*`` namespace is reserved for the multi-tenant campaign
service (:mod:`repro.service`): its virtual-time scheduler journals
every admission, dispatch and completion decision as ledger rows so a
tenant can stream a job's progress.

Events carry an optional ``power_w`` so energy falls out of the ledger
as ``power x duration``; activities whose energy is not a constant-power
integral (flash erase/program mixes) store an explicit
``energy_override_j`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

RADIO_MODE = "radio.mode"
PACKET_TX = "packet.tx"
PACKET_RX = "packet.rx"
PACKET_TIMEOUT = "packet.timeout"
PACKET_DELIVERED = "packet.done"
CONTROL_TX = "control.tx"
CONTROL_RX = "control.rx"
MCU_MODE = "mcu.mode"
MCU_RUN = "mcu.run"
MCU_DECOMPRESS = "mcu.decompress"
FPGA_CONFIG = "fpga.config"
FLASH_BUSY = "flash.busy"
SLEEP = "sleep"
METER_SEGMENT = "meter.segment"
SCHEDULER_FIRE = "scheduler.fire"
OTA_REQUEST = "ota.request"
OTA_SESSION = "ota.session"
OTA_RETRY_WAIT = "ota.retry"
OTA_FAILURE = "ota.failure"
OTA_CHECKPOINT = "ota.checkpoint"
OTA_RESUME = "ota.resume"
OTA_ROLLBACK = "ota.rollback"
OTA_VERIFY = "ota.verify"
WATCHDOG_RESET = "watchdog.reset"
FAULT_LOSS = "fault.loss"
FAULT_CORRUPT = "fault.corrupt"
FAULT_FLASH = "fault.flash"
FAULT_BROWNOUT = "fault.brownout"
FAULT_OUTAGE = "fault.outage"
FAULT_HANG = "fault.hang"
FAULT_WORKER_CRASH = "fault.worker_crash"
FAULT_WORKLOAD_HANG = "fault.workload_hang"
SERVICE_SUBMIT = "service.submit"
SERVICE_ADMIT = "service.admit"
SERVICE_REJECT = "service.reject"
SERVICE_SHED = "service.shed"
SERVICE_DISPATCH = "service.dispatch"
SERVICE_PROGRESS = "service.progress"
SERVICE_EXECUTE = "service.execute"
SERVICE_RETRY = "service.retry"
SERVICE_CACHE_HIT = "service.cache"
SERVICE_COMPLETE = "service.complete"
SERVICE_QUARANTINE = "service.quarantine"
SERVICE_BREAKER_OPEN = "service.breaker.open"
SERVICE_BREAKER_HALF_OPEN = "service.breaker.half_open"
SERVICE_BREAKER_CLOSE = "service.breaker.close"

#: Every kind the ledger understands, for validation and docs.
ALL_KINDS = frozenset({
    RADIO_MODE, PACKET_TX, PACKET_RX, PACKET_TIMEOUT, PACKET_DELIVERED,
    CONTROL_TX, CONTROL_RX, MCU_MODE, MCU_RUN, MCU_DECOMPRESS,
    FPGA_CONFIG, FLASH_BUSY, SLEEP, METER_SEGMENT, SCHEDULER_FIRE,
    OTA_REQUEST, OTA_SESSION, OTA_RETRY_WAIT, OTA_FAILURE,
    OTA_CHECKPOINT, OTA_RESUME, OTA_ROLLBACK, OTA_VERIFY, WATCHDOG_RESET,
    FAULT_LOSS, FAULT_CORRUPT, FAULT_FLASH, FAULT_BROWNOUT, FAULT_OUTAGE,
    FAULT_HANG, FAULT_WORKER_CRASH, FAULT_WORKLOAD_HANG,
    SERVICE_SUBMIT, SERVICE_ADMIT, SERVICE_REJECT, SERVICE_SHED,
    SERVICE_DISPATCH, SERVICE_PROGRESS, SERVICE_EXECUTE, SERVICE_RETRY,
    SERVICE_CACHE_HIT, SERVICE_COMPLETE, SERVICE_QUARANTINE,
    SERVICE_BREAKER_OPEN, SERVICE_BREAKER_HALF_OPEN, SERVICE_BREAKER_CLOSE,
})

#: The injected-failure namespace (every kind repro.faults may emit).
FAULT_KINDS = frozenset({
    FAULT_LOSS, FAULT_CORRUPT, FAULT_FLASH, FAULT_BROWNOUT, FAULT_OUTAGE,
    FAULT_HANG, FAULT_WORKER_CRASH, FAULT_WORKLOAD_HANG,
})

#: The campaign-service namespace (every kind repro.service may emit).
SERVICE_KINDS = frozenset({
    SERVICE_SUBMIT, SERVICE_ADMIT, SERVICE_REJECT, SERVICE_SHED,
    SERVICE_DISPATCH, SERVICE_PROGRESS, SERVICE_EXECUTE, SERVICE_RETRY,
    SERVICE_CACHE_HIT, SERVICE_COMPLETE, SERVICE_QUARANTINE,
    SERVICE_BREAKER_OPEN, SERVICE_BREAKER_HALF_OPEN, SERVICE_BREAKER_CLOSE,
})


def _reject(field: str, value: float) -> None:
    raise ConfigurationError(
        f"event {field} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SimEvent:
    """One ledger row: a typed state interval on the simulation timeline.

    Attributes:
        t_start_s: absolute simulation time the interval begins.
        duration_s: interval length (zero for instantaneous markers).
        kind: taxonomy tag, one of the module-level kind constants.
        component: which hardware block the interval belongs to
            (``"node_radio"``, ``"mcu"``, ``"fpga"``, ``"flash"``...).
        label: free-text detail (``"data seq=3"``, ``"lpm3"``...).
        power_w: power draw across the interval, if constant.
        energy_override_j: explicit energy for activities that are not
            constant-power integrals (takes precedence over ``power_w``).
        advanced: whether recording this event moved the shared clock
            (``False`` for concurrent/background activity and for
            events merged in from a sub-timeline).
    """

    t_start_s: float
    duration_s: float
    kind: str
    component: str
    label: str = ""
    power_w: float | None = None
    energy_override_j: float | None = None
    advanced: bool = True

    def __post_init__(self) -> None:
        # ``0 <= x < inf`` is False for NaN, so one chain rejects
        # negative, infinite and NaN values alike.
        if not 0.0 <= self.t_start_s < math.inf:
            _reject("t_start_s", self.t_start_s)
        if not 0.0 <= self.duration_s < math.inf:
            _reject("duration_s", self.duration_s)
        if self.power_w is not None and not 0.0 <= self.power_w < math.inf:
            _reject("power_w", self.power_w)
        if (self.energy_override_j is not None
                and not 0.0 <= self.energy_override_j < math.inf):
            _reject("energy_override_j", self.energy_override_j)
        if not self.kind:
            raise ConfigurationError("event kind must be non-empty")
        if not self.component:
            raise ConfigurationError("event component must be non-empty")

    @property
    def t_end_s(self) -> float:
        """Absolute simulation time the interval ends."""
        return self.t_start_s + self.duration_s

    @property
    def energy_j(self) -> float:
        """Energy the interval consumed (0 when no power is attributed)."""
        if self.energy_override_j is not None:
            return self.energy_override_j
        if self.power_w is None:
            return 0.0
        return self.power_w * self.duration_s

    def shifted(self, offset_s: float) -> "SimEvent":
        """A copy translated by ``offset_s``, marked as non-advancing."""
        return SimEvent(
            t_start_s=self.t_start_s + offset_s,
            duration_s=self.duration_s,
            kind=self.kind,
            component=self.component,
            label=self.label,
            power_w=self.power_w,
            energy_override_j=self.energy_override_j,
            advanced=False)
