"""Shared simulation timeline: one clock, one ledger, many views.

Every number the paper reports — the Fig. 14 OTA programming CDFs, the
Table 3 power breakdown, the Table 4 timings, the battery-lifetime
claims — is an integral over a timeline of radio/MCU/FPGA state
changes.  This package provides the single event-driven core those
integrals are computed on:

* :class:`~repro.sim.timeline.Timeline` — a monotonic simulation clock
  plus an append-only ledger of typed :class:`~repro.sim.events.SimEvent`
  records (radio mode switches, packet TX/RX/timeouts, MCU mode
  transitions, FPGA configuration, flash activity, sleep intervals),
  each carrying component, label, duration and power draw.
* :mod:`repro.sim.trace` — JSONL and Chrome ``trace_event`` exporters
  so a campaign can be inspected in a flame-graph viewer, plus the
  JSONL reader that round-trips a ledger.
* :mod:`repro.sim.stream` — fleet-scale aggregation: hierarchical
  :class:`~repro.sim.stream.TimelineRollup` aggregates and the
  bounded-memory :class:`~repro.sim.stream.StreamingLedgerWriter`
  JSONL spill, so a 100k-node campaign's ledger never has to
  materialize in RAM.

The protocol, MCU, FPGA, power and testbed layers all emit events into
a ``Timeline`` instead of keeping private ``clock +=`` accumulators;
their reports are views derived from the ledger (see the parity tests
in ``tests/test_sim_parity.py`` for the bit-exactness contract).
"""

from repro.sim.events import (
    CONTROL_RX,
    CONTROL_TX,
    FAULT_BROWNOUT,
    FAULT_CORRUPT,
    FAULT_FLASH,
    FAULT_HANG,
    FAULT_KINDS,
    FAULT_LOSS,
    FAULT_OUTAGE,
    FAULT_WORKER_CRASH,
    FAULT_WORKLOAD_HANG,
    FLASH_BUSY,
    FPGA_CONFIG,
    MCU_DECOMPRESS,
    MCU_MODE,
    MCU_RUN,
    METER_SEGMENT,
    OTA_CHECKPOINT,
    OTA_FAILURE,
    OTA_REQUEST,
    OTA_RESUME,
    OTA_RETRY_WAIT,
    OTA_ROLLBACK,
    OTA_SESSION,
    OTA_VERIFY,
    PACKET_DELIVERED,
    PACKET_RX,
    PACKET_TIMEOUT,
    PACKET_TX,
    RADIO_MODE,
    SCHEDULER_FIRE,
    SERVICE_ADMIT,
    SERVICE_BREAKER_CLOSE,
    SERVICE_BREAKER_HALF_OPEN,
    SERVICE_BREAKER_OPEN,
    SERVICE_CACHE_HIT,
    SERVICE_COMPLETE,
    SERVICE_DISPATCH,
    SERVICE_EXECUTE,
    SERVICE_KINDS,
    SERVICE_PROGRESS,
    SERVICE_QUARANTINE,
    SERVICE_REJECT,
    SERVICE_RETRY,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    SLEEP,
    WATCHDOG_RESET,
    SimEvent,
)
from repro.sim.stream import (
    RollupBin,
    StreamingLedgerWriter,
    TimelineRollup,
    read_jsonl_records,
)
from repro.sim.timeline import Timeline
from repro.sim.trace import (
    from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "CONTROL_RX",
    "CONTROL_TX",
    "FAULT_BROWNOUT",
    "FAULT_CORRUPT",
    "FAULT_FLASH",
    "FAULT_HANG",
    "FAULT_KINDS",
    "FAULT_LOSS",
    "FAULT_OUTAGE",
    "FAULT_WORKER_CRASH",
    "FAULT_WORKLOAD_HANG",
    "FLASH_BUSY",
    "FPGA_CONFIG",
    "MCU_DECOMPRESS",
    "MCU_MODE",
    "MCU_RUN",
    "METER_SEGMENT",
    "OTA_CHECKPOINT",
    "OTA_FAILURE",
    "OTA_REQUEST",
    "OTA_RESUME",
    "OTA_RETRY_WAIT",
    "OTA_ROLLBACK",
    "OTA_SESSION",
    "OTA_VERIFY",
    "PACKET_DELIVERED",
    "PACKET_RX",
    "PACKET_TIMEOUT",
    "PACKET_TX",
    "RADIO_MODE",
    "SCHEDULER_FIRE",
    "SERVICE_ADMIT",
    "SERVICE_BREAKER_CLOSE",
    "SERVICE_BREAKER_HALF_OPEN",
    "SERVICE_BREAKER_OPEN",
    "SERVICE_CACHE_HIT",
    "SERVICE_COMPLETE",
    "SERVICE_DISPATCH",
    "SERVICE_EXECUTE",
    "SERVICE_KINDS",
    "SERVICE_PROGRESS",
    "SERVICE_QUARANTINE",
    "SERVICE_REJECT",
    "SERVICE_RETRY",
    "SERVICE_SHED",
    "SERVICE_SUBMIT",
    "SLEEP",
    "WATCHDOG_RESET",
    "RollupBin",
    "SimEvent",
    "StreamingLedgerWriter",
    "Timeline",
    "TimelineRollup",
    "from_jsonl",
    "read_jsonl_records",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
