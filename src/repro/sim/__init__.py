"""Shared simulation timeline: one clock, one ledger, many views.

* :mod:`~repro.sim.timeline` — the monotonic clock and its append-only
  ledger, which every layer records onto;
* :mod:`~repro.sim.events` — the event record and the kinds it takes;
* :mod:`~repro.sim.stream` — fleet-scale rollups and the bounded-memory
  JSONL spill;
* :mod:`~repro.sim.trace` — JSONL and Chrome ``trace_event`` export.
"""
