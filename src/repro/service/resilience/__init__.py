"""Crash recovery and graceful degradation for the campaign service.

* :mod:`~repro.service.resilience.journal` — the write-ahead,
  hash-chained JSONL job journal and the chaos crash plan;
* :mod:`~repro.service.resilience.codec` — the journal's JSON codecs;
* :mod:`~repro.service.resilience.supervisor` — deadlines, bounded
  retry and poison-job quarantine;
* :mod:`~repro.service.resilience.breaker` — per-workload circuit
  breakers;
* :mod:`~repro.service.resilience.shedding` — admission load shedding.
"""
