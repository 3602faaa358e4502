"""Deterministic fault injection for the OTA robustness harness.

* :mod:`~repro.faults.models` — ``FaultModel``, the frozen, seeded base
  every fault model subclasses, and the node-level models;
* :mod:`~repro.faults.plan` — the campaign ``FaultPlan`` and the
  per-node injector whose hooks the hardened OTA pipeline polls;
* :mod:`~repro.faults.service` — the service-level models and plan.

Every model takes an explicit ``seed`` and draws from its own
:func:`repro.seeding.stream_rng` sub-stream; with ``faults=None`` the
pipeline makes no fault draw at all.
"""
