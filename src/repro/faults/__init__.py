"""Deterministic fault injection for the OTA robustness harness.

The package splits cleanly into *what can go wrong* and *doing it*:

* :mod:`repro.faults.models` — :class:`FaultModel`, the frozen, seeded
  base every fault model subclasses, and the node-level models
  (Gilbert-Elliott burst loss, bit corruption, flash page faults,
  brownouts, AP outages, MCU hangs).
* :mod:`repro.faults.plan` — :class:`FaultPlan` bundles models for a
  campaign; :meth:`FaultPlan.bind` yields a per-node :class:`NodeFaults`
  injector whose hooks the hardened OTA pipeline polls, emitting a
  ``fault.*`` :class:`~repro.sim.SimEvent` for every injected failure.
* :mod:`repro.faults.service` — service-layer chaos for the campaign
  service: worker crashes, workload hangs, and torn journal writes,
  bundled by :class:`ServiceFaultPlan` into per-job :class:`JobFaults`
  injectors.  ``NodeFaults`` and ``JobFaults`` share one injector base.

Flash faults act through :class:`repro.ota.flash.FaultyFlash`, beside
the flash model it subclasses: this package imports only
:mod:`repro.errors`, :mod:`repro.seeding` and :mod:`repro.sim`.

Reproducibility contract: every model takes an explicit keyword-only
``seed`` with no default (``tests/test_faults.py`` checks every
subclass of :class:`FaultModel`), fault streams are independent
:func:`repro.seeding.stream_rng` sub-streams, both plans bind a subject
through :func:`repro.seeding.fold_seed`, and a plan with the same seed
injects bit-identical fault sequences regardless of node iteration
order.  With ``faults=None`` the pipeline makes no fault draws
at all, so default-path results stay bit-identical to the unhardened
code (the ``tests/test_sim_parity.py`` contract).
"""

from repro.faults.models import (
    ApOutageModel,
    BrownoutModel,
    BurstLossProcess,
    CorruptionModel,
    FaultModel,
    FlashFaultModel,
    GilbertElliott,
    HangModel,
)
from repro.faults.plan import FaultPlan, NodeFaults
from repro.faults.service import (
    JobFaults,
    JournalTornWriteModel,
    ServiceFaultPlan,
    WorkerCrashModel,
    WorkloadHangModel,
)

__all__ = [
    "ApOutageModel",
    "BrownoutModel",
    "BurstLossProcess",
    "CorruptionModel",
    "FaultModel",
    "FaultPlan",
    "FlashFaultModel",
    "GilbertElliott",
    "HangModel",
    "JobFaults",
    "JournalTornWriteModel",
    "NodeFaults",
    "ServiceFaultPlan",
    "WorkerCrashModel",
    "WorkloadHangModel",
]
