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
* :mod:`repro.faults.hardware` — :class:`FaultyFlash`, an MX25R6435F
  whose page programs occasionally fail or leave stuck bits.
* :mod:`repro.faults.service` — service-layer chaos for the campaign
  service: worker crashes, workload hangs, and torn journal writes,
  bundled by :class:`ServiceFaultPlan` into per-job :class:`JobFaults`
  injectors.  ``NodeFaults`` and ``JobFaults`` share one injector base.

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

# Last: hardware transitively imports repro.ota, which imports the plan
# and model names above right back out of this package.
from repro.faults.hardware import FaultyFlash

__all__ = [
    "ApOutageModel",
    "BrownoutModel",
    "BurstLossProcess",
    "CorruptionModel",
    "FaultModel",
    "FaultPlan",
    "FaultyFlash",
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
