"""Service-layer fault models: worker crashes, workload hangs, torn writes.

The campaign service (:mod:`repro.service`) fails differently from a
node in the field: its workers crash mid-job, its workloads hang and
starve the queue, and the job journal it depends on for crash recovery
can itself be torn by the crash (a partially flushed last record).
These models subclass the same :class:`~repro.faults.models.FaultModel`
base as the OTA fault models - explicit keyword-only seeds and
order-independent per-job sub-streams - and :meth:`ServiceFaultPlan.bind`
yields a per-job :class:`JobFaults`, a
:class:`~repro.faults.plan.FaultInjector` emitting ``fault.*`` SimEvents
on the service timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultInjectionError
from repro.faults.models import FaultModel
from repro.faults.plan import FaultInjector
from repro.seeding import fold_seed
from repro.sim.events import FAULT_WORKER_CRASH, FAULT_WORKLOAD_HANG
from repro.sim.timeline import Timeline


@dataclass(frozen=True, kw_only=True)
class WorkerCrashModel(FaultModel):
    """A service worker dies mid-attempt (OOM kill, segfault, eviction).

    The supervisor notices via missed heartbeats and re-dispatches the
    job under its retry budget.

    Attributes:
        crash_prob: probability one execution attempt crashes the worker.
    """

    stream = "fault.worker_crash"
    probabilities = ("crash_prob",)

    crash_prob: float = 0.0


@dataclass(frozen=True, kw_only=True)
class WorkloadHangModel(FaultModel):
    """A workload wedges without exiting (deadlock, spin, stuck I/O).

    The worker process stays alive - heartbeats keep flowing - so only
    the per-job watchdog deadline catches it.

    Attributes:
        hang_prob: probability one execution attempt hangs.
    """

    stream = "fault.workload_hang"
    probabilities = ("hang_prob",)

    hang_prob: float = 0.0


@dataclass(frozen=True, kw_only=True)
class JournalTornWriteModel(FaultModel):
    """A crash tears the last journal record mid-flush.

    When the chaos harness kills the service at a journal append
    boundary, this model decides whether the record being appended made
    it to disk whole, partially (a torn tail the recovery path must
    drop), or - the ``keep == 0`` draw - not at all.

    Attributes:
        torn_prob: probability the crashed append leaves a torn tail.
    """

    stream = "fault.torn_write"
    probabilities = ("torn_prob",)

    torn_prob: float = 0.5

    def tear(self, seq: int, total_bytes: int) -> int | None:
        """How many bytes of record ``seq`` survive, or None for all.

        Returns a byte count in ``[0, total_bytes)`` when the tear
        fires (so at least the trailing newline is always lost), or
        ``None`` when the record was flushed whole before the crash.
        The draw stream is keyed by the record sequence number, so the
        outcome is independent of how the crash point was chosen.
        """
        if total_bytes <= 0:
            raise FaultInjectionError(
                f"total_bytes must be positive, got {total_bytes!r}")
        rng = self.start(seq)
        if rng.random() >= self.torn_prob:
            return None
        return int(rng.integers(0, total_bytes))


@dataclass(frozen=True, kw_only=True)
class ServiceFaultPlan:
    """Everything that will go wrong in one service session, fully seeded.

    Attributes:
        seed: plan-level randomness root, folded into every per-job
            stream (keyword-only, required).
        worker_crash: worker death mid-attempt, caught by heartbeats.
        workload_hang: wedged workloads, caught by the job watchdog.
        torn_write: torn journal tails at chaos crash points.
    """

    seed: int
    worker_crash: WorkerCrashModel | None = None
    workload_hang: WorkloadHangModel | None = None
    torn_write: JournalTornWriteModel | None = None

    def bind(self, job_id: int, label: str,
             timeline: Timeline | None = None) -> "JobFaults":
        """The stateful per-job injector for ``job_id``.

        Fault streams are functions of ``(plan seed, model seed, job
        id)`` only, so binding jobs in any order - or rebinding the same
        job during journal replay - reproduces identical fault draws.
        """
        return JobFaults(self, job_id=fold_seed(self.seed, job_id),
                         label=label, timeline=timeline)


class JobFaults(FaultInjector):
    """One job's fault processes, bound to the service timeline.

    The supervised execution loop polls the ``*_now`` hooks once per
    attempt; each hook draws from its own seeded stream and, when a
    fault fires, records the matching ``fault.*`` event.
    """

    def __init__(self, plan: ServiceFaultPlan, job_id: int, label: str,
                 timeline: Timeline | None = None) -> None:
        super().__init__(plan, timeline)
        self.job_id = job_id
        self.label = label
        self._crash_rng = (plan.worker_crash.start(job_id)
                           if plan.worker_crash else None)
        self._hang_rng = (plan.workload_hang.start(job_id)
                          if plan.workload_hang else None)

    def worker_crashes_now(self, attempt: int, dwell_s: float) -> bool:
        """Whether this attempt's worker dies before finishing.

        A firing records the supervisor's missed-heartbeat dwell
        ``dwell_s`` on the timeline - the span between the crash and
        the supervisor declaring the worker dead.
        """
        model = self.plan.worker_crash
        return model is not None and self._fires(
            self._crash_rng, model.crash_prob, FAULT_WORKER_CRASH,
            f"{self.label} worker crash (attempt {attempt})",
            duration_s=dwell_s)

    def workload_hangs_now(self, attempt: int) -> bool:
        """Whether this attempt's workload wedges without exiting.

        A zero-duration marker: the watchdog reset the service emits
        carries the detection dwell.
        """
        model = self.plan.workload_hang
        return model is not None and self._fires(
            self._hang_rng, model.hang_prob, FAULT_WORKLOAD_HANG,
            f"{self.label} workload hang (attempt {attempt})")
