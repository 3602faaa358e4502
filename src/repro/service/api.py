"""The campaign service facade: submit, schedule, execute, stream.

:class:`CampaignService` is the testbed-as-a-service front door.  A
tenant submits a :class:`~repro.service.jobspec.JobSpec`; admission
(load shedding + quota + token bucket) happens at a seeded virtual
timestamp; admitted jobs wait in a priority queue; dispatch routes each
job through the content-addressed
:class:`~repro.service.cache.ResultCache`, the per-workload circuit
breakers and — only on a miss with a closed breaker — the supervised
execution loop around the
:class:`~repro.service.registry.WorkloadRegistry`.

Every decision is journaled twice: as a ``service.*`` event on one
:class:`repro.sim.timeline.Timeline` (the service's *only* clock — admission
overheads are seeded draws, execution spans are the deterministic
virtual costs the adapters report, and nothing ever reads wall time),
and, when a :class:`~repro.service.resilience.journal.JobJournal` is attached,
as a hash-chained write-ahead record on disk.  Determinism is what
makes the journal a *recovery log* rather than an audit trail:
:meth:`CampaignService.recover` re-drives the journaled prefix through
the normal code paths — every RNG draw, ledger event and admission
verdict regenerates bit-identically — substituting only the engine
invocations of journaled successful runs, so a crashed session resumes
with a ``service_session_fingerprint`` equal to an uninterrupted run's
(the ``make chaos-service`` contract).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError, JournalError, ReproError
from repro.faults.service import ServiceFaultPlan
from repro.perf.cache import CacheStats
from repro.seeding import job_rng
from repro.service.cache import DEFAULT_RESULT_CACHE_ENTRIES, ResultCache
from repro.service.jobspec import DEFAULT_TENANT, JobResult, JobSpec
from repro.service.queue import JobQueue
from repro.service.registry import UnknownWorkloadError, WorkloadRegistry
from repro.service.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.service.resilience.codec import decode_config, encode_config
from repro.service.resilience.journal import (
    RECORD_ADMIT,
    RECORD_COMPLETE,
    RECORD_DISPATCH,
    RECORD_FAIL,
    RECORD_OPEN,
    RECORD_QUARANTINE,
    RECORD_RECOVER,
    RECORD_REJECT,
    RECORD_SUBMIT,
    RECORD_TENANT,
    TERMINAL_RECORD_TYPES,
    JobJournal,
    JournalRecord,
    read_journal,
)
from repro.service.resilience.shedding import SheddingPolicy
from repro.service.resilience.supervisor import (
    SupervisorConfig,
    job_jitter_rng,
)
from repro.service.tenancy import TenantConfig, TenantState
from repro.service.workloads import default_registry
from repro.sim.events import (
    SERVICE_ADMIT,
    SERVICE_BREAKER_CLOSE,
    SERVICE_BREAKER_HALF_OPEN,
    SERVICE_BREAKER_OPEN,
    SERVICE_CACHE_HIT,
    SERVICE_COMPLETE,
    SERVICE_DISPATCH,
    SERVICE_EXECUTE,
    SERVICE_PROGRESS,
    SERVICE_QUARANTINE,
    SERVICE_REJECT,
    SERVICE_RETRY,
    SERVICE_SHED,
    SERVICE_SUBMIT,
    WATCHDOG_RESET,
    SimEvent,
)
from repro.sim.timeline import Timeline

SERVICE_COMPONENT = "service"
"""Timeline component every service.* ledger row is attributed to."""

ADMISSION_OVERHEAD_S = 1e-3
"""Mean virtual-time cost of processing one submission."""

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_COMPLETED = "completed"
JOB_REJECTED = "rejected"
JOB_FAILED = "failed"
JOB_QUARANTINED = "quarantined"

#: States a job can never leave (the chaos all-terminal invariant).
TERMINAL_STATES = frozenset({
    JOB_COMPLETED, JOB_REJECTED, JOB_FAILED, JOB_QUARANTINED,
})

#: The journal record type each terminal state is written as, and the
#: payload key carrying the job's detail (``None``: a completion carries
#: its result instead).
_TERMINAL_RECORDS = {
    JOB_COMPLETED: (RECORD_COMPLETE, None),
    JOB_REJECTED: (RECORD_REJECT, "reason"),
    JOB_FAILED: (RECORD_FAIL, "detail"),
    JOB_QUARANTINED: (RECORD_QUARANTINE, "detail"),
}

#: Replay audit of the detail-carrying terminal records: the state the
#: record implies and the payload key the job's detail must equal.
_DETAIL_AUDITS = {rtype: (state, key)
                  for state, (rtype, key) in _TERMINAL_RECORDS.items()
                  if key is not None}


@dataclass
class Job:
    """One submission's lifecycle record inside the service.

    Attributes:
        job_id: monotonically assigned submission sequence number (the
            deterministic FIFO tiebreaker within a priority band).
        spec: the submitted job specification.
        state: one of the ``JOB_*`` lifecycle constants.
        submitted_at_s: virtual time admission finished processing.
        started_at_s: virtual time the scheduler dispatched the job.
        completed_at_s: virtual time the job finished.
        result: the (possibly cache-served) result when completed.
        cache_hit: whether the result cache answered with zero engine
            recompute.
        detail: rejection, failure or quarantine reason, empty
            otherwise.
        attempts: supervised execution attempts made (0 for jobs the
            cache answered or admission refused).
        progress: milestone details the workload reported on its last
            attempt (journaled so recovery can re-emit them).
    """

    job_id: int
    spec: JobSpec
    state: str = JOB_QUEUED
    submitted_at_s: float = 0.0
    started_at_s: float | None = None
    completed_at_s: float | None = None
    result: JobResult | None = field(default=None, repr=False)
    cache_hit: bool = False
    detail: str = ""
    attempts: int = 0
    progress: tuple[str, ...] = field(default=(), repr=False)

    @property
    def label(self) -> str:
        """The ledger label prefix all this job's events carry."""
        return f"job{self.job_id}"


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of the service's counters, plan-cache-stats style.

    Attributes:
        submitted: jobs that entered admission.
        admitted: jobs that cleared shedding, quota and rate limits.
        rejected: jobs refused (admission, shedding or open breaker).
        completed: jobs finished (fresh runs plus cache hits).
        failed: jobs whose workload raised.
        quarantined: poison jobs that struck out of their retry budget.
        shed: rejections specifically due to overload shedding.
        cache_hits: completions served from the result cache.
        queue_depth: jobs currently awaiting dispatch.
        virtual_now_s: the service clock.
        cache: result-cache counters (same shape as plan-cache stats).
        invocations: per-kind engine invocation counters.
        tenants: per-tenant counter mappings.
    """

    submitted: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    quarantined: int
    shed: int
    cache_hits: int
    queue_depth: int
    virtual_now_s: float
    cache: CacheStats
    invocations: dict[str, int]
    tenants: dict[str, dict[str, int]]

    @property
    def cache_hit_ratio(self) -> float:
        """Completions served from cache (0 when nothing completed)."""
        return self.cache_hits / self.completed if self.completed else 0.0


class CampaignService:
    """Deterministic multi-tenant campaign scheduler.

    Args:
        registry: workload registry (defaults to the built-in adapters).
        tenants: extra tenant configurations; a permissive ``default``
            tenant is always present.
        cache_entries: result-cache capacity.
        seed: seeds the admission-overhead draws — the service's only
            session-level randomness, making the virtual clock a pure
            function of ``(seed, submission sequence)``.
        journal: write-ahead job journal for crash recovery; ``None``
            keeps the session in memory only.
        supervisor: supervision policy (deadline, heartbeats, retry
            budget); ``None`` means a passive single-attempt policy
            that is bit-identical to unsupervised execution.
        breakers: per-workload circuit-breaker policy; ``None``
            disables breakers.
        shedding: admission load-shedding policy; ``None`` disables
            shedding.
        faults: service-layer chaos plan (worker crashes, workload
            hangs); ``None`` injects nothing and draws nothing.
    """

    def __init__(self, registry: WorkloadRegistry | None = None,
                 tenants: tuple[TenantConfig, ...] = (),
                 cache_entries: int = DEFAULT_RESULT_CACHE_ENTRIES,
                 seed: int = 0,
                 journal: JobJournal | None = None,
                 supervisor: SupervisorConfig | None = None,
                 breakers: BreakerConfig | None = None,
                 shedding: SheddingPolicy | None = None,
                 faults: ServiceFaultPlan | None = None) -> None:
        self.registry = registry if registry is not None \
            else default_registry()
        self.timeline = Timeline()
        self.cache = ResultCache(max_entries=cache_entries,
                                 on_corruption=self._on_cache_corruption)
        self._queue = JobQueue()
        self._rng = job_rng(seed)
        self._jobs: dict[int, Job] = {}
        self._next_job_id = 1
        self._failed = 0
        self._shed = 0
        self._supervisor = (supervisor if supervisor is not None
                            else SupervisorConfig())
        self._breaker_config = breakers
        self._breakers: dict[str, CircuitBreaker] = {}
        self._shedding = shedding
        self._faults = faults
        self._replay_runs: dict[int, tuple[Any, float, tuple[str, ...]]] = {}
        self._tenants: dict[str, TenantState] = {}
        self._journal = journal
        if journal is not None:
            journal.append(RECORD_OPEN, {
                "seed": seed,
                "cache_entries": cache_entries,
                "supervisor": encode_config(supervisor),
                "breakers": encode_config(breakers),
                "shedding": encode_config(shedding),
                "faults": encode_config(faults),
            })
        self.add_tenant(TenantConfig(name=DEFAULT_TENANT,
                                     max_pending=1024,
                                     bucket_capacity=1024.0,
                                     refill_per_s=1024.0))
        for config in tenants:
            self.add_tenant(config)

    # -- tenancy -----------------------------------------------------------

    def add_tenant(self, config: TenantConfig) -> TenantState:
        """Register a tenant (replacing re-registers policy, not state).

        Raises:
            ConfigurationError: when the tenant already exists.
        """
        if config.name in self._tenants:
            raise ConfigurationError(
                f"tenant {config.name!r} already registered")
        state = TenantState(config, now_s=self.timeline.now_s)
        self._tenants[config.name] = state
        # The default tenant is implicit in every session (recovery
        # re-adds it unconditionally), so only explicit tenants are
        # journaled.
        if self._journal is not None and config.name != DEFAULT_TENANT:
            self._journal.append(RECORD_TENANT, encode_config(config))
        return state

    def tenant(self, name: str) -> TenantState:
        """The live state for ``name``.

        Raises:
            ConfigurationError: for an unknown tenant.
        """
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown tenant {name!r}; known: "
                f"{', '.join(sorted(self._tenants))}") from None

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job: journal, shed check, quota, rate limit, queue.

        Returns the job record either queued (``state == "queued"``) or
        rejected (``state == "rejected"`` with ``detail`` set).  The
        admission decision itself costs a seeded draw of virtual time,
        so ordering and rate-limit outcomes are replayable.  The
        write-ahead ``submit`` record lands before any state changes:
        a crash anywhere after it re-drives the whole submission.

        Raises:
            UnknownWorkloadError: when no adapter is registered for the
                spec's kind (a malformed spec, not an admission verdict).
            ConfigurationError: for an unknown tenant.
        """
        if spec.kind not in self.registry:
            raise UnknownWorkloadError(
                f"no workload registered for kind {spec.kind!r}; "
                f"known kinds: {', '.join(self.registry.kinds())}")
        tenant = self.tenant(spec.tenant)
        if self._journal is not None:
            self._journal.append(RECORD_SUBMIT, {
                "job_id": self._next_job_id, "spec": spec.canonical_text()})
        job = Job(job_id=self._next_job_id, spec=spec)
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        tenant.counters.submitted += 1
        overhead = float(
            self._rng.uniform(0.5, 1.5)) * ADMISSION_OVERHEAD_S
        self.timeline.record(
            SERVICE_SUBMIT, SERVICE_COMPONENT,
            label=(f"{job.label} submit kind={spec.kind} "
                   f"tenant={spec.tenant}"),
            duration_s=overhead)
        job.submitted_at_s = self.timeline.now_s
        if self._shedding is not None:
            reason = self._shedding.should_shed(
                len(self._queue), tenant.pending)
            if reason is not None:
                return self._reject(job, tenant, reason, shed=True)
        if not tenant.has_quota():
            return self._reject(
                job, tenant,
                f"tenant {spec.tenant!r} pending quota "
                f"({tenant.config.max_pending}) exhausted")
        if not tenant.bucket.try_take(self.timeline.now_s):
            return self._reject(
                job, tenant,
                f"tenant {spec.tenant!r} rate limit exceeded "
                f"(bucket empty)")
        tenant.pending += 1
        tenant.counters.admitted += 1
        self._queue.push(job)
        self.timeline.record(
            SERVICE_ADMIT, SERVICE_COMPONENT,
            label=f"{job.label} admit priority={spec.priority}")
        if self._journal is not None:
            self._journal.append(RECORD_ADMIT, {"job_id": job.job_id})
        return job

    def _reject(self, job: Job, tenant: TenantState, reason: str,
                shed: bool = False) -> Job:
        """Refuse a job at admission or, with an open breaker, at dispatch.

        ``shed`` marks an admission refusal at an overload high-water
        mark (a ``service.shed`` row instead of ``service.reject``).
        """
        tenant.counters.rejected += 1
        if shed:
            self._shed += 1
            return self._finish(job, tenant, JOB_REJECTED, SERVICE_SHED,
                                f"shed: {reason}", reason)
        return self._finish(job, tenant, JOB_REJECTED, SERVICE_REJECT,
                            f"reject: {reason}", reason)

    # -- scheduling --------------------------------------------------------

    def _breaker(self, kind: str) -> CircuitBreaker | None:
        """The lazily created breaker guarding ``kind`` (or ``None``)."""
        if self._breaker_config is None:
            return None
        breaker = self._breakers.get(kind)
        if breaker is None:
            breaker = CircuitBreaker(self._breaker_config, kind)
            self._breakers[kind] = breaker
        return breaker

    def run_next(self) -> Job | None:
        """Dispatch the most urgent queued job; ``None`` when idle."""
        if not self._queue:
            return None
        job = self._queue.pop()
        tenant = self.tenant(job.spec.tenant)
        if self._journal is not None:
            self._journal.append(RECORD_DISPATCH, {"job_id": job.job_id})
        job.state = JOB_RUNNING
        job.started_at_s = self.timeline.now_s
        self.timeline.record(
            SERVICE_DISPATCH, SERVICE_COMPONENT,
            label=f"{job.label} dispatch kind={job.spec.kind}")
        address = job.spec.content_address
        cached = self.cache.get(address)
        if cached is not None:
            job.result = cached
            job.cache_hit = True
            self.timeline.record(
                SERVICE_CACHE_HIT, SERVICE_COMPONENT,
                label=f"{job.label} cache hit {address[:12]}")
            return self._complete(job, tenant)
        breaker = self._breaker(job.spec.kind)
        if breaker is not None:
            allowed, transition = breaker.allow(self.timeline.now_s)
            self._emit_breaker_transition(job, transition, breaker)
            if not allowed:
                return self._reject(
                    job, tenant,
                    f"circuit breaker open for kind {job.spec.kind!r}")
        return self._execute_supervised(job, tenant, breaker, address)

    def _execute_supervised(self, job: Job, tenant: TenantState,
                            breaker: CircuitBreaker | None,
                            address: str) -> Job:
        """The supervised attempt loop: crash/hang/deadline aware.

        Each attempt first polls the per-job fault streams (a crashed
        or hung attempt never reaches the engine), then invokes the
        workload — or, during journal replay, substitutes the logged
        result — and finally checks the per-job deadline.  Transient
        strikes retry under the supervisor's
        :class:`~repro.retry.RetryPolicy` budget and then quarantine;
        a :class:`~repro.errors.ReproError` from the engine, or from a
        payload that is not canonical JSON, fails permanently (the job
        is deterministic — a rerun fails identically).
        """
        cfg = self._supervisor
        policy = cfg.policy
        faults = (self._faults.bind(job.job_id, job.label, self.timeline)
                  if self._faults is not None else None)
        jitter = job_jitter_rng(policy, job.job_id)
        strikes = 0
        while True:
            attempt = strikes + 1
            job.attempts = attempt
            reason: str | None = None
            if faults is not None and faults.worker_crashes_now(
                    attempt, cfg.heartbeat_timeout_s):
                reason = f"worker crashed (attempt {attempt})"
            elif faults is not None and faults.workload_hangs_now(attempt):
                self.timeline.record(
                    WATCHDOG_RESET, SERVICE_COMPONENT,
                    label=(f"{job.label} watchdog reset after "
                           f"{cfg.watchdog_timeout_s:g} s hang"),
                    duration_s=cfg.watchdog_timeout_s)
                reason = f"workload hung (attempt {attempt})"
            else:
                try:
                    result = self._run_attempt(job, address)
                except ReproError as exc:
                    return self._fail(job, tenant, exc, breaker)
                cost = result.virtual_cost_s
                if cfg.deadline_s is not None:
                    remaining = (job.started_at_s + cfg.deadline_s
                                 - self.timeline.now_s)
                    if cost > remaining:
                        self.timeline.record(
                            WATCHDOG_RESET, SERVICE_COMPONENT,
                            label=(f"{job.label} killed at deadline "
                                   f"{cfg.deadline_s:g} s "
                                   f"(attempt {attempt})"),
                            duration_s=max(remaining, 0.0))
                        reason = f"deadline exceeded (attempt {attempt})"
                if reason is None:
                    self._replay_runs.pop(job.job_id, None)
                    self.timeline.record(
                        SERVICE_EXECUTE, SERVICE_COMPONENT,
                        label=f"{job.label} execute kind={job.spec.kind}",
                        duration_s=cost)
                    job.result = result
                    self.cache.put(result)
                    if breaker is not None:
                        self._emit_breaker_transition(
                            job, breaker.record_success(), breaker)
                    return self._complete(job, tenant)
            strikes += 1
            if strikes >= policy.max_attempts:
                return self._quarantine(job, tenant, breaker, reason)
            delay = policy.delay_s(strikes - 1, jitter)
            self.timeline.record(
                SERVICE_RETRY, SERVICE_COMPONENT,
                label=(f"{job.label} retry {strikes + 1}/"
                       f"{policy.max_attempts} after {reason}"),
                duration_s=delay)

    def _run_attempt(self, job: Job, address: str) -> JobResult:
        """Invoke the workload, or replay its journaled run, as a result.

        Raises:
            ReproError: when the workload raises, or returns a payload
                or cost a :class:`JobResult` rejects.
        """
        replay = self._replay_runs.get(job.job_id)
        if replay is None:
            job.progress = ()
            payload, cost = self.registry.invoke(
                job.spec.kind, job.spec.config_mapping(), job.spec.seed,
                self._progress_emitter(job))
        else:
            payload, cost, progress = replay
            for detail in progress:
                self.timeline.record(
                    SERVICE_PROGRESS, SERVICE_COMPONENT,
                    label=f"{job.label} progress: {detail}",
                    advance=False)
            job.progress = tuple(progress)
            self.registry.count_replayed(job.spec.kind)
        return JobResult(address=address, kind=job.spec.kind,
                         seed=job.spec.seed, payload=payload,
                         virtual_cost_s=cost)

    def _emit_breaker_transition(self, job: Job, transition: str | None,
                                 breaker: CircuitBreaker) -> None:
        if transition == "open":
            self.timeline.record(
                SERVICE_BREAKER_OPEN, SERVICE_COMPONENT,
                label=(f"{job.label} breaker open kind={breaker.kind} "
                       f"until t={breaker.reopen_at_s:g} s"))
        elif transition == "close":
            self.timeline.record(
                SERVICE_BREAKER_CLOSE, SERVICE_COMPONENT,
                label=f"{job.label} breaker close kind={breaker.kind}")
        elif transition == "half_open":
            self.timeline.record(
                SERVICE_BREAKER_HALF_OPEN, SERVICE_COMPONENT,
                label=(f"{job.label} breaker half-open "
                       f"kind={breaker.kind} (probe)"))

    def _progress_emitter(self, job: Job):
        def emit(detail: str) -> None:
            self.timeline.record(
                SERVICE_PROGRESS, SERVICE_COMPONENT,
                label=f"{job.label} progress: {detail}",
                advance=False)
            job.progress = job.progress + (detail,)
        return emit

    def _complete(self, job: Job, tenant: TenantState) -> Job:
        tenant.counters.completed += 1
        if job.cache_hit:
            tenant.counters.cache_hits += 1
        return self._finish(
            job, tenant, JOB_COMPLETED, SERVICE_COMPLETE,
            f"complete {'cached' if job.cache_hit else 'computed'}")

    def _fail(self, job: Job, tenant: TenantState, exc: ReproError,
              breaker: CircuitBreaker | None) -> Job:
        """Terminal state for a job whose engine raised (permanent)."""
        self._failed += 1
        self._record_breaker_failure(job, breaker)
        detail = f"{type(exc).__name__}: {exc}"
        return self._finish(job, tenant, JOB_FAILED, SERVICE_COMPLETE,
                            f"failed: {detail}", detail)

    def _quarantine(self, job: Job, tenant: TenantState,
                    breaker: CircuitBreaker | None, reason: str) -> Job:
        """Terminal state for a poison job that struck out."""
        tenant.counters.quarantined += 1
        self._record_breaker_failure(job, breaker)
        return self._finish(
            job, tenant, JOB_QUARANTINED, SERVICE_QUARANTINE,
            f"quarantined: {reason}",
            f"quarantined after {job.attempts} strikes; "
            f"last strike: {reason}")

    def _record_breaker_failure(self, job: Job,
                                breaker: CircuitBreaker | None) -> None:
        if breaker is not None:
            self._emit_breaker_transition(
                job, breaker.record_failure(self.timeline.now_s), breaker)

    def _finish(self, job: Job, tenant: TenantState, state: str, kind: str,
                label: str, detail: str = "") -> Job:
        """The one terminal transition every finished job goes through.

        Sets the job's state and detail; a dispatched job also frees its
        tenant's pending slot and is stamped ``completed_at_s``.  Then
        the ``kind`` ledger row, then the journal record.
        """
        job.state = state
        job.detail = detail
        if job.started_at_s is not None:
            tenant.pending -= 1
            job.completed_at_s = self.timeline.now_s
        self.timeline.record(kind, SERVICE_COMPONENT,
                             label=f"{job.label} {label}")
        self._journal_terminal(job)
        return job

    def _journal_terminal(self, job: Job) -> None:
        """Journal ``job``'s terminal outcome (no-op without a journal)."""
        if self._journal is None:
            return
        rtype, detail_key = _TERMINAL_RECORDS[job.state]
        payload: dict[str, Any] = {"job_id": job.job_id}
        if detail_key is None:
            payload.update(cache_hit=job.cache_hit,
                           result=job.result.canonical_text(),
                           progress=list(job.progress))
        else:
            payload[detail_key] = job.detail
        self._journal.append(rtype, payload)

    def _on_cache_corruption(self, address: str) -> None:
        """Ledger hook for a cache entry that failed re-verification."""
        self.timeline.record(
            SERVICE_CACHE_HIT, SERVICE_COMPONENT,
            label=f"cache corruption: evicted {address[:12]}",
            advance=False)

    def run_until_idle(self) -> list[Job]:
        """Drain the queue; returns the jobs finished by this call."""
        finished: list[Job] = []
        while True:
            job = self.run_next()
            if job is None:
                return finished
            finished.append(job)

    def submit_and_run(self, spec: JobSpec) -> Job:
        """Submit one job and drain the queue (the thin-client path).

        The returned job is completed, failed, rejected or quarantined
        — never left queued.
        """
        job = self.submit(spec)
        if job.state == JOB_QUEUED:
            self.run_until_idle()
        return job

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(cls, journal_path: str,
                registry: WorkloadRegistry | None = None
                ) -> "CampaignService":
        """Resume a crashed session from its write-ahead journal.

        Reads and chain-verifies the journal (dropping a torn tail),
        rebuilds the service from the ``open`` record's configuration,
        and re-drives every journaled transition through the normal
        code paths — regenerating all RNG draws, ledger events and
        verdicts bit-identically — while substituting the engine
        invocations of journaled successful runs from their logged
        results.  In-flight jobs (a ``dispatch`` intent without a
        terminal outcome) re-execute live; jobs whose terminal record
        was lost get it re-appended; then the journal chain resumes
        with a ``recover`` marker.

        Args:
            journal_path: the crashed session's journal file.
            registry: the same workload registry the session ran with
                (registries are code, not data — the journal cannot
                carry them); defaults to the built-in adapters.

        Raises:
            JournalError: for a corrupt journal or a replay that
                diverges from the journaled history.
        """
        read_result = read_journal(journal_path)
        records = read_result.records
        if not records or records[0].type != RECORD_OPEN:
            raise JournalError(
                f"journal {journal_path!r} has no open record; "
                f"nothing to recover")
        opened = records[0].payload
        for key in ("seed", "cache_entries"):
            if key not in opened:
                raise JournalError(
                    f"journal open record is missing the {key!r} field")
        with _decoding(records[0]):
            service = cls(
                registry=registry,
                cache_entries=opened["cache_entries"],
                seed=opened["seed"],
                supervisor=decode_config(SupervisorConfig | None,
                                         opened.get("supervisor")),
                breakers=decode_config(BreakerConfig | None,
                                       opened.get("breakers")),
                shedding=decode_config(SheddingPolicy | None,
                                       opened.get("shedding")),
                faults=decode_config(ServiceFaultPlan | None,
                                     opened.get("faults")))
        journaled_terminals: set[int] = set()
        for record in records:
            if record.type not in TERMINAL_RECORD_TYPES:
                continue
            job_id = record.payload.get("job_id")
            if not isinstance(job_id, int):
                raise JournalError(
                    f"journal {record.type} record {record.seq} has no "
                    f"integer job_id")
            journaled_terminals.add(job_id)
            if (record.type == RECORD_COMPLETE
                    and not record.payload.get("cache_hit", False)):
                result = _journaled_result(record)
                progress = tuple(record.payload.get("progress") or ())
                service._replay_runs[job_id] = (
                    result.payload_mapping(), result.virtual_cost_s,
                    progress)
        for record in records[1:]:
            service._replay_record(record)
        service._replay_runs.clear()
        journal = JobJournal.resume(journal_path)
        service._journal = journal
        journal.append(RECORD_RECOVER, {
            "resumed_at_seq": len(records),
            "torn_tail": read_result.torn_tail})
        for job in service.jobs():
            if (job.state in TERMINAL_STATES
                    and job.job_id not in journaled_terminals):
                service._journal_terminal(job)
        return service

    def _replay_record(self, record: JournalRecord) -> None:
        """Re-drive one journaled transition, verifying audit records.

        Raises:
            JournalError: when the replayed state diverges from what
                the journal recorded (a corrupt or foreign journal).
        """
        rtype = record.type
        payload = record.payload
        if rtype == RECORD_TENANT:
            with _decoding(record):
                config = decode_config(TenantConfig, payload)
            self.add_tenant(config)
            return
        if rtype == RECORD_RECOVER:
            return
        job_id = payload.get("job_id")
        if not isinstance(job_id, int):
            raise JournalError(
                f"journal {rtype} record {record.seq} has no integer "
                f"job_id")
        if rtype == RECORD_SUBMIT:
            with _decoding(record):
                spec = decode_config(JobSpec, payload.get("spec"))
            job = self.submit(spec)
            if job.job_id != job_id:
                raise JournalError(
                    f"replay diverged: submit record {record.seq} "
                    f"expected job {job_id}, produced job {job.job_id}")
            return
        if rtype == RECORD_DISPATCH:
            job = self.run_next()
            if job is None or job.job_id != job_id:
                got = "idle queue" if job is None else f"job {job.job_id}"
                raise JournalError(
                    f"replay diverged: dispatch record {record.seq} "
                    f"expected job {job_id}, got {got}")
            return
        job = self._jobs.get(job_id)
        if job is None:
            raise JournalError(
                f"journal {rtype} record {record.seq} references "
                f"unknown job {job_id}")
        if rtype == RECORD_ADMIT:
            if job.state != JOB_QUEUED:
                raise JournalError(
                    f"replay diverged: admit record {record.seq} but "
                    f"job {job_id} is {job.state!r}")
            return
        if rtype in _DETAIL_AUDITS:
            state, key = _DETAIL_AUDITS[rtype]
            if job.state != state or job.detail != payload.get(key):
                raise JournalError(
                    f"replay diverged: {rtype} record {record.seq} but "
                    f"job {job_id} is {job.state!r} "
                    f"({job.detail!r} != {payload.get(key)!r})")
            return
        if rtype == RECORD_COMPLETE:
            mismatch = (job.state != JOB_COMPLETED
                        or job.cache_hit != payload.get("cache_hit")
                        or job.result is None
                        or job.result.fingerprint()
                        != _journaled_result(record).fingerprint())
            if mismatch:
                raise JournalError(
                    f"replay diverged: complete record {record.seq} "
                    f"does not match job {job_id} "
                    f"(state {job.state!r}, cache_hit {job.cache_hit})")
            return
        raise JournalError(
            f"journal record {record.seq} has unreplayable type {rtype!r}")

    # -- introspection -----------------------------------------------------

    def job(self, job_id: int) -> Job:
        """The lifecycle record for ``job_id``.

        Raises:
            ConfigurationError: for an unknown job id.
        """
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown job id {job_id}") from None

    def jobs(self) -> tuple[Job, ...]:
        """Every job this service has seen, in submission order."""
        return tuple(self._jobs[job_id]
                     for job_id in sorted(self._jobs))

    def job_events(self, job_id: int) -> tuple[SimEvent, ...]:
        """The job's progress ledger: its ``service.*`` event stream."""
        prefix = f"job{self.job(job_id).job_id} "
        return tuple(event for event in self.timeline
                     if event.label.startswith(prefix))

    def stats(self) -> ServiceStats:
        """Counters snapshot across admission, cache and execution."""
        tenants = {name: state.counters.as_dict()
                   for name, state in sorted(self._tenants.items())}
        totals = {key: sum(counters[key] for counters in tenants.values())
                  for key in ("submitted", "admitted", "rejected",
                              "completed", "cache_hits", "quarantined")}
        return ServiceStats(
            submitted=totals["submitted"],
            admitted=totals["admitted"],
            rejected=totals["rejected"],
            completed=totals["completed"],
            failed=self._failed,
            quarantined=totals["quarantined"],
            shed=self._shed,
            cache_hits=totals["cache_hits"],
            queue_depth=len(self._queue),
            virtual_now_s=self.timeline.now_s,
            cache=self.cache.stats(),
            invocations=self.registry.invocation_counts(),
            tenants=tenants)


@contextmanager
def _decoding(record: JournalRecord) -> Iterator[None]:
    """Re-raise any error decoding ``record`` as a JournalError naming it.

    A chain-valid journal can still carry values this code version
    cannot rebuild (another version's format, or hand-edited records);
    recovery reports that as a journal fault, never as a constructor's
    own error type.
    """
    try:
        yield
    except (ReproError, TypeError, ValueError) as exc:
        raise JournalError(
            f"journal {record.type} record {record.seq} cannot be "
            f"decoded: {type(exc).__name__}: {exc}") from exc


def _journaled_result(record: JournalRecord) -> JobResult:
    """The job result a ``complete`` record carries."""
    with _decoding(record):
        return decode_config(JobResult, record.payload.get("result"))
