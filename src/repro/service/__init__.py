"""Testbed-as-a-service: the multi-tenant campaign service.

The service turns the repo's engines (OTA campaigns, fleet sharding,
link-layer sweeps, LoRaWAN ADR) into schedulable workloads behind one
front door:

* :mod:`repro.service.jobspec` — typed job specs/results with a
  canonical serialization and a SHA-256 content address;
* :mod:`repro.service.cache` — the content-addressed result cache
  (identical seeded jobs dedupe with zero engine recompute);
* :mod:`repro.service.tenancy` — per-tenant quotas and token buckets;
* :mod:`repro.service.queue` — the deterministic priority queue;
* :mod:`repro.service.registry` / :mod:`repro.service.workloads` —
  the one door to the engines and the adapters behind it (the pinned
  service digests count every engine invocation through it);
* :mod:`repro.service.api` — :class:`CampaignService`, the virtual-time
  scheduler tying it all together on a :class:`repro.sim.Timeline`;
* :mod:`repro.service.resilience` — crash recovery (the write-ahead
  job journal), supervised workers, circuit breakers and load shedding.
"""

from repro.service.api import (
    ADMISSION_OVERHEAD_S,
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUARANTINED,
    JOB_QUEUED,
    JOB_REJECTED,
    JOB_RUNNING,
    TERMINAL_STATES,
    CampaignService,
    Job,
    ServiceStats,
)
from repro.service.cache import DEFAULT_RESULT_CACHE_ENTRIES, ResultCache
from repro.service.jobspec import (
    DEFAULT_TENANT,
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    JobResult,
    JobSpec,
    canonical_json,
    content_address,
)
from repro.service.queue import JobQueue
from repro.service.registry import (
    UnknownWorkloadError,
    WorkloadRegistry,
)
from repro.service.resilience import (
    BreakerConfig,
    CircuitBreaker,
    CrashPlan,
    JobJournal,
    SheddingPolicy,
    SupervisorConfig,
    read_journal,
)
from repro.service.tenancy import (
    TenantConfig,
    TenantCounters,
    TenantState,
    TokenBucket,
)
from repro.service.workloads import BUILTIN_WORKLOADS, default_registry

__all__ = [
    "ADMISSION_OVERHEAD_S",
    "BUILTIN_WORKLOADS",
    "DEFAULT_RESULT_CACHE_ENTRIES",
    "DEFAULT_TENANT",
    "JOB_COMPLETED",
    "JOB_FAILED",
    "JOB_QUARANTINED",
    "JOB_QUEUED",
    "JOB_REJECTED",
    "JOB_RUNNING",
    "PRIORITY_BATCH",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "TERMINAL_STATES",
    "BreakerConfig",
    "CampaignService",
    "CircuitBreaker",
    "CrashPlan",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "ServiceStats",
    "SheddingPolicy",
    "SupervisorConfig",
    "TenantConfig",
    "TenantCounters",
    "TenantState",
    "TokenBucket",
    "UnknownWorkloadError",
    "WorkloadRegistry",
    "canonical_json",
    "content_address",
    "default_registry",
]
