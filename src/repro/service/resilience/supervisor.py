"""Supervised worker model: deadlines, heartbeats, bounded retry.

The supervisor wraps every engine execution the service dispatches:

* a **heartbeat timeout** turns an injected worker crash into a bounded
  detection dwell (``heartbeat_timeout_s`` of virtual time between the
  crash and the worker being declared dead) instead of a lost session;
* a **watchdog reset** catches workloads that wedge without exiting
  (heartbeats keep flowing, progress does not) after
  ``watchdog_timeout_s``, and an optional per-job deadline kills an
  attempt whose cost would overrun it;
* a **bounded retry budget** — the OTA :class:`RetryPolicy` reused at
  the service layer, with a deterministic per-job jitter stream — backs
  transient strikes off without synchronized retry storms;
* **poison-job quarantine**: a job that strikes out lands in the
  terminal ``JOB_QUARANTINED`` state, never an infinite retry loop.

Crash/hang/deadline strikes are *transient* (retried); an engine
raising :class:`~repro.errors.ReproError` is *permanent* (the job is
deterministic — rerunning it fails identically) and fails the job
immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
# The MAC retry policy is scheduling machinery, not an engine entry
# point: reusing it keeps one backoff vocabulary across layers.
from repro.ota.mac import RetryPolicy
from repro.seeding import stream_rng


@dataclass(frozen=True, kw_only=True)
class SupervisorConfig:
    """Supervision policy for dispatched jobs.

    The default configuration is *passive*: a single attempt, no
    deadline, no jitter — with no fault plan bound, supervised
    execution is bit-identical to the unsupervised code path (the same
    ``policy=None`` contract the OTA retry layer honours).

    Attributes:
        policy: bounded retry budget and backoff for transient strikes
            (worker crash, workload hang, deadline overrun);
            ``max_attempts`` is the quarantine threshold.
        heartbeat_timeout_s: dwell before a crashed (silent) worker is
            declared dead.
        watchdog_timeout_s: dwell before a hung (alive-but-stuck)
            workload is reset.
        deadline_s: per-job virtual-time budget measured from dispatch;
            ``None`` means unbounded.
    """

    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=1))
    heartbeat_timeout_s: float = 5.0
    watchdog_timeout_s: float = 10.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so these also refuse
        # the non-finite values that would poison the virtual clock.
        if not 0 < self.heartbeat_timeout_s < math.inf:
            raise ConfigurationError(
                f"heartbeat_timeout_s must be positive and finite, "
                f"got {self.heartbeat_timeout_s!r}")
        if not 0 < self.watchdog_timeout_s < math.inf:
            raise ConfigurationError(
                f"watchdog_timeout_s must be positive and finite, "
                f"got {self.watchdog_timeout_s!r}")
        if self.deadline_s is not None \
                and not 0 < self.deadline_s < math.inf:
            raise ConfigurationError(
                f"deadline_s must be positive and finite, or None, "
                f"got {self.deadline_s!r}")


def job_jitter_rng(policy: RetryPolicy,
                   job_id: int) -> np.random.Generator | None:
    """The per-job backoff jitter stream (``None`` when jitter is off).

    Keyed by ``(policy seed, supervisor stream tag, job id)`` so delays
    are independent of dispatch order and replay bit-identically during
    journal recovery.
    """
    if policy.jitter_fraction == 0.0:
        return None
    return stream_rng(policy.seed, "service.supervisor_jitter", job_id)
