"""Per-tenant admission control: quotas and token-bucket rate limits.

A testbed serves users who do not own the nodes (the paper's whole
premise), so one tenant must not be able to starve the fleet.  Two
deterministic mechanisms gate admission, both driven purely by the
service's *virtual* clock — no wall time anywhere, so the same
submission sequence always admits and rejects the same jobs:

* a **pending quota**: at most ``max_pending`` of a tenant's jobs may
  sit queued at once (completed/rejected jobs free their slot);
* a **token bucket**: each admission spends one token; tokens refill at
  ``refill_per_s`` per virtual second up to ``bucket_capacity``, so
  bursts are bounded while sustained virtual-time throughput converges
  to the refill rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TenantConfig:
    """Admission policy for one tenant.

    Attributes:
        name: tenant identifier jobs route by.
        max_pending: jobs allowed in the queue at once.
        bucket_capacity: maximum banked admission tokens (burst size).
        refill_per_s: tokens regained per virtual second.
    """

    name: str
    max_pending: int = 64
    bucket_capacity: float = 16.0
    refill_per_s: float = 4.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}")
        # Chained comparisons are false for NaN, so these also refuse
        # non-finite values (a NaN bucket rejects every submission).
        if not 1.0 <= self.bucket_capacity < math.inf:
            raise ConfigurationError(
                f"bucket_capacity must be >= 1 and finite, "
                f"got {self.bucket_capacity!r}")
        if not 0.0 < self.refill_per_s < math.inf:
            raise ConfigurationError(
                f"refill_per_s must be positive and finite, "
                f"got {self.refill_per_s!r}")


class TokenBucket:
    """Deterministic token bucket over virtual time.

    The bucket never reads a clock itself: callers pass the service's
    virtual ``now_s`` into :meth:`try_take`, which first credits the
    elapsed refill and then spends one token if available.
    """

    def __init__(self, capacity: float, refill_per_s: float,
                 now_s: float = 0.0) -> None:
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self.tokens = capacity
        self._last_refill_s = now_s

    def _refill(self, now_s: float) -> None:
        if now_s < self._last_refill_s:
            raise ConfigurationError(
                f"virtual time moved backwards: {now_s!r} < "
                f"{self._last_refill_s!r}")
        self.tokens = min(
            self.capacity,
            self.tokens + (now_s - self._last_refill_s) * self.refill_per_s)
        self._last_refill_s = now_s

    def try_take(self, now_s: float) -> bool:
        """Spend one token at virtual time ``now_s`` if one is banked."""
        self._refill(now_s)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def peek(self, now_s: float) -> float:
        """Tokens available at ``now_s`` without spending any."""
        self._refill(now_s)
        return self.tokens


@dataclass
class TenantCounters:
    """Running totals of one tenant's interaction with the service."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    cache_hits: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"submitted": self.submitted, "admitted": self.admitted,
                "rejected": self.rejected, "completed": self.completed,
                "cache_hits": self.cache_hits,
                "quarantined": self.quarantined}


class TenantState:
    """One tenant's live admission state inside the service."""

    def __init__(self, config: TenantConfig, now_s: float = 0.0) -> None:
        self.config = config
        self.bucket = TokenBucket(config.bucket_capacity,
                                  config.refill_per_s, now_s)
        self.counters = TenantCounters()
        self.pending = 0

    def has_quota(self) -> bool:
        """Whether another job fits under the pending quota."""
        return self.pending < self.config.max_pending
