"""Per-workload circuit breakers: fail fast when an engine is sick.

A breaker guards one workload *kind*.  Consecutive failures trip it
open; open breakers short-circuit dispatch (the job is rejected without
touching the engine, though the result cache still answers hits — the
degradation story); after a seeded-jittered cooldown the breaker goes
half-open and admits a single probe job whose outcome closes or
re-opens it.  All state runs on the service's virtual clock, and the
probe jitter draws from a per-kind ``service.breaker_jitter``
sub-stream (:func:`repro.seeding.stream_rng`) keyed by the breaker seed
and a hash of the kind name, so breaker behaviour is a pure function of
configuration and the dispatch history — replayable bit-exactly during
journal recovery.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.seeding import jittered, stream_rng

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


def _kind_index(kind: str) -> int:
    """A stable 64-bit stream index for a workload kind.

    Built from SHA-256 rather than ``hash()`` so the stream — and with
    it every probe-jitter draw — is identical across interpreter runs
    (``hash()`` is salted per process).
    """
    return int.from_bytes(
        hashlib.sha256(kind.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True, kw_only=True)
class BreakerConfig:
    """Circuit-breaker policy, shared by every per-kind breaker.

    Attributes:
        seed: root of the probe-jitter streams (keyword-only, required).
        failure_threshold: consecutive failures that trip a closed
            breaker open.
        open_duration_s: base cooldown before an open breaker admits a
            probe.
        probe_jitter_fraction: +/- fractional spread on the cooldown so
            recovered breakers do not probe in lockstep.
    """

    seed: int
    failure_threshold: int = 3
    open_duration_s: float = 30.0
    probe_jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}")
        if not 0 < self.open_duration_s < math.inf:
            raise ConfigurationError(
                f"open_duration_s must be positive and finite, "
                f"got {self.open_duration_s!r}")
        if not 0.0 <= self.probe_jitter_fraction < 1.0:
            raise ConfigurationError(
                f"probe_jitter_fraction must be in [0, 1), "
                f"got {self.probe_jitter_fraction!r}")


class CircuitBreaker:
    """The closed/open/half-open state machine for one workload kind.

    The three mutators return the transition they caused (``"open"``,
    ``"half_open"``, ``"close"`` or ``None``) so the service can emit
    the matching ``service.breaker.*`` ledger event.
    """

    def __init__(self, config: BreakerConfig, kind: str) -> None:
        self.config = config
        self.kind = kind
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.reopen_at_s: float | None = None
        self._rng = stream_rng(config.seed, "service.breaker_jitter",
                               _kind_index(kind))

    def allow(self, now_s: float) -> tuple[bool, str | None]:
        """Whether a dispatch may proceed at virtual time ``now_s``.

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits the caller as the probe.
        """
        if self.state == BREAKER_OPEN:
            if self.reopen_at_s is not None and now_s >= self.reopen_at_s:
                self.state = BREAKER_HALF_OPEN
                return True, "half_open"
            return False, None
        return True, None

    def record_success(self) -> str | None:
        """A guarded execution completed; closes a half-open breaker."""
        self.failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self.reopen_at_s = None
            return "close"
        return None

    def record_failure(self, now_s: float) -> str | None:
        """A guarded execution failed; may trip the breaker open.

        A failed half-open probe re-opens immediately; a closed breaker
        opens once ``failure_threshold`` consecutive failures accrue.
        The cooldown is jittered from the per-kind stream — the draw
        happens only when the breaker actually opens, keeping the
        stream aligned under journal replay.
        """
        self.failures += 1
        if (self.state == BREAKER_HALF_OPEN
                or self.failures >= self.config.failure_threshold):
            self.state = BREAKER_OPEN
            self.reopen_at_s = now_s + jittered(
                self.config.open_duration_s,
                self.config.probe_jitter_fraction, self._rng)
            self.failures = 0
            return "open"
        return None
