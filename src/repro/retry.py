"""Bounded retransmission, shared by the OTA MAC and the campaign service.

The OTA stop-and-wait loop and the service supervisor back off with one
:class:`RetryPolicy`; this leaf imports neither of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.seeding import jittered, stream_rng

ACK_TIMEOUT_S = 0.25
"""Retransmission timeout after a missing ACK."""

MAX_ATTEMPTS_PER_PACKET = 50
"""Transmission rounds per OTA fragment before the transfer fails."""


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Bounded, configurable retransmission discipline for the ARQ loop.

    The default policy reproduces the historical behaviour bit-exactly:
    a fixed :data:`ACK_TIMEOUT_S` backoff, :data:`MAX_ATTEMPTS_PER_PACKET`
    rounds per fragment, no jitter (zero extra RNG draws) and no session
    deadline — so ``policy=None`` and ``policy=RetryPolicy()`` yield
    identical timelines.

    Attributes:
        max_attempts: transmission rounds per fragment before giving up.
        backoff: ``"fixed"`` (every timeout waits ``base_delay_s``) or
            ``"exponential"`` (doubles per attempt, capped at
            ``max_delay_s``).
        base_delay_s: first-retry timeout.
        max_delay_s: exponential-backoff ceiling.
        jitter_fraction: +/- fractional spread applied to each delay;
            non-zero jitter requires ``seed`` so the spread stays
            deterministic.
        session_deadline_s: wall-clock budget for one whole transfer;
            ``None`` means unbounded.
        seed: root for the jitter stream (independent of the link RNG).
    """

    max_attempts: int = MAX_ATTEMPTS_PER_PACKET
    backoff: str = "fixed"
    base_delay_s: float = ACK_TIMEOUT_S
    max_delay_s: float = 8.0
    jitter_fraction: float = 0.0
    session_deadline_s: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff not in ("fixed", "exponential"):
            raise ConfigurationError(
                f"backoff must be 'fixed' or 'exponential', "
                f"got {self.backoff!r}")
        # Chained comparisons are false for NaN, so the delay and
        # deadline checks also refuse every non-finite value.
        if not 0 < self.base_delay_s < math.inf:
            raise ConfigurationError(
                f"base_delay_s must be positive and finite, "
                f"got {self.base_delay_s!r}")
        if not self.base_delay_s <= self.max_delay_s < math.inf:
            raise ConfigurationError(
                f"max_delay_s must be finite and >= base_delay_s "
                f"({self.base_delay_s!r}), got {self.max_delay_s!r}")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError(
                f"jitter_fraction must be in [0, 1), "
                f"got {self.jitter_fraction!r}")
        if self.jitter_fraction > 0.0 and self.seed is None:
            raise ConfigurationError(
                "jittered backoff needs an explicit seed so delays stay "
                "deterministic")
        if self.session_deadline_s is not None \
                and not 0 < self.session_deadline_s < math.inf:
            raise ConfigurationError(
                "session_deadline_s must be positive and finite, got "
                f"{self.session_deadline_s!r}")

    def jitter_rng(self) -> np.random.Generator | None:
        """The dedicated jitter stream (``None`` when jitter is off)."""
        if self.jitter_fraction == 0.0:
            return None
        return stream_rng(self.seed, "ota.retry_jitter")

    def delay_s(self, attempt: int,
                jitter_rng: np.random.Generator | None = None) -> float:
        """Timeout dwell after a failed transmission round ``attempt``."""
        if self.backoff == "fixed":
            delay = self.base_delay_s
        else:
            delay = min(self.base_delay_s * float(2 ** attempt),
                        self.max_delay_s)
        return jittered(delay, self.jitter_fraction, jitter_rng)
