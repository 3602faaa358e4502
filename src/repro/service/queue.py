"""Deterministic priority job queue.

A binary heap ordered by ``(priority, submission sequence)``: lower
priority values dispatch first, and jobs of equal priority dispatch in
exact admission order.  The tiebreaker makes heap order total, so pop
order is a pure function of the push sequence — no identity hashing,
no insertion-order hash-map effects, nothing the pinned determinism
run could catch varying across hash seeds.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.service.api import Job


class JobQueue:
    """Priority queue of admitted jobs awaiting dispatch."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, "Job"]] = []

    def push(self, job: "Job") -> None:
        """Enqueue an admitted job under its spec's priority band."""
        heapq.heappush(self._heap, (job.spec.priority, job.job_id, job))

    def pop(self) -> "Job":
        """Dequeue the most urgent job (FIFO within a priority band).

        Raises:
            ConfigurationError: when the queue is empty.
        """
        if not self._heap:
            raise ConfigurationError("job queue is empty")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
