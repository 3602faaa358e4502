"""The workload registry: the one sanctioned door to the engines.

Every computation the service can run is an adapter registered here by
kind.  Code in :mod:`repro.service` and the CLI reaches engines
*through* ``WorkloadRegistry.invoke`` (whose adapters live in
:mod:`repro.service.workloads`), never by calling
:meth:`repro.ota.ap.AccessPoint.run_campaign` and friends directly.  The
pinned service and resilient-session digests
(``tests/test_determinism_pins.py``) hold that boundary: they hash the
per-kind invocation counters and every job's result, so an engine
called around the registry moves them.

Invocations are counted per kind, which is how the tests assert the
result cache's zero-recompute property: resubmitting an identical
seeded spec must leave the counter unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError, ReproError

ProgressEmit = Callable[[str], None]
"""Adapter progress callback: one milestone label per call."""

WorkloadRunner = Callable[[Mapping[str, Any], int, ProgressEmit],
                          tuple[Any, float]]
"""An adapter: ``(config, seed, emit) -> (payload, virtual_cost_s)``.

The payload must be JSON-able (it is canonicalized into the
:class:`~repro.service.jobspec.JobResult`); the virtual cost is the
deterministic span the scheduler charges the virtual clock for the
execution.
"""


class UnknownWorkloadError(ReproError):
    """A job named a workload kind no adapter is registered for."""


class WorkloadRegistry:
    """Mapping of workload kinds to adapters, with invocation counters."""

    def __init__(self) -> None:
        self._runners: dict[str, WorkloadRunner] = {}
        self._invocations: dict[str, int] = {}

    def register(self, kind: str, runner: WorkloadRunner,
                 replace: bool = False) -> WorkloadRunner:
        """Register ``runner`` under ``kind``.

        Raises:
            ConfigurationError: for an empty kind, or a duplicate
                registration without ``replace=True``.
        """
        if not kind:
            raise ConfigurationError("workload kind must be non-empty")
        if kind in self._runners and not replace:
            raise ConfigurationError(
                f"workload {kind!r} is already registered; "
                f"pass replace=True to override")
        self._runners[kind] = runner
        self._invocations.setdefault(kind, 0)
        return runner

    def kinds(self) -> tuple[str, ...]:
        """Registered workload kinds, sorted for stable display."""
        return tuple(sorted(self._runners))

    def __contains__(self, kind: str) -> bool:
        return kind in self._runners

    def invoke(self, kind: str, config: Mapping[str, Any], seed: int,
               emit: ProgressEmit) -> tuple[Any, float]:
        """Run the adapter for ``kind`` and count the invocation.

        Raises:
            UnknownWorkloadError: for an unregistered kind.
        """
        try:
            runner = self._runners[kind]
        except KeyError:
            raise UnknownWorkloadError(
                f"no workload registered for kind {kind!r}; "
                f"known kinds: {', '.join(self.kinds()) or '(none)'}"
            ) from None
        self._invocations[kind] += 1
        return runner(config, seed, emit)

    def count_replayed(self, kind: str) -> None:
        """Count a journal-replayed run without executing the adapter.

        Crash recovery substitutes journaled results for engine
        invocations; bumping the counter keeps the per-kind totals —
        and everything fingerprinted from them — identical to the
        uninterrupted session's.

        Raises:
            UnknownWorkloadError: for an unregistered kind.
        """
        if kind not in self._runners:
            raise UnknownWorkloadError(
                f"no workload registered for kind {kind!r}; "
                f"known kinds: {', '.join(self.kinds()) or '(none)'}")
        self._invocations[kind] += 1

    def invocations(self, kind: str | None = None) -> int:
        """Engine runs so far, for one kind or in total."""
        if kind is not None:
            return self._invocations.get(kind, 0)
        return sum(self._invocations.values())

    def invocation_counts(self) -> dict[str, int]:
        """Per-kind invocation counters, key-sorted."""
        return {kind: self._invocations[kind]
                for kind in sorted(self._invocations)}
