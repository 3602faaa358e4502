"""The shared simulation timeline: monotonic clock + append-only ledger.

A :class:`Timeline` is the one place simulated time and energy advance.
Components call :meth:`Timeline.record` to log a typed interval; by
default the record also moves the clock forward, which is how the
stop-and-wait OTA loop, the MCU duty cycle and the FPGA boot all share
one notion of "now".  Concurrent activity (flash programming under a
radio transfer, merged sub-session traces) is recorded with
``advance=False`` and an explicit start time.

Views never mutate the ledger: time and energy totals are *replayed*
from the events in append order, which makes the derived sums
bit-identical to the sequential ``+=`` accumulators they replaced (see
``tests/test_sim_parity.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.sim.events import SimEvent


class Timeline:
    """Monotonic sim clock plus an append-only ledger of typed events.

    Attributes:
        now_s: current simulation time.  Moves forward via advancing
            :meth:`record` calls and :meth:`advance_to`; never backwards.
    """

    def __init__(self) -> None:
        self.now_s = 0.0
        self._events: list[SimEvent] = []

    # -- ledger ------------------------------------------------------------

    def record(self, kind: str, component: str, label: str = "",
               duration_s: float = 0.0, power_w: float | None = None,
               energy_override_j: float | None = None,
               advance: bool = True,
               t_start_s: float | None = None) -> SimEvent:
        """Append one event; advancing events also move the clock.

        Args:
            kind: taxonomy tag (see :mod:`repro.sim.events`).
            component: owning hardware block.
            label: free-text detail.
            duration_s: interval length (>= 0).
            power_w: constant power across the interval, if known.
            energy_override_j: explicit energy for non-constant-power
                activity.
            advance: move ``now_s`` forward by ``duration_s``.  Must be
                ``False`` when ``t_start_s`` is given.
            t_start_s: explicit start for concurrent/out-of-band events;
                defaults to ``now_s``.

        Raises:
            ConfigurationError: for a negative, infinite or NaN start,
                duration, power or energy, or an advancing event with an
                explicit start time.
        """
        if t_start_s is not None and advance:
            raise ConfigurationError(
                "events with an explicit start time cannot advance the "
                "clock; pass advance=False")
        start = self.now_s if t_start_s is None else t_start_s
        event = SimEvent(
            t_start_s=start, duration_s=duration_s, kind=kind,
            component=component, label=label, power_w=power_w,
            energy_override_j=energy_override_j, advanced=advance)
        self._append(event)
        if advance:
            self.now_s += event.duration_s
        return event

    def advance_to(self, time_s: float) -> None:
        """Jump the clock forward to an absolute time (no ledger entry).

        Raises:
            ConfigurationError: when ``time_s`` is in the past, infinite
                or NaN.
        """
        if not self.now_s <= time_s < math.inf:
            raise ConfigurationError(
                f"advance_to time_s must be finite and >= now "
                f"{self.now_s!r}, got {time_s!r}")
        self.now_s = time_s

    def merge(self, other: "Timeline", offset_s: float = 0.0) -> None:
        """Splice another timeline's events in, shifted by ``offset_s``.

        Merged events never advance this timeline's clock: the caller
        accounts for the sub-timeline's span explicitly (e.g. as an
        ``ota.session`` span event).  Used to embed per-session packet
        detail into a campaign-level ledger for tracing.
        """
        for event in other._events:
            self._append(event.shifted(offset_s))

    def _append(self, event: SimEvent) -> None:
        self._events.append(event)

    # -- introspection -----------------------------------------------------

    @property
    def events(self) -> tuple[SimEvent, ...]:
        """The ledger, in append order (immutable snapshot)."""
        return tuple(self._events)

    def checkpoint(self) -> int:
        """Current ledger length; pass to queries as ``since``."""
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self._events)

    def components(self) -> tuple[str, ...]:
        """Distinct components, in order of first appearance."""
        seen: dict[str, None] = {}
        for event in self._events:
            seen.setdefault(event.component, None)
        return tuple(seen)

    # -- replay views ------------------------------------------------------

    def _select(self, kinds: Iterable[str] | None, component: str | None,
                since: int, advancing_only: bool) -> Iterator[SimEvent]:
        kind_set = None if kinds is None else frozenset(kinds)
        for event in self._events[since:]:
            if advancing_only and not event.advanced:
                continue
            if kind_set is not None and event.kind not in kind_set:
                continue
            if component is not None and event.component != component:
                continue
            yield event

    def time_s(self, kinds: Iterable[str] | None = None,
               component: str | None = None, since: int = 0,
               advancing_only: bool = False) -> float:
        """Total duration of matching events, summed in append order."""
        total = 0.0
        for event in self._select(kinds, component, since, advancing_only):
            total += event.duration_s
        return total

    def energy_j(self, kinds: Iterable[str] | None = None,
                 component: str | None = None, since: int = 0,
                 advancing_only: bool = False) -> float:
        """Total energy of matching events, summed in append order."""
        total = 0.0
        for event in self._select(kinds, component, since, advancing_only):
            total += event.energy_j
        return total

    def count(self, kinds: Iterable[str] | None = None,
              component: str | None = None, since: int = 0,
              advancing_only: bool = False) -> int:
        """Number of matching events."""
        return sum(1 for _ in self._select(
            kinds, component, since, advancing_only))

    def time_by_component(self, since: int = 0) -> dict[str, float]:
        """Per-component busy time (replayed in append order)."""
        totals: dict[str, float] = {}
        for event in self._events[since:]:
            totals[event.component] = totals.get(event.component, 0.0) \
                + event.duration_s
        return totals

    def energy_by_component(self, since: int = 0) -> dict[str, float]:
        """Per-component energy (replayed in append order)."""
        totals: dict[str, float] = {}
        for event in self._events[since:]:
            totals[event.component] = totals.get(event.component, 0.0) \
                + event.energy_j
        return totals

    def total_energy_j(self, since: int = 0) -> float:
        """Whole-ledger energy in append order."""
        return self.energy_j(since=since)

    def __repr__(self) -> str:
        return (f"<Timeline now={self.now_s:.6f}s "
                f"events={len(self._events)}>")

