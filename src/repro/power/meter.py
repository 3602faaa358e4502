"""Energy metering over simulated timelines.

The paper's battery-lifetime arguments all reduce to integrating power
over a duty-cycled timeline: so many milliseconds at transmit power, the
rest in 30 uW sleep.  :class:`EnergyMeter` records (state, duration)
segments and integrates them; :func:`duty_cycle_profile` builds the
classic IoT wake-transmit-sleep cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.events import METER_SEGMENT
from repro.sim.timeline import Timeline

METER_COMPONENT = "meter"
"""Timeline component name for metered power segments."""


@dataclass(frozen=True)
class TimelineSegment:
    """A constant-power interval.

    Attributes:
        label: human-readable segment name.
        power_w: battery power during the segment.
        duration_s: segment length.
    """

    label: str
    power_w: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ConfigurationError(
                f"power must be >= 0, got {self.power_w!r}")
        if self.duration_s < 0:
            raise ConfigurationError(
                f"duration must be >= 0, got {self.duration_s!r}")

    @property
    def energy_j(self) -> float:
        """Energy consumed in this segment."""
        return self.power_w * self.duration_s


class EnergyMeter:
    """Thin consumer of a simulation timeline.

    Each recorded segment becomes a ``meter.segment`` event on the
    underlying :class:`~repro.sim.timeline.Timeline`; every total is a replayed
    view over the ledger rather than a running accumulator, so a meter
    can share a timeline with the rest of the platform model and its
    numbers stay consistent with the trace exporters.
    """

    def __init__(self, timeline: Timeline | None = None) -> None:
        self.timeline = timeline if timeline is not None else Timeline()
        self._since = self.timeline.checkpoint()

    def _segment_events(self):
        return (event for event in self.timeline.events[self._since:]
                if event.kind == METER_SEGMENT)

    @property
    def segments(self) -> list[TimelineSegment]:
        """The recorded segments, rebuilt from the ledger."""
        return [TimelineSegment(event.label, event.power_w or 0.0,
                                event.duration_s)
                for event in self._segment_events()]

    def record(self, label: str, power_w: float,
               duration_s: float) -> TimelineSegment:
        """Append one segment and return it."""
        segment = TimelineSegment(label, power_w, duration_s)
        self.timeline.record(METER_SEGMENT, METER_COMPONENT, label=label,
                             duration_s=duration_s, power_w=power_w)
        return segment

    @property
    def total_energy_j(self) -> float:
        """Integrated energy (replayed in append order)."""
        return self.timeline.energy_j(kinds={METER_SEGMENT},
                                      since=self._since)

    @property
    def total_time_s(self) -> float:
        """Total timeline length (replayed in append order)."""
        return self.timeline.time_s(kinds={METER_SEGMENT},
                                    since=self._since)

    @property
    def average_power_w(self) -> float:
        """Mean power over the timeline.

        Raises:
            ConfigurationError: for an empty timeline.
        """
        if self.total_time_s == 0:
            raise ConfigurationError("timeline is empty")
        return self.total_energy_j / self.total_time_s

    def by_label(self) -> dict[str, float]:
        """Energy totals grouped by segment label."""
        totals: dict[str, float] = {}
        for event in self._segment_events():
            totals[event.label] = totals.get(event.label, 0.0) \
                + event.energy_j
        return totals


def duty_cycle_profile(active_power_w: float, active_time_s: float,
                       sleep_power_w: float, period_s: float,
                       wakeup_power_w: float = 0.0,
                       wakeup_time_s: float = 0.0) -> EnergyMeter:
    """One period of the IoT duty cycle: wake, work, sleep.

    Raises:
        ConfigurationError: if the active phases do not fit in the period.
    """
    busy = active_time_s + wakeup_time_s
    if busy > period_s:
        raise ConfigurationError(
            f"active {busy!r}s does not fit in period {period_s!r}s")
    meter = EnergyMeter()
    if wakeup_time_s > 0:
        meter.record("wakeup", wakeup_power_w, wakeup_time_s)
    meter.record("active", active_power_w, active_time_s)
    meter.record("sleep", sleep_power_w, period_s - busy)
    return meter
