"""Mobile-node scenarios (paper section 1: battery operation enables
deployment "in spaces without dedicated power access, or even in mobile
scenarios").

A mobile node follows a waypoint path at constant speed; its distance -
and therefore RSSI - to the AP varies while a multi-minute OTA session
is in flight.  The session simulator re-evaluates the link as the node
moves, so a node driving away mid-update accumulates retransmissions
exactly where its link degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ota.mac import (
    OtaLink,
    TransferReport,
    fragment_image,
    run_stop_and_wait,
    transfer_report_from_timeline,
)
from repro.sim.timeline import Timeline
from repro.testbed.deployment import Deployment


@dataclass(frozen=True)
class Waypoint:
    """A point on a mobile node's path."""

    x_m: float
    y_m: float


class MobilePath:
    """Piecewise-linear motion through waypoints at constant speed."""

    def __init__(self, waypoints: list[Waypoint], speed_m_s: float) -> None:
        if len(waypoints) < 2:
            raise ConfigurationError(
                f"need at least 2 waypoints, got {len(waypoints)}")
        if speed_m_s <= 0:
            raise ConfigurationError(
                f"speed must be positive, got {speed_m_s!r}")
        self.waypoints = list(waypoints)
        self.speed_m_s = speed_m_s
        self._segment_lengths = [
            float(np.hypot(b.x_m - a.x_m, b.y_m - a.y_m))
            for a, b in zip(waypoints, waypoints[1:])]
        self.total_length_m = sum(self._segment_lengths)

    @property
    def duration_s(self) -> float:
        """Time to traverse the whole path."""
        return self.total_length_m / self.speed_m_s

    def position_at(self, time_s: float) -> Waypoint:
        """Position at a given time (clamped to the path ends)."""
        if time_s <= 0:
            return self.waypoints[0]
        travelled = min(time_s * self.speed_m_s, self.total_length_m)
        for (start, end), length in zip(
                zip(self.waypoints, self.waypoints[1:]),
                self._segment_lengths):
            if travelled <= length or length == 0:
                fraction = travelled / length if length else 0.0
                return Waypoint(
                    x_m=start.x_m + fraction * (end.x_m - start.x_m),
                    y_m=start.y_m + fraction * (end.y_m - start.y_m))
            travelled -= length
        return self.waypoints[-1]

    def distance_to_origin_at(self, time_s: float) -> float:
        """Distance from the AP (at the origin) at a given time."""
        position = self.position_at(time_s)
        return float(np.hypot(position.x_m, position.y_m))


@dataclass
class MobileTransferResult:
    """Outcome of an OTA transfer to a moving node.

    Attributes:
        report: the underlying transfer accounting.
        rssi_trace: (time, rssi) samples across the session.
    """

    report: TransferReport
    rssi_trace: list[tuple[float, float]]


def simulate_mobile_transfer(deployment: Deployment, path: MobilePath,
                             image: bytes, rng: np.random.Generator,
                             tx_power_dbm: float = 14.0,
                             timeline: Timeline | None = None
                             ) -> MobileTransferResult:
    """Run the stop-and-wait OTA data phase against a moving node.

    The link RSSI is re-derived from the node's instantaneous position
    before every transmission attempt: the shared ARQ loop
    (:func:`repro.ota.mac.run_stop_and_wait`) asks the per-attempt link
    callback for conditions at the current sim time, which is where the
    RSSI trace is sampled.  Unlike the fixed-link transfer, ACK-timeout
    dwells do not charge the node's receive budget (the mobile model
    lets the node sleep through the timeout).
    """
    link_template = OtaLink()
    params = link_template.params
    fragments = fragment_image(image)
    timeline = timeline if timeline is not None else Timeline()
    since = timeline.checkpoint()
    start_s = timeline.now_s
    trace: list[tuple[float, float]] = []

    def link_at(now_s, fragment, attempt):
        elapsed_s = now_s - start_s
        distance = path.distance_to_origin_at(elapsed_s)
        rssi = deployment.channel.received_power_dbm(
            tx_power_dbm, max(distance, 1.0),
            tx_gain_dbi=deployment.ap_antenna_gain_dbi)
        trace.append((elapsed_s, rssi))
        return OtaLink(params=params, downlink_rssi_dbm=rssi,
                       uplink_rssi_dbm=rssi)

    lost = run_stop_and_wait(fragments, rng, timeline, link_at)
    messages = []
    if lost is not None:
        messages.append(
            f"fragment {lost.sequence} lost while node at "
            f"{path.distance_to_origin_at(timeline.now_s - start_s):.0f} m")
    report = transfer_report_from_timeline(
        timeline, since, failed=lost is not None, messages=messages,
        timeout_is_rx=False)
    return MobileTransferResult(report=report, rssi_trace=trace)
