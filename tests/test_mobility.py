"""Tests for mobile-node OTA scenarios."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.testbed.deployment import campus_deployment
from repro.testbed.mobility import (
    MobilePath,
    Waypoint,
    simulate_mobile_transfer,
)


class TestMobilePath:
    def test_path_duration(self):
        path = MobilePath([Waypoint(0, 0), Waypoint(100, 0)],
                          speed_m_s=10.0)
        assert path.duration_s == pytest.approx(10.0)

    def test_position_interpolation(self):
        path = MobilePath([Waypoint(0, 0), Waypoint(100, 0)],
                          speed_m_s=10.0)
        halfway = path.position_at(5.0)
        assert halfway.x_m == pytest.approx(50.0)
        assert halfway.y_m == pytest.approx(0.0)

    def test_position_clamps_at_ends(self):
        path = MobilePath([Waypoint(0, 0), Waypoint(100, 0)],
                          speed_m_s=10.0)
        assert path.position_at(-5.0).x_m == 0.0
        assert path.position_at(999.0).x_m == pytest.approx(100.0)

    def test_multi_segment_path(self):
        path = MobilePath([Waypoint(0, 0), Waypoint(30, 0),
                           Waypoint(30, 40)], speed_m_s=10.0)
        assert path.total_length_m == pytest.approx(70.0)
        corner = path.position_at(3.0)
        assert corner.x_m == pytest.approx(30.0)
        assert corner.y_m == pytest.approx(0.0)
        later = path.position_at(5.0)
        assert later.x_m == pytest.approx(30.0)
        assert later.y_m == pytest.approx(20.0)

    def test_distance_to_origin(self):
        path = MobilePath([Waypoint(30, 40), Waypoint(60, 80)],
                          speed_m_s=1.0)
        assert path.distance_to_origin_at(0.0) == pytest.approx(50.0)

    def test_needs_two_waypoints(self):
        with pytest.raises(ConfigurationError):
            MobilePath([Waypoint(0, 0)], speed_m_s=1.0)

    def test_needs_positive_speed(self):
        with pytest.raises(ConfigurationError):
            MobilePath([Waypoint(0, 0), Waypoint(1, 1)], speed_m_s=0.0)


class TestMobileTransfer:
    def test_stationary_close_node_succeeds(self, rng):
        deployment = campus_deployment(shadowing_sigma_db=0.0)
        path = MobilePath([Waypoint(100, 0), Waypoint(101, 0)],
                          speed_m_s=0.01)
        result = simulate_mobile_transfer(deployment, path,
                                          bytes(4000), rng)
        assert not result.report.failed
        assert result.report.retransmissions == 0

    def test_node_driving_away_degrades(self, rng):
        deployment = campus_deployment(shadowing_sigma_db=0.0)
        # Starts near the AP, ends far beyond the link budget.
        path = MobilePath([Waypoint(100, 0), Waypoint(6000, 0)],
                          speed_m_s=25.0)
        result = simulate_mobile_transfer(deployment, path,
                                          bytes(60_000), rng)
        # RSSI trace decays with time.
        times = [t for t, _ in result.rssi_trace]
        rssis = [r for _, r in result.rssi_trace]
        assert rssis[0] > rssis[-1] + 10.0
        assert times == sorted(times)
        # And the link eventually fails or limps with retransmissions.
        assert result.report.failed or result.report.retransmissions > 0

    def test_node_driving_toward_ap_improves(self, rng):
        deployment = campus_deployment(shadowing_sigma_db=0.0)
        # Starts marginal (~-119 dBm at 1.5 km), ends strong.
        path = MobilePath([Waypoint(1500, 0), Waypoint(100, 0)],
                          speed_m_s=40.0)
        result = simulate_mobile_transfer(deployment, path,
                                          bytes(30_000), rng)
        assert not result.report.failed
        rssis = [r for _, r in result.rssi_trace]
        assert rssis[-1] > rssis[0] + 10.0
