"""Bit-exactness contract for the timeline refactor.

Every report in the OTA/testbed stack used to keep its own ``+=``
accumulators; they are now views replayed from the shared
:class:`repro.sim.Timeline` ledger.  The goldens below were captured by
running the *pre-refactor* code on seeded scenarios and recording every
public float as ``float.hex()``.  The views must reproduce them
bit-identically — not merely to a tolerance — which pins down the
replay's summation order (see ``repro/sim/timeline.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fpga.bitstream import generate_bitstream
from repro.ota.ap import AccessPoint
from repro.ota.broadcast import simulate_broadcast_campaign
from repro.ota.mac import OtaLink, simulate_transfer
from repro.ota.updater import OtaUpdater, node_energy_from_timeline
from repro.testbed.deployment import campus_deployment
from repro.testbed.mobility import (
    MobilePath,
    Waypoint,
    simulate_mobile_transfer,
)


def hexes(*values: float) -> list[str]:
    return [value.hex() for value in values]


class TestTransferParity:
    """simulate_transfer(seed 7, -112 dBm, 3000 B) vs pre-refactor run."""

    @pytest.fixture(scope="class")
    def report(self):
        rng = np.random.default_rng(7)
        return simulate_transfer(bytes(3000),
                                 OtaLink(downlink_rssi_dbm=-112.0), rng)

    def test_times_bit_identical(self, report):
        assert hexes(report.duration_s, report.node_rx_time_s,
                     report.node_tx_time_s) == [
            "0x1.0b1dd5d3dc8b8p+2",
            "0x1.aa715831f03ccp+1",
            "0x1.af294dd723675p-1",
        ]

    def test_counters_identical(self, report):
        assert (report.packets_sent, report.packets_delivered,
                report.retransmissions, report.failed) == (50, 50, 0, False)

    def test_report_is_a_view_over_its_timeline(self, report):
        assert report.timeline is not None
        assert report.duration_s == report.timeline.time_s(
            advancing_only=True)


class TestUpdateParity:
    """OtaUpdater.update(seed 11, -105 dBm, bitstream 50) goldens."""

    @pytest.fixture(scope="class")
    def report(self):
        rng = np.random.default_rng(11)
        image = generate_bitstream(0.03, seed=50)
        return OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-105.0),
                                   rng)

    def test_report_floats_bit_identical(self, report):
        assert hexes(report.total_time_s, report.node_energy_j,
                     report.decompress_time_s, report.reconfigure_time_s,
                     report.transfer.duration_s,
                     report.transfer.node_rx_time_s,
                     report.transfer.node_tx_time_s) == [
            "0x1.cae481e7bfd4cp+5",
            # Energy golden re-captured 2026-08 when FlashStats switched
            # from the fractional bytes/page ratio to counting whole
            # page-program operations (a deliberate accounting fix; the
            # partial trailing page now costs a full program time).
            "0x1.ebb0a04813d3cp+1",
            "0x1.c1b8fc05b7589p-2",
            "0x1.6f6c1bc6d565ap-6",
            "0x1.c733226c3b8b6p+5",
            "0x1.6ba83f4eca68cp+5",
            "0x1.6e2b8c75c4a98p+3",
        ]

    def test_compressed_bytes(self, report):
        assert report.compressed_bytes == 41481

    def test_energy_rederivable_from_ledger(self, report):
        assert node_energy_from_timeline(report.timeline) \
            == report.node_energy_j


class TestCampaignParity:
    """20-node campaign (deployment seed 3, image seed 43, rng 9)."""

    @pytest.fixture(scope="class")
    def campaign(self):
        deployment = campus_deployment(max_radius_m=700.0, seed=3)
        image = generate_bitstream(0.03, seed=43)
        return AccessPoint(deployment, image).run_campaign(
            np.random.default_rng(9))

    def test_campaign_scalars_bit_identical(self, campaign):
        assert hexes(campaign.total_time_s, campaign.request_time_s) == [
            "0x1.2b29b9495a923p+10",
            "0x1.d6494d50ebaaep-4",
        ]
        assert campaign.retries == 0
        assert campaign.success_count == 20

    def test_every_session_bit_identical(self, campaign):
        for session in campaign.sessions:
            assert session.attempts == 1
            # Re-captured with the page-program accounting fix (see
            # TestUpdateParity.test_report_floats_bit_identical).
            assert session.report.node_energy_j.hex() \
                == "0x1.ff947adeb3f9fp+1"
            assert session.report.total_time_s.hex() \
                == "0x1.de9d66a03bb0ep+5"
        assert campaign.sessions[0].wake_time_s.hex() \
            == "0x1.d6494d50ebaaep-4"
        assert campaign.sessions[-1].wake_time_s.hex() \
            == "0x1.1c34ce1458b4bp+10"

    def test_total_node_energy_matches_ledger_rederivation(self, campaign):
        rederived = sum(
            node_energy_from_timeline(session.report.timeline)
            for session in campaign.sessions if session.report)
        assert rederived == campaign.total_node_energy_j()

    def test_campaign_clock_matches_ledger(self, campaign):
        assert campaign.total_time_s == campaign.timeline.now_s


class TestMobilityParity:
    """Drive-away transfer (no shadowing, 1500->100 m at 40 m/s, seed 5)."""

    @pytest.fixture(scope="class")
    def result(self):
        deployment = campus_deployment(shadowing_sigma_db=0.0)
        path = MobilePath([Waypoint(1500, 0), Waypoint(100, 0)],
                          speed_m_s=40.0)
        return simulate_mobile_transfer(deployment, path, bytes(30_000),
                                        np.random.default_rng(5))

    def test_report_bit_identical(self, result):
        report = result.report
        assert hexes(report.duration_s, report.node_rx_time_s,
                     report.node_tx_time_s) == [
            "0x1.5311c6d1e1066p+5",
            "0x1.08c1db0142f97p+5",
            "0x1.093faf4278485p+3",
        ]
        assert (report.packets_sent, report.packets_delivered,
                report.retransmissions) == (504, 500, 4)

    def test_rssi_trace_bit_identical(self, result):
        assert len(result.rssi_trace) == 504
        first_t, first_rssi = result.rssi_trace[0]
        last_t, last_rssi = result.rssi_trace[-1]
        assert hexes(first_t, first_rssi) == [
            "0x0.0p+0", "-0x1.dea73a3065814p+6"]
        assert hexes(last_t, last_rssi) == [
            "0x1.52697aeddce57p+5", "-0x1.3eb46f1c4ebdcp+6"]


class TestBroadcastParity:
    """Broadcast campaign (deployment seed 21/400 m, 40 kB, rng 13)."""

    @pytest.fixture(scope="class")
    def report(self):
        deployment = campus_deployment(max_radius_m=400.0, seed=21)
        return simulate_broadcast_campaign(deployment, bytes(40_000),
                                           np.random.default_rng(13))

    def test_report_bit_identical(self, report):
        assert hexes(report.total_time_s, report.per_node_energy_j) == [
            "0x1.d01f003e9a974p-3",
            "0x1.d8dc1413192f6p-7",
        ]
        assert (report.rounds, report.fragments, report.broadcast_packets,
                report.nack_packets) == (1, 3, 3, 0)

    def test_wall_clock_matches_ledger(self, report):
        assert report.total_time_s == report.timeline.time_s(
            advancing_only=True)
