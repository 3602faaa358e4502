"""Tests for the AP-side campaign orchestration."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpga import generate_bitstream
from repro.ota import OUTCOME_ABANDONED, OUTCOME_SUCCEEDED
from repro.ota.ap import (
    AccessPoint,
    LISTEN_PERIOD_S,
    LISTEN_WINDOW_S,
)
from repro.testbed import campus_deployment


@pytest.fixture(scope="module")
def deployment():
    return campus_deployment(max_radius_m=700.0, seed=3)


@pytest.fixture(scope="module")
def image():
    return generate_bitstream(0.03, seed=43)


class TestScheduling:
    def test_wake_times_are_staggered(self, deployment, image):
        ap = AccessPoint(deployment, image)
        schedule = ap.schedule(estimated_session_s=60.0)
        times = sorted(schedule.values())
        assert len(times) == 20
        assert all(b - a >= 60.0 for a, b in zip(times, times[1:]))

    def test_wake_times_align_to_listen_windows(self, deployment, image):
        ap = AccessPoint(deployment, image)
        schedule = ap.schedule(estimated_session_s=60.0)
        for wake in schedule.values():
            if wake > LISTEN_WINDOW_S:
                assert wake % LISTEN_PERIOD_S == pytest.approx(0.0)

    def test_request_names_every_node(self, deployment, image):
        ap = AccessPoint(deployment, image)
        request = ap.build_request(ap.schedule(60.0))
        assert len(request.device_ids) == 20
        assert request.wire_bytes == 12 + 6 * 20

    def test_empty_schedule_rejected(self, deployment, image):
        with pytest.raises(ConfigurationError):
            AccessPoint(deployment, image).build_request({})

    def test_empty_image_rejected(self, deployment):
        with pytest.raises(ConfigurationError):
            AccessPoint(deployment, b"")


class TestCampaign:
    @pytest.fixture(scope="class")
    def timeline(self, deployment, image):
        ap = AccessPoint(deployment, image)
        return ap.run_campaign(np.random.default_rng(9))

    def test_every_node_gets_a_session(self, timeline):
        assert len(timeline.sessions) == 20

    def test_most_nodes_programmed(self, timeline):
        assert timeline.success_count >= 19

    def test_campaign_time_accumulates_sessions(self, timeline):
        session_time = sum(s.report.total_time_s
                           for s in timeline.sessions if s.report)
        assert timeline.total_time_s >= session_time

    def test_attempts_bounded(self, timeline):
        assert all(1 <= s.attempts <= 3 for s in timeline.sessions)

    def test_request_airtime_positive(self, timeline):
        assert 0 < timeline.request_time_s < 1.0


class TestCampaignFailureParity:
    """Pinned failure and retry paths of the classic campaign.

    Twelve nodes out to 2.5 km (deployment seed 0, rng 0) with a 2 kB
    incompressible image: seven nodes fail their single attempt, and
    with the default three attempts sixteen retries leave five behind.
    """

    IMAGE = np.random.default_rng(99).integers(
        0, 256, 2000, dtype=np.uint8).tobytes()

    @pytest.fixture(scope="class")
    def far_deployment(self):
        return campus_deployment(num_nodes=12, max_radius_m=2500.0, seed=0)

    def test_single_attempt_campaign_bit_identical(self, far_deployment):
        rng = np.random.default_rng(0)
        campaign = AccessPoint(far_deployment, self.IMAGE,
                               max_attempts_per_node=1).run_campaign(rng)
        programmed = {
            1: ("0x1.2f5054a998edbp+2", "0x1.15623fb729af8p-2"),
            2: ("0x1.6c3297fd9f028p+1", "0x1.753c6be5bfb9ep-3"),
            3: ("0x1.6c3297fd9f028p+1", "0x1.753c6be5bfb9ep-3"),
            7: ("0x1.3e5b1fab44d84p+5", "0x1.e9ace2bad2c6cp+0"),
            11: ("0x1.6c3297fd9f028p+1", "0x1.753c6be5bfb9ep-3"),
        }
        assert {s.node_id: (s.report.total_time_s.hex(),
                            s.report.node_energy_j.hex())
                for s in campaign.sessions if s.report} == programmed
        assert [s.node_id for s in campaign.abandoned] == [
            0, 4, 5, 6, 8, 9, 10]
        assert campaign.retries == 7
        assert rng.bit_generator.state["state"]["state"] \
            == 0x6423971df73093b84daac6171e8d132c

    def test_retries_bit_identical(self, far_deployment):
        campaign = AccessPoint(far_deployment, self.IMAGE).run_campaign(
            np.random.default_rng(0))
        assert [s.attempts for s in campaign.sessions] == [
            3, 1, 1, 1, 3, 3, 2, 3, 1, 1, 3, 1]
        assert campaign.retries == 16
        assert [s.node_id for s in campaign.abandoned] == [0, 4, 5, 7, 10]

    def test_every_classic_session_ends_in_a_terminal_outcome(
            self, far_deployment):
        campaign = AccessPoint(far_deployment, self.IMAGE).run_campaign(
            np.random.default_rng(0))
        for session in campaign.sessions:
            expected = (OUTCOME_SUCCEEDED if session.report is not None
                        else OUTCOME_ABANDONED)
            assert session.outcome == expected
            assert session.succeeded == (session.report is not None)
        assert campaign.outcome_counts() == {OUTCOME_SUCCEEDED: 7,
                                             OUTCOME_ABANDONED: 5}
