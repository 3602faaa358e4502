"""Tests for the broadcast OTA MAC and LoRaWAN rate adaptation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, OtaError
from repro.fpga.bitstream import generate_bitstream
from repro.ota.broadcast import (
    BroadcastNodeState,
    simulate_broadcast_campaign,
)
from repro.protocols.lorawan.adr import (
    AdrState,
    fixed_rate_cost,
    simulate_adr,
)
from repro.testbed.deployment import campus_deployment


class TestBroadcastNodeState:
    def test_missing_tracking(self):
        node = BroadcastNodeState(node_id=0, downlink_rssi_dbm=-90,
                                  uplink_rssi_dbm=-90)
        assert node.missing(3) == {0, 1, 2}
        node.received.update({0, 2})
        assert node.missing(3) == {1}


class TestBroadcastCampaign:
    @pytest.fixture(scope="class")
    def outcome(self):
        deployment = campus_deployment(max_radius_m=800.0)
        image = generate_bitstream(0.03, seed=43)
        rng = np.random.default_rng(21)
        return simulate_broadcast_campaign(deployment, image, rng)

    def test_everyone_completes(self, outcome):
        assert outcome.completed_nodes == outcome.node_count == 20

    def test_airtime_shared_not_multiplied(self, outcome):
        # A sequential campaign for this image costs ~60 s *per node*;
        # broadcast must beat even two sequential nodes.
        assert outcome.total_time_s < 2 * 60.0

    def test_repair_overhead_is_modest(self, outcome):
        assert outcome.broadcast_packets < 2.5 * outcome.fragments

    def test_round_bounded(self, outcome):
        assert 1 <= outcome.rounds <= 20

    def test_energy_positive(self, outcome):
        assert outcome.per_node_energy_j > 0

    def test_hopeless_deployment_raises(self):
        deployment = campus_deployment(max_radius_m=6000.0,
                                       exponent=4.0, seed=1)
        image = generate_bitstream(0.03, seed=43)
        with pytest.raises(OtaError):
            simulate_broadcast_campaign(deployment, image,
                                        np.random.default_rng(1),
                                        max_rounds=3)


class TestAdrState:
    def test_good_link_steps_down_to_sf7(self):
        state = AdrState()
        for _ in range(5):
            state.record_uplink(10.0)  # loud and clear
        state.adjust()
        assert state.spreading_factor == 7

    def test_excess_margin_reduces_tx_power(self):
        state = AdrState()
        for _ in range(5):
            state.record_uplink(25.0)
        state.adjust()
        assert state.spreading_factor == 7
        assert state.tx_power_dbm < 14.0

    def test_marginal_link_keeps_high_sf(self):
        state = AdrState()
        for _ in range(5):
            state.record_uplink(-18.0)  # barely above the SF12 threshold
        state.adjust()
        assert state.spreading_factor >= 11

    def test_degrading_link_steps_back_up(self):
        state = AdrState(spreading_factor=7, tx_power_dbm=2.0)
        for _ in range(5):
            state.record_uplink(-9.0)  # below SF7 threshold + margin
        changed = state.adjust()
        assert changed
        assert state.tx_power_dbm > 2.0 or state.spreading_factor > 7

    def test_no_history_no_change(self):
        state = AdrState()
        assert not state.adjust()

    def test_window_bounded(self):
        state = AdrState()
        for snr in range(40):
            state.record_uplink(float(snr))
        assert len(state.snr_history) == 20


class TestAdrSimulation:
    def test_near_node_converges_fast_and_cheap(self, rng):
        result = simulate_adr(path_loss_db=110.0, rng=rng)
        assert result.final_sf == 7
        assert result.delivery_ratio > 0.95
        _, fixed_energy = fixed_rate_cost(12, 14.0)
        assert result.energy_j_per_packet < fixed_energy / 10.0

    def test_far_node_keeps_robust_setting(self, rng):
        result = simulate_adr(path_loss_db=142.0, rng=rng)
        assert result.final_sf >= 10
        assert result.final_tx_power_dbm == 14.0
        assert result.delivery_ratio > 0.8

    def test_energy_ordering_follows_path_loss(self, rng):
        near = simulate_adr(path_loss_db=112.0, rng=rng)
        far = simulate_adr(path_loss_db=138.0, rng=rng)
        assert near.energy_j_per_packet < far.energy_j_per_packet

    def test_zero_uplinks_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_adr(path_loss_db=120.0, rng=rng, uplinks=0)
