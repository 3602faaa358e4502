"""Tests for the platform catalogs, BOM cost model and testbed campaigns."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpga import generate_bitstream
from repro.platforms import (
    BILL_OF_MATERIALS,
    IQ_RADIO_CHIPS,
    SDR_PLATFORMS,
    cost_by_group,
    cost_without,
    covers_band,
    endpoint_requirements_report,
    get_platform,
    sleep_power_advantage,
    supports_protocol,
    total_cost_usd,
)
from repro.ota import AccessPoint
from repro.testbed import TESTBED_SIZE, campus_deployment


class TestCatalog:
    def test_eight_platforms_in_table1(self):
        assert len(SDR_PLATFORMS) == 8

    def test_tinysdr_row(self):
        tinysdr = get_platform("TinySDR")
        assert tinysdr.sleep_power_w == pytest.approx(30e-6)
        assert tinysdr.standalone
        assert tinysdr.ota_programmable
        assert tinysdr.cost_usd == pytest.approx(55.0)
        assert tinysdr.adc_bits == 13

    def test_only_tinysdr_is_ota(self):
        ota = [p.name for p in SDR_PLATFORMS if p.ota_programmable]
        assert ota == ["TinySDR"]

    def test_sleep_advantage_over_10000x(self):
        advantages = sleep_power_advantage()
        assert advantages["USRP E310"] > 10_000
        assert all(ratio > 10_000 for ratio in advantages.values())

    def test_unknown_platform_rejected(self):
        with pytest.raises(ConfigurationError):
            get_platform("HackRF")

    def test_band_coverage(self):
        tinysdr = get_platform("TinySDR")
        assert covers_band(tinysdr, 915e6)
        assert covers_band(tinysdr, 2.44e9)
        assert not covers_band(tinysdr, 1.5e9)
        usdr = get_platform("uSDR")
        assert not covers_band(usdr, 915e6)

    def test_protocol_support(self):
        tinysdr = get_platform("TinySDR")
        for protocol in ("LoRa", "Sigfox", "NB-IoT", "LTE-M", "Bluetooth",
                         "ZigBee"):
            assert supports_protocol(tinysdr, protocol)
        with pytest.raises(ConfigurationError):
            supports_protocol(tinysdr, "WiFi6")

    def test_requirements_report_only_tinysdr_meets_all(self):
        report = endpoint_requirements_report()
        full_marks = [name for name, checks in report.items()
                      if all(checks.values())]
        assert full_marks == ["TinySDR"]

    def test_at86rf215_is_cheapest_dual_band(self):
        at86 = next(c for c in IQ_RADIO_CHIPS if c.name == "AT86RF215")
        assert at86.cost_usd == min(c.cost_usd for c in IQ_RADIO_CHIPS)
        assert at86.rx_power_w == min(c.rx_power_w for c in IQ_RADIO_CHIPS)


class TestCost:
    def test_total_is_54_53(self):
        assert total_cost_usd() == pytest.approx(54.53)

    def test_18_bom_lines(self):
        assert len(BILL_OF_MATERIALS) == 18

    def test_group_subtotals(self):
        groups = cost_by_group()
        assert groups["DSP"] == pytest.approx(9.59)
        assert groups["Production"] == pytest.approx(13.00)

    def test_cost_without_group(self):
        without_rf = cost_without(("RF",))
        assert without_rf == pytest.approx(54.53 - 3.14 - 1.54 - 1.72)

    def test_cost_without_unknown_group_rejected(self):
        with pytest.raises(ConfigurationError):
            cost_without(("Blockchain",))


class TestDeployment:
    def test_default_size_is_20(self):
        assert len(campus_deployment().nodes) == TESTBED_SIZE == 20

    def test_deterministic_by_seed(self):
        a = campus_deployment(seed=5)
        b = campus_deployment(seed=5)
        assert [n.x_m for n in a.nodes] == [n.x_m for n in b.nodes]

    def test_distances_within_radius(self):
        deployment = campus_deployment(max_radius_m=800.0)
        for node in deployment.nodes:
            assert 30.0 <= node.distance_m <= 800.0

    def test_rssi_falls_with_distance(self):
        deployment = campus_deployment(shadowing_sigma_db=0.0)
        nodes = sorted(deployment.nodes, key=lambda n: n.distance_m)
        near = deployment.downlink_rssi_dbm(nodes[0])
        far = deployment.downlink_rssi_dbm(nodes[-1])
        assert near > far

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            campus_deployment(num_nodes=0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        deployment = campus_deployment()
        rng = np.random.default_rng(11)
        image = generate_bitstream(0.03, seed=43)  # BLE-sized: faster
        return AccessPoint(deployment, image,
                           max_attempts_per_node=1).run_campaign(rng)

    def test_all_or_most_nodes_programmed(self, campaign):
        assert sum(s.succeeded for s in campaign.sessions) >= 18

    def test_mean_duration_near_paper_ble_figure(self, campaign):
        # Paper: BLE FPGA programs in ~59 s on average.
        assert campaign.mean_duration_s() == pytest.approx(60.0, rel=0.35)

    def test_cdf_is_monotone(self, campaign):
        durations, probabilities = campaign.cdf()
        assert np.all(np.diff(durations) >= 0)
        assert np.all(np.diff(probabilities) > 0)
        assert probabilities[-1] <= 1.0

    def test_far_nodes_not_faster(self, campaign):
        # The slowest node should be at a weaker RSSI than the fastest.
        ok = [s for s in campaign.sessions if s.succeeded]
        fastest = min(ok, key=lambda s: s.report.total_time_s)
        slowest = max(ok, key=lambda s: s.report.total_time_s)
        assert slowest.downlink_rssi_dbm <= fastest.downlink_rssi_dbm

    def test_energy_accounted(self, campaign):
        assert campaign.total_node_energy_j() > 0
