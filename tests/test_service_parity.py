"""Service/direct parity goldens: adapters change nothing numerically.

Every workload adapter must reproduce its legacy direct code path
draw-for-draw: same generator construction, same engine call order,
same results to the last bit.  These tests run each engine both ways —
directly (the pre-service CLI code path, reconstructed here) and
through a :class:`~repro.service.CampaignService` job — and compare
every float via ``float.hex()``, so even a one-ulp drift fails.
"""

import numpy as np
import pytest

from repro.seeding import job_rng
from repro.service import CampaignService, JobSpec

SEED = 2020


def _service_payload(kind: str, config: dict, seed: int = SEED) -> dict:
    job = CampaignService().submit_and_run(
        JobSpec(kind=kind, config=config, seed=seed))
    assert job.state == "completed", job.detail
    return job.result.payload_mapping()


def _hex(value) -> str:
    return float(value).hex()


class TestSweepParity:
    def test_lora_sweep_bit_identical(self):
        from repro.core.sweeps import lora_symbol_error_rate
        from repro.phy.lora import LoRaParams

        rng = job_rng(SEED)
        params = LoRaParams(8, 125.0 * 1e3)
        direct = [lora_symbol_error_rate(params, float(rssi), 30, rng)
                  for rssi in np.arange(-110.0, -122.0 - 0.5, -6.0)]

        payload = _service_payload(
            "sweep-lora", {"symbols": 30, "start_dbm": -110.0,
                           "stop_dbm": -122.0, "step_db": 6.0})
        assert payload["describe"] == params.describe()
        assert len(payload["points"]) == len(direct)
        for point, expected in zip(payload["points"], direct):
            assert _hex(point["rssi_dbm"]) == _hex(expected.rssi_dbm)
            assert _hex(point["error_rate"]) == _hex(expected.error_rate)
            assert point["trials"] == expected.trials

    def test_lora_sweep_values_pinned(self):
        # The parity test above compares the service with the function
        # it calls; these values pin what that function computes.
        job = CampaignService().submit_and_run(JobSpec(
            kind="sweep-lora", seed=7,
            config={"spreading_factor": 8, "symbols": 300,
                    "start_dbm": -124.0, "stop_dbm": -133.0,
                    "step_db": 3.0}))
        assert job.state == "completed", job.detail
        points = job.result.payload_mapping()["points"]
        assert [point["rssi_dbm"] for point in points] == [
            -124.0, -127.0, -130.0, -133.0]
        assert [point["error_rate"] for point in points] == [
            0.0, 0.0, 0.21333333333333335, 0.49]
        assert job.result.fingerprint().startswith("af727861609f9aee")

    def test_ble_sweep_bit_identical(self):
        from repro.core.sweeps import ble_beacon_error_rate

        rng = job_rng(SEED)
        direct = [ble_beacon_error_rate(float(rssi), 4, rng)
                  for rssi in np.arange(-80.0, -88.0 - 0.5, -4.0)]

        payload = _service_payload(
            "sweep-ble", {"packets": 4, "start_dbm": -80.0,
                          "stop_dbm": -88.0, "step_db": 4.0})
        assert len(payload["points"]) == len(direct)
        for point, expected in zip(payload["points"], direct):
            assert _hex(point["rssi_dbm"]) == _hex(expected.rssi_dbm)
            assert _hex(point["error_rate"]) == _hex(expected.error_rate)


class TestCampaignParity:
    def test_campus_campaign_bit_identical(self):
        from repro.fpga.bitstream import generate_bitstream
        from repro.ota.ap import AccessPoint
        from repro.testbed.deployment import campus_deployment

        rng = job_rng(SEED)
        deployment = campus_deployment(num_nodes=4)
        image = generate_bitstream(0.03, seed=42)
        campaign = AccessPoint(deployment, image,
                               max_attempts_per_node=1).run_campaign(rng)
        durations = campaign.durations_s()

        payload = _service_payload("campaign",
                                   {"image": "ble", "nodes": 4})
        assert payload["programmed"] == durations.size
        assert ([_hex(v) for v in payload["durations_s"]]
                == [_hex(v) for v in durations])
        assert (_hex(payload["mean_duration_s"])
                == _hex(campaign.mean_duration_s()))
        assert (_hex(payload["total_node_energy_j"])
                == _hex(campaign.total_node_energy_j()))

    def test_fleet_campaign_bit_identical(self):
        from repro.ota.fleet import (
            FleetCampaignConfig,
            run_fleet_campaign_sharded,
        )

        config = FleetCampaignConfig(num_nodes=96, image_bytes=600,
                                     seed=SEED)
        report = run_fleet_campaign_sharded(config, shards=3)

        payload = _service_payload(
            "fleet", {"nodes": 96, "image_bytes": 600, "shards": 3})
        assert payload["num_fragments"] == config.num_fragments
        assert dict(payload["outcomes"]) == report.outcome_counts()
        assert payload["total_events"] == report.total_events
        assert (_hex(payload["total_energy_j"])
                == _hex(report.total_energy_j))


class TestAdrParity:
    def test_adr_study_bit_identical(self):
        from repro.protocols.lorawan.adr import (
            fixed_rate_cost,
            simulate_adr,
        )
        from repro.testbed.deployment import campus_deployment

        rng = job_rng(SEED)
        deployment = campus_deployment()
        _, baseline = fixed_rate_cost(12, 14.0)
        direct = []
        for node in deployment.nodes:
            path_loss = (deployment.ap_tx_power_dbm
                         + deployment.ap_antenna_gain_dbi
                         - deployment.downlink_rssi_dbm(node, rng))
            result = simulate_adr(path_loss, rng)
            direct.append((node.node_id, path_loss,
                           baseline / result.energy_j_per_packet,
                           result.final_sf, result.delivery_ratio))

        payload = _service_payload("adr", {})
        assert _hex(payload["baseline_energy_j_per_packet"]) \
            == _hex(baseline)
        assert len(payload["nodes"]) == len(direct)
        for row, (node_id, path_loss, saving, sf, delivery) in zip(
                payload["nodes"], direct):
            assert row["node_id"] == node_id
            assert _hex(row["path_loss_db"]) == _hex(path_loss)
            assert _hex(row["saving"]) == _hex(saving)
            assert row["final_sf"] == sf
            assert _hex(row["delivery_ratio"]) == _hex(delivery)


class TestTableParity:
    def test_info_tables_match_engines(self):
        from repro.core.timing import platform_timings
        from repro.fpga.resources import (
            LFE5U_25F_LUTS,
            lora_rx_design,
            lora_tx_design,
        )
        from repro.platforms.cost import total_cost_usd

        payload = _service_payload("info", {})
        assert _hex(payload["unit_cost_usd"]) == _hex(total_cost_usd())
        assert payload["fpga_luts"] == LFE5U_25F_LUTS
        assert payload["lora_tx_luts"] == lora_tx_design(8).luts
        assert payload["lora_rx_luts"] == lora_rx_design(8).luts
        expected = {operation: _hex(ms) for operation, ms
                    in platform_timings().as_table()}
        actual = {operation: _hex(ms) for operation, ms
                  in payload["timings_ms"]}
        assert actual == expected

    @pytest.mark.parametrize("tx_power_dbm", [14.0, 0.0, -10.0])
    def test_power_table_matches_pmu(self, tx_power_dbm):
        from repro.power.pmu import PlatformState, PowerManagementUnit

        pmu = PowerManagementUnit()
        expected = {}
        for state, kwargs in [
                (PlatformState.SLEEP, {}),
                (PlatformState.MCU_ONLY, {}),
                (PlatformState.IQ_TX, {"tx_power_dbm": tx_power_dbm}),
                (PlatformState.IQ_RX, {}),
                (PlatformState.CONCURRENT_RX, {}),
                (PlatformState.BACKBONE_RX, {}),
                (PlatformState.BACKBONE_TX, {})]:
            pmu.enter_state(state, **kwargs)
            expected[state.value] = _hex(pmu.battery_power_w())

        payload = _service_payload(
            "power", {"tx_power_dbm": tx_power_dbm})
        actual = {state: _hex(power)
                  for state, power in payload["states"]}
        assert actual == expected
