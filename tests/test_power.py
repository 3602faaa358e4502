"""Tests for the power substrate: regulators, domains, PMU, meter, battery."""

import pytest

from repro.errors import ConfigurationError, PowerError
from repro.power.battery import LIPO_1000MAH, Battery
from repro.power.domains import (
    DOMAIN_TABLE,
    build_domains,
    domain_for_component,
)
from repro.power.meter import EnergyMeter, duty_cycle_profile
from repro.power.pmu import PlatformState, PowerManagementUnit
from repro.power.profiles import fpga_power_w, iq_radio_tx_w
from repro.power.regulators import SC195, TPS62240, TPS78218, Regulator


class TestRegulators:
    def test_linear_regulator_draws_load_current_from_input(self):
        regulator = Regulator(TPS78218, input_v=3.7)
        regulator.enable()
        # 1.8 V load at 10 mW -> input draws same current at 3.7 V.
        assert regulator.input_power_w(0.010) == pytest.approx(
            0.010 * 3.7 / 1.8 + 0.45e-6 * 3.7)

    def test_buck_efficiency(self):
        regulator = Regulator(TPS62240, input_v=3.7)
        regulator.enable()
        assert regulator.input_power_w(0.090) == pytest.approx(
            0.1 + 22e-6 * 3.7, rel=0.01)

    def test_disabled_regulator_shutdown_current(self):
        regulator = Regulator(TPS62240, input_v=3.7)
        assert regulator.input_power_w(0.0) == pytest.approx(0.1e-6 * 3.7)

    def test_disabled_regulator_rejects_load(self):
        regulator = Regulator(TPS62240)
        with pytest.raises(PowerError):
            regulator.input_power_w(0.010)

    def test_overcurrent_detected(self):
        regulator = Regulator(TPS62240)
        regulator.enable()
        with pytest.raises(PowerError):
            regulator.input_power_w(10.0)

    def test_adjustable_output(self):
        regulator = Regulator(SC195)
        regulator.set_output_voltage(3.3)
        assert regulator.output_v == pytest.approx(3.3)
        with pytest.raises(PowerError):
            regulator.set_output_voltage(4.0)

    def test_fixed_output_not_adjustable(self):
        with pytest.raises(PowerError):
            Regulator(TPS78218).set_output_voltage(2.5)


class TestDomains:
    def test_table3_has_seven_domains(self):
        assert len(DOMAIN_TABLE) == 7
        assert [d.name for d in DOMAIN_TABLE] == [
            "V1", "V2", "V3", "V4", "V5", "V6", "V7"]

    def test_mcu_domain_always_on(self):
        domains = build_domains()
        assert domains["V1"].is_on
        with pytest.raises(PowerError):
            domains["V1"].turn_off()

    def test_other_domains_start_off(self):
        domains = build_domains()
        for name in ("V2", "V3", "V4", "V5", "V6", "V7"):
            assert not domains[name].is_on

    def test_component_lookup(self):
        assert domain_for_component("mcu") == "V1"
        assert domain_for_component("iq_radio") == "V5"
        assert domain_for_component("backbone_radio") == "V5"
        assert domain_for_component("pa_900") == "V6"
        with pytest.raises(PowerError):
            domain_for_component("toaster")

    def test_load_on_off_domain_rejected(self):
        domains = build_domains()
        with pytest.raises(PowerError):
            domains["V5"].set_load("iq_radio", 0.05)

    def test_foreign_component_rejected(self):
        domains = build_domains()
        domains["V5"].turn_on()
        with pytest.raises(PowerError):
            domains["V5"].set_load("mcu", 0.01)

    def test_turn_off_clears_loads(self):
        domains = build_domains()
        domains["V5"].turn_on()
        domains["V5"].set_load("iq_radio", 0.05)
        domains["V5"].turn_off()
        assert domains["V5"].loads_w == {}


class TestPmu:
    def test_sleep_power_is_30uw(self):
        pmu = PowerManagementUnit()
        assert pmu.battery_power_w() == pytest.approx(30e-6, rel=0.05)

    def test_sleep_is_10000x_below_usrp(self):
        pmu = PowerManagementUnit()
        assert 2.820 / pmu.battery_power_w() > 10_000

    def test_tx_power_flat_then_rising(self):
        pmu = PowerManagementUnit()
        totals = []
        for dbm in (-14, -8, 0, 8, 14):
            pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=dbm)
            totals.append(pmu.battery_power_w())
        assert totals[0] == pytest.approx(totals[1], rel=0.01)  # flat
        assert totals[4] > totals[2]  # rising

    def test_tx_totals_match_paper_fig9(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=0.0)
        assert pmu.battery_power_w() == pytest.approx(0.231, rel=0.05)
        pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=14.0)
        assert pmu.battery_power_w() == pytest.approx(0.283, rel=0.05)

    def test_lora_rx_matches_paper(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.IQ_RX)
        assert pmu.battery_power_w() == pytest.approx(0.186, rel=0.06)

    def test_concurrent_rx_matches_paper(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.CONCURRENT_RX)
        assert pmu.battery_power_w() == pytest.approx(0.207, rel=0.08)

    def test_backbone_rx_below_iq_rx(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.BACKBONE_RX)
        backbone = pmu.battery_power_w()
        pmu.enter_state(PlatformState.IQ_RX)
        assert backbone < pmu.battery_power_w()

    def test_state_transitions_reversible(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=14.0)
        pmu.enter_state(PlatformState.SLEEP)
        assert pmu.battery_power_w() == pytest.approx(30e-6, rel=0.05)

    def test_breakdown_sums_to_total(self):
        pmu = PowerManagementUnit()
        pmu.enter_state(PlatformState.IQ_RX)
        breakdown = pmu.breakdown()
        from repro.power.profiles import BOARD_LEAKAGE_W
        assert sum(breakdown.by_domain_w.values()) + BOARD_LEAKAGE_W == \
            pytest.approx(breakdown.total_w)

    def test_ble_tx_power(self):
        pmu = PowerManagementUnit()
        # BLE design is smaller than LoRa: less FPGA power.
        ble = pmu.ble_tx_power_w(0.0)
        pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=0.0)
        assert ble < pmu.battery_power_w()


class TestProfiles:
    def test_radio_tx_curve_knee(self):
        assert iq_radio_tx_w(-14.0) == iq_radio_tx_w(-2.0)
        assert iq_radio_tx_w(14.0) == pytest.approx(0.179, rel=0.02)

    def test_radio_tx_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            iq_radio_tx_w(15.0)

    def test_fpga_power_scales_with_luts(self):
        assert fpga_power_w(2000, 32e6) > fpga_power_w(1000, 32e6)

    def test_fpga_static_floor(self):
        assert fpga_power_w(0, 0.0) == pytest.approx(0.020)


class TestMeterAndBattery:
    def test_meter_totals(self):
        meter = EnergyMeter()
        meter.record("a", 1.0, 2.0)
        meter.record("b", 0.5, 4.0)
        assert meter.total_energy_j == pytest.approx(4.0)
        assert meter.total_time_s == pytest.approx(6.0)
        assert meter.average_power_w == pytest.approx(4.0 / 6.0)
        assert meter.by_label() == {"a": 2.0, "b": 2.0}

    def test_meter_empty_average_rejected(self):
        with pytest.raises(ConfigurationError):
            _ = EnergyMeter().average_power_w

    def test_duty_cycle_profile(self):
        meter = duty_cycle_profile(active_power_w=0.283, active_time_s=0.1,
                                   sleep_power_w=30e-6, period_s=60.0,
                                   wakeup_power_w=0.1, wakeup_time_s=0.022)
        assert meter.total_time_s == pytest.approx(60.0)
        # Dominated by the short active burst.
        assert meter.average_power_w < 1e-3

    def test_duty_cycle_rejects_overrun(self):
        with pytest.raises(ConfigurationError):
            duty_cycle_profile(1.0, 61.0, 1e-6, 60.0)

    def test_battery_energy(self):
        assert LIPO_1000MAH.energy_j == pytest.approx(13320.0)

    def test_battery_lifetime_sleep_only(self):
        years = LIPO_1000MAH.lifetime_years(30e-6)
        assert years > 14.0

    def test_battery_operations(self):
        # Paper: 6144 mJ per LoRa OTA update -> ~2100 updates.
        assert LIPO_1000MAH.operations_supported(6.144) == \
            pytest.approx(2167, abs=1)

    def test_battery_rejects_zero_power(self):
        with pytest.raises(ConfigurationError):
            LIPO_1000MAH.lifetime_s(0.0)

    def test_usable_fraction(self):
        derated = Battery(1000.0, 3.7, usable_fraction=0.5)
        assert derated.energy_j == pytest.approx(LIPO_1000MAH.energy_j / 2)
