"""Tests for repro.units: dB math, noise floors, LoRa airtime.

The duty-cycle and battery-lifetime cases run on the one implementation
of each, :func:`repro.power.duty_cycle_profile` and
:class:`repro.power.Battery`.
"""

import math

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.power.battery import Battery
from repro.power.meter import duty_cycle_profile


class TestDbConversions:
    def test_db_to_linear_zero_db_is_unity(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)

    def test_db_to_linear_ten_db_is_ten(self):
        assert units.db_to_linear(10.0) == pytest.approx(10.0)

    def test_linear_to_db_roundtrip(self):
        assert units.linear_to_db(units.db_to_linear(7.3)) == pytest.approx(7.3)

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.linear_to_db(0.0)

    def test_dbm_mw_roundtrip(self):
        assert units.mw_to_dbm(units.dbm_to_mw(-93.7)) == pytest.approx(-93.7)

    def test_zero_dbm_is_one_milliwatt(self):
        assert units.dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_dbm_to_watts(self):
        assert units.dbm_to_watts(30.0) == pytest.approx(1.0)

    def test_watts_to_dbm(self):
        assert units.watts_to_dbm(0.001) == pytest.approx(0.0)

    def test_mw_to_dbm_rejects_negative(self):
        with pytest.raises(ValueError):
            units.mw_to_dbm(-1.0)


class TestNoiseFloor:
    def test_one_hz_floor_is_minus_174(self):
        assert units.noise_floor_dbm(1.0) == pytest.approx(-174.0)

    def test_lora_125khz_floor(self):
        # -174 + 10log10(125e3) ~ -123.03 dBm (plus NF)
        assert units.noise_floor_dbm(125e3) == pytest.approx(-123.03, abs=0.05)

    def test_noise_figure_adds_directly(self):
        base = units.noise_floor_dbm(125e3)
        assert units.noise_floor_dbm(125e3, 6.0) == pytest.approx(base + 6.0)

    def test_doubling_bandwidth_adds_3db(self):
        delta = units.noise_floor_dbm(250e3) - units.noise_floor_dbm(125e3)
        assert delta == pytest.approx(3.01, abs=0.01)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            units.noise_floor_dbm(0.0)

    def test_snr_rssi_roundtrip(self):
        snr = units.snr_from_rssi(-120.0, 125e3, 6.0)
        assert units.rssi_from_snr(snr, 125e3, 6.0) == pytest.approx(-120.0)


class TestPathLossAndCombining:
    def test_free_space_loss_grows_20db_per_decade(self):
        loss10 = units.free_space_path_loss_db(10.0, 915e6)
        loss100 = units.free_space_path_loss_db(100.0, 915e6)
        assert loss100 - loss10 == pytest.approx(20.0)

    def test_free_space_loss_915mhz_1m(self):
        # FSPL(1 m, 915 MHz) ~ 31.7 dB
        assert units.free_space_path_loss_db(1.0, 915e6) == pytest.approx(
            31.7, abs=0.1)

    def test_rejects_zero_distance(self):
        with pytest.raises(ValueError):
            units.free_space_path_loss_db(0.0, 915e6)

    def test_combining_equal_powers_adds_3db(self):
        assert units.combine_powers_dbm(-100.0, -100.0) == pytest.approx(
            -97.0, abs=0.05)

    def test_combining_dominant_power_wins(self):
        combined = units.combine_powers_dbm(-90.0, -120.0)
        assert combined == pytest.approx(-90.0, abs=0.01)

    def test_combining_requires_input(self):
        with pytest.raises(ValueError):
            units.combine_powers_dbm()


class TestLoRaRates:
    def test_symbol_duration_sf8_bw125(self):
        assert units.lora_symbol_duration_s(8, 125e3) == pytest.approx(
            2.048e-3)

    def test_paper_rate_sf8_bw125(self):
        # Paper quotes -126 dBm sensitivity "for 3.12 kbps" at SF8/BW125.
        rate = units.lora_bit_rate_bps(8, 125e3)
        assert rate == pytest.approx(3906.25)
        # With CR 4/5 coding: 3125 bps - the paper's 3.12 kbps.
        coded = units.lora_bit_rate_bps(8, 125e3, 5)
        assert coded == pytest.approx(3125.0)

    def test_rate_rejects_bad_cr(self):
        with pytest.raises(ValueError):
            units.lora_bit_rate_bps(8, 125e3, 3)


class TestLoRaAirtime:
    def test_airtime_increases_with_payload(self):
        short = units.lora_airtime_s(10, 8, 125e3)
        long = units.lora_airtime_s(50, 8, 125e3)
        assert long > short

    def test_airtime_sf7_bw125_23bytes_known_value(self):
        # Classic LoRaWAN figure: 23-byte payload, SF7/125 kHz, CR4/5,
        # 8-symbol preamble, explicit header, CRC -> ~61.7 ms.
        airtime = units.lora_airtime_s(23, 7, 125e3)
        assert airtime == pytest.approx(61.7e-3, rel=0.02)

    def test_airtime_doubles_when_bandwidth_halves(self):
        fast = units.lora_airtime_s(20, 8, 250e3)
        slow = units.lora_airtime_s(20, 8, 125e3)
        assert slow / fast == pytest.approx(2.0)

    def test_ldro_auto_engages_for_slow_symbols(self):
        # SF12/BW125: 32.8 ms symbols -> LDRO on; forcing it off changes
        # the symbol count.
        auto = units.lora_airtime_s(30, 12, 125e3)
        forced_off = units.lora_airtime_s(30, 12, 125e3,
                                          low_data_rate_optimize=False)
        assert auto != forced_off

    def test_rejects_bad_sf(self):
        with pytest.raises(ValueError):
            units.lora_airtime_s(20, 5, 125e3)

    def test_rejects_bad_cr(self):
        with pytest.raises(ValueError):
            units.lora_airtime_s(20, 8, 125e3, coding_rate_denominator=9)


class TestDutyCycle:
    def test_full_duty_equals_active_power(self):
        meter = duty_cycle_profile(active_power_w=0.2, active_time_s=1.0,
                                   sleep_power_w=30e-6, period_s=1.0)
        assert meter.average_power_w == pytest.approx(0.2)

    def test_zero_duty_equals_sleep_power(self):
        meter = duty_cycle_profile(active_power_w=0.2, active_time_s=0.0,
                                   sleep_power_w=30e-6, period_s=1.0)
        assert meter.average_power_w == pytest.approx(30e-6)

    def test_tinysdr_sleep_dominates_at_low_duty(self):
        # 100 ms of 283 mW TX per hour: sleep power matters.
        meter = duty_cycle_profile(active_power_w=0.283, active_time_s=0.1,
                                   sleep_power_w=30e-6, period_s=3600.0)
        assert meter.average_power_w < 110e-6

    def test_high_sleep_power_platform_gains_nothing(self):
        # bladeRF-class sleep (717 mW) swamps any duty cycling.
        meter = duty_cycle_profile(active_power_w=1.5, active_time_s=0.1,
                                   sleep_power_w=0.717, period_s=3600.0)
        assert meter.average_power_w > 0.7

    def test_rejects_active_exceeding_period(self):
        with pytest.raises(ConfigurationError):
            duty_cycle_profile(active_power_w=0.2, active_time_s=2.0,
                               sleep_power_w=30e-6, period_s=1.0)


class TestBatteryLifetime:
    def test_lifetime_scales_inversely_with_power(self):
        life1 = Battery(1000, 3.7).lifetime_s(1e-3)
        life2 = Battery(1000, 3.7).lifetime_s(2e-3)
        assert life1 / life2 == pytest.approx(2.0)

    def test_sleep_only_lifetime_exceeds_a_decade(self):
        life = Battery(1000, 3.7).lifetime_s(30e-6)
        assert life / (365.25 * 86400) > 10.0

    def test_rejects_zero_power(self):
        with pytest.raises(ConfigurationError):
            Battery(1000, 3.7).lifetime_s(0.0)
