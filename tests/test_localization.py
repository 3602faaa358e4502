"""Tests for phase-based ranging and angle-of-arrival estimation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.localization.ranging import (
    angle_of_arrival,
    estimate_phase,
    multicarrier_range,
    received_tone,
    tone_phase_at_distance,
)


class TestPhasePrimitives:
    def test_phase_wraps_every_wavelength(self):
        frequency = 915e6
        wavelength = 299_792_458.0 / frequency
        a = tone_phase_at_distance(frequency, 10.0)
        b = tone_phase_at_distance(frequency, 10.0 + wavelength)
        assert a == pytest.approx(b, abs=1e-6)

    def test_phase_at_zero_distance(self):
        assert tone_phase_at_distance(915e6, 0.0) == pytest.approx(0.0)

    def test_estimate_phase_of_clean_tone(self):
        samples = np.full(100, np.exp(1j * 0.7))
        assert estimate_phase(samples) == pytest.approx(0.7)

    def test_estimate_phase_averages_noise(self, rng):
        samples = received_tone(915e6, 25.0, 4096, snr_db=0.0, rng=rng)
        truth = tone_phase_at_distance(915e6, 25.0)
        error = abs(math.remainder(estimate_phase(samples) - truth,
                                   2 * math.pi))
        assert error < 0.1

    def test_empty_capture_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_phase(np.array([]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            tone_phase_at_distance(915e6, -1.0)


class TestRanging:
    @pytest.mark.parametrize("distance", [5.0, 42.0, 150.0, 380.0])
    def test_accuracy_at_good_snr(self, distance, rng):
        result = multicarrier_range(915e6, 500e3, 16, distance,
                                    snr_db=15.0, rng=rng)
        assert result.distance_m == pytest.approx(distance, abs=0.5)

    def test_unambiguous_range(self, rng):
        result = multicarrier_range(915e6, 500e3, 8, 10.0, snr_db=20.0,
                                    rng=rng)
        assert result.unambiguous_range_m == pytest.approx(599.6, rel=0.01)

    def test_aliasing_beyond_unambiguous_range(self, rng):
        # 700 m aliases to 700 - 599.6 ~ 100.4 m.
        result = multicarrier_range(915e6, 500e3, 16, 700.0, snr_db=20.0,
                                    rng=rng)
        assert result.distance_m == pytest.approx(
            700.0 - result.unambiguous_range_m, abs=1.0)

    def test_accuracy_degrades_with_noise(self, rng):
        errors = {}
        for snr in (20.0, -5.0):
            trials = [abs(multicarrier_range(915e6, 500e3, 8, 60.0,
                                             snr_db=snr, rng=rng,
                                             samples_per_tone=64
                                             ).distance_m - 60.0)
                      for _ in range(10)]
            errors[snr] = np.mean(trials)
        assert errors[20.0] < errors[-5.0]

    def test_residual_reports_quality(self, rng):
        clean = multicarrier_range(915e6, 500e3, 16, 30.0, snr_db=25.0,
                                   rng=rng)
        noisy = multicarrier_range(915e6, 500e3, 16, 30.0, snr_db=-5.0,
                                   rng=rng)
        assert clean.residual_rad < noisy.residual_rad

    def test_needs_two_carriers(self, rng):
        with pytest.raises(ConfigurationError):
            multicarrier_range(915e6, 500e3, 1, 10.0, 20.0, rng)


class TestAngleOfArrival:
    @pytest.mark.parametrize("angle_deg", [-60, -20, 0, 35, 70])
    def test_accuracy(self, angle_deg, rng):
        frequency = 2.44e9
        wavelength = 299_792_458.0 / frequency
        result = angle_of_arrival(frequency, wavelength / 2,
                                  math.radians(angle_deg), snr_db=20.0,
                                  rng=rng)
        assert math.degrees(result.angle_rad) == pytest.approx(
            angle_deg, abs=3.0)

    def test_spacing_limit_enforced(self, rng):
        frequency = 2.44e9
        wavelength = 299_792_458.0 / frequency
        with pytest.raises(ConfigurationError):
            angle_of_arrival(frequency, wavelength, 0.0, 20.0, rng)

    def test_angle_limit_enforced(self, rng):
        with pytest.raises(ConfigurationError):
            angle_of_arrival(2.44e9, 0.05, math.pi, 20.0, rng)

    def test_boresight_phase_is_zero(self, rng):
        result = angle_of_arrival(2.44e9, 0.06, 0.0, snr_db=30.0, rng=rng)
        assert abs(result.phase_difference_rad) < 0.1
