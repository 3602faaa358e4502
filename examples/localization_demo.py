"""Phase-based localization with tinySDR's I/Q access (paper section 7).

Because the platform exposes raw I/Q, a node can measure carrier phase -
"the basis for many localization algorithms".  This demo ranges a target
by hopping 16 carriers across the 900 MHz band and fitting the phase
slope, then locates it in 2-D by combining the range with a two-antenna
angle-of-arrival measurement.

Run:  python examples/localization_demo.py
"""

import math

import numpy as np

from repro.localization.ranging import angle_of_arrival, multicarrier_range

rng = np.random.default_rng(29)

true_distance_m = 63.7
true_angle_deg = 24.0

print(f"target: {true_distance_m} m away at {true_angle_deg} deg\n")

# Ranging: 16 hops of 500 kHz starting at 915 MHz.
print("multi-carrier ranging (16 hops x 500 kHz):")
for snr in (20.0, 5.0, -5.0):
    result = multicarrier_range(915e6, 500e3, 16, true_distance_m,
                                snr_db=snr, rng=rng)
    error = abs(result.distance_m - true_distance_m)
    print(f"  SNR {snr:5.1f} dB: {result.distance_m:7.2f} m "
          f"(error {error * 100:6.1f} cm, "
          f"residual {result.residual_rad:.3f} rad)")

# Angle of arrival at 2.4 GHz with lambda/2 spacing.
frequency = 2.44e9
spacing = 299_792_458.0 / frequency / 2.0
print(f"\ntwo-antenna AoA at 2.44 GHz (spacing {spacing * 100:.1f} cm):")
for snr in (20.0, 5.0):
    result = angle_of_arrival(frequency, spacing,
                              math.radians(true_angle_deg),
                              snr_db=snr, rng=rng)
    print(f"  SNR {snr:5.1f} dB: {math.degrees(result.angle_rad):6.1f} deg")

# Combine into a position fix.
range_fix = multicarrier_range(915e6, 500e3, 16, true_distance_m,
                               snr_db=15.0, rng=rng)
aoa_fix = angle_of_arrival(frequency, spacing,
                           math.radians(true_angle_deg), snr_db=15.0,
                           rng=rng)
x = range_fix.distance_m * math.cos(aoa_fix.angle_rad)
y = range_fix.distance_m * math.sin(aoa_fix.angle_rad)
truth_x = true_distance_m * math.cos(math.radians(true_angle_deg))
truth_y = true_distance_m * math.sin(math.radians(true_angle_deg))
position_error = math.hypot(x - truth_x, y - truth_y)
print(f"\ncombined 2-D fix: ({x:.1f}, {y:.1f}) m, "
      f"error {position_error:.2f} m")
