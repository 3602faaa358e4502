"""LoRa link exploration: sensitivity across spreading factors.

Sweeps received signal strength for several LoRa configurations and
prints each one's measured sensitivity (10 % symbol error), its data
rate, and the range that sensitivity buys over a campus-scale channel -
the classic LoRa rate/range trade-off, measured on the actual simulated
demodulator rather than from a datasheet.

Run:  python examples/lora_link_simulation.py  (takes ~1 minute)
"""

import numpy as np

from repro.channel.pathloss import LogDistanceModel
from repro.core.sweeps import find_sensitivity_dbm, lora_symbol_error_rate
from repro.phy.lora import LoRaParams

rng = np.random.default_rng(7)
channel = LogDistanceModel(frequency_hz=915e6, exponent=2.9)

print(f"{'Config':22s} {'Rate':>10s} {'Sensitivity':>12s} {'Range':>8s}")
print("-" * 58)

for sf in (7, 8, 9, 10):
    params = LoRaParams(spreading_factor=sf, bandwidth_hz=125e3)
    sweep = np.arange(-118.0, -140.0, -2.0)
    points = [lora_symbol_error_rate(params, rssi, 150, rng)
              for rssi in sweep]
    sensitivity = find_sensitivity_dbm(points, threshold=0.1)
    range_m = channel.range_for_sensitivity_m(14.0, sensitivity)
    print(f"{params.describe():22s} "
          f"{params.raw_bit_rate_bps:8.0f} bps "
          f"{sensitivity:9.0f} dBm "
          f"{range_m / 1e3:6.2f} km")

print("\nEach +1 SF costs half the rate and buys ~2.5 dB of sensitivity;")
print("the demodulator's FFT doubles in length each step (FPGA Table 6).")
