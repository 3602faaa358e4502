"""Concurrent LoRa reception on an IoT endpoint (paper section 6).

Two transmitters share one channel using orthogonal chirp slopes
(SF8/BW125 and SF8/BW250).  A single tinySDR-style receiver decodes
both streams with parallel dechirp-FFT branches, within the FPGA and
power budgets of an endpoint.  The script demodulates both streams at
equal power, then sweeps the interferer to show why endpoints need
power control - the paper's Fig. 15 narrative.

Run:  python examples/concurrent_reception.py  (takes ~20 s)
"""

import numpy as np

from repro.channel import LinkBudget, ReceivedSignal, receive
from repro.core.sweeps import concurrent_symbol_error_rates
from repro.fpga import concurrent_rx_design
from repro.phy.lora import ConcurrentReceiver, LoRaParams
from repro.phy.lora.chirp import chirp_train
from repro.power.pmu import PlatformState, PowerManagementUnit

rng = np.random.default_rng(6)

bw125 = LoRaParams(8, 125e3)
bw250 = LoRaParams(8, 250e3)
print(f"chirp slopes: {bw125.describe()} = "
      f"{bw125.chirp_slope_hz_per_s / 1e9:.2f} GHz/s, "
      f"{bw250.describe()} = {bw250.chirp_slope_hz_per_s / 1e9:.2f} GHz/s "
      f"-> orthogonal: {bw125.is_orthogonal_to(bw250)}")

# Resource and power cost on the endpoint (paper: 17 % LUTs, 207 mW).
design = concurrent_rx_design([8, 8])
pmu = PowerManagementUnit()
pmu.enter_state(PlatformState.CONCURRENT_RX)
print(f"endpoint cost: {design.luts} LUTs "
      f"({design.lut_utilization * 100:.0f}% of the FPGA), "
      f"{pmu.battery_power_w() * 1e3:.0f} mW while decoding\n")

# Decode two concurrent streams at equal received power.
receiver = ConcurrentReceiver([bw125, bw250])
branch125, branch250 = receiver.branch_params
n125 = 40
duration = n125 * branch125.samples_per_symbol
n250 = duration // branch250.samples_per_symbol
symbols125 = rng.integers(0, 256, n125)
symbols250 = rng.integers(0, 256, n250)
stream = receive(
    [ReceivedSignal(chirp_train(branch125, symbols125, quantized=True),
                    -112.0),
     ReceivedSignal(chirp_train(branch250, symbols250, quantized=True),
                    -112.0)],
    LinkBudget(bandwidth_hz=receiver.sample_rate_hz), rng,
    num_samples=duration)
results = receiver.demodulate(stream, [n125, n250])
errors125 = int(np.sum(results[0].symbols != symbols125))
errors250 = int(np.sum(results[1].symbols != symbols250))
print(f"equal power (-112 dBm): BW125 {errors125}/{n125} symbol errors, "
      f"BW250 {errors250}/{n250} symbol errors")

# Interference sweep: the weak BW125 branch vs a strengthening BW250.
print("\nBW125 pinned at -125 dBm; sweeping the BW250 interferer:")
print(f"{'interferer':>11s} {'BW125 SER':>10s}")
for interferer_dbm in (-130, -124, -118, -112, -106):
    point, _ = concurrent_symbol_error_rates(
        bw125, bw250, -125.0, float(interferer_dbm), 100, rng)
    print(f"{interferer_dbm:8d} dBm {point.error_rate * 100:9.1f}%")
print("\nnoise-dominated until the interferer nears the floor, then the")
print("interferer takes over - concurrent endpoints need power control.")
