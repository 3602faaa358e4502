"""FPGA design-space explorer: what fits on tinySDR's ECP5?

Uses the calibrated resource model (paper Table 6) to price out designs
beyond the paper's case studies: how many concurrent LoRa branches fit,
what a combined LoRa+BLE personality costs, and where the 24k-LUT
device runs out - the kind of question a testbed user asks before
writing Verilog.

Run:  python examples/fpga_design_explorer.py
"""

from repro.errors import ResourceExhaustedError
from repro.fpga.resources import (
    LFE5U_25F_LUTS,
    ble_tx_design,
    concurrent_rx_design,
    lora_rx_design,
    lora_tx_design,
)

print(f"device: LFE5U-25F, {LFE5U_25F_LUTS} LUTs\n")

print("paper case studies:")
for report in (lora_tx_design(8), lora_rx_design(8), ble_tx_design(),
               concurrent_rx_design([8, 8])):
    print(f"  {report.name:22s} {report.luts:6d} LUTs "
          f"({report.lut_utilization * 100:5.1f}%)")

print("\ndemodulator growth with spreading factor:")
for sf in range(6, 13):
    report = lora_rx_design(sf)
    bar = "#" * round(report.lut_utilization * 200)
    print(f"  SF{sf:<3d} {report.luts:5d} LUTs  {bar}")

print("\nhow many concurrent SF8 branches fit?")
branches = 1
while True:
    try:
        report = concurrent_rx_design([8] * (branches + 1))
    except ResourceExhaustedError:
        break
    branches += 1
    print(f"  {branches} branches: {report.luts} LUTs "
          f"({report.lut_utilization * 100:.0f}%)")
print(f"  -> up to {branches} orthogonal LoRa streams on one endpoint")

print("\na 'dual personality' (LoRa modem + BLE beacons, no reload):")
combined = (lora_tx_design(8).luts + lora_rx_design(8).luts
            + ble_tx_design().luts)
print(f"  {combined} LUTs ({combined / LFE5U_25F_LUTS * 100:.0f}%) - "
      "fits alongside plenty of custom logic")
