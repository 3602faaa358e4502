"""OTA campaign: reprogram a 20-node campus testbed over the air.

Deploys 20 tinySDR nodes across a synthetic campus, then pushes the BLE
firmware to every node over the LoRa backbone - compression, the
stop-and-wait MAC with retransmissions, flash staging, block
decompression and FPGA reconfiguration - and prints the per-node
programming times that paper Fig. 14 plots as a CDF.

Run:  python examples/ota_testbed_campaign.py  (takes ~10 s)
"""

import numpy as np

from repro.fpga.bitstream import generate_bitstream
from repro.ota.ap import AccessPoint
from repro.testbed.deployment import campus_deployment

rng = np.random.default_rng(42)

deployment = campus_deployment(num_nodes=20, seed=2020)
image = generate_bitstream(utilization=0.03, seed=43)  # the BLE design
print(f"pushing a {len(image) / 1024:.0f} kB bitstream to "
      f"{len(deployment.nodes)} nodes over SF8/BW500/CR6...\n")

# One session per node, as in the paper's Fig. 14 runs (no retries).
campaign = AccessPoint(deployment, image,
                       max_attempts_per_node=1).run_campaign(rng)

print(f"{'node':>4s} {'dist':>7s} {'RSSI':>7s} {'time':>7s} "
      f"{'retx':>5s} {'energy':>8s}")
rows = sorted(zip(campaign.sessions, deployment.nodes),
              key=lambda row: row[0].report.total_time_s
              if row[0].succeeded else float("inf"))
for session, node in rows:
    if not session.succeeded:
        print(f"{session.node_id:4d} {node.distance_m:5.0f} m "
              f"{session.downlink_rssi_dbm:5.0f}  FAILED")
        continue
    report = session.report
    print(f"{session.node_id:4d} {node.distance_m:5.0f} m "
          f"{session.downlink_rssi_dbm:5.0f} "
          f"{report.total_time_s:5.0f} s "
          f"{report.transfer.retransmissions:5d} "
          f"{report.node_energy_j * 1e3:6.0f} mJ")

durations, probabilities = campaign.cdf()
print(f"\nmean {campaign.mean_duration_s():.0f} s "
      f"(paper: ~59 s for the BLE image)")
print("CDF quartiles: "
      + ", ".join(f"P{int(q * 100)}={np.quantile(durations, q):.0f}s"
                  for q in (0.25, 0.5, 0.75, 1.0)))
print(f"total fleet energy: {campaign.total_node_energy_j():.0f} J")
