"""A drive-by OTA update: programming a node in motion.

Battery operation "would also allow for flexibility of deployment in
spaces without dedicated power access, or even in mobile scenarios"
(paper section 1).  Here a node mounted on a vehicle drives past the AP
while taking a firmware transfer: the link strengthens on approach,
delivers clean fragments at closest pass, and accumulates
retransmissions as the vehicle leaves.

Run:  python examples/mobile_node.py
"""

import numpy as np

from repro.testbed import campus_deployment
from repro.testbed.mobility import (
    MobilePath,
    Waypoint,
    simulate_mobile_transfer,
)

rng = np.random.default_rng(33)
deployment = campus_deployment(shadowing_sigma_db=0.0)

# A 3 km drive past the AP at 14 m/s (~50 km/h), closest approach 150 m.
path = MobilePath([Waypoint(-1500, 150), Waypoint(1500, 150)],
                  speed_m_s=14.0)
image = bytes(range(256)) * 160  # a 40 kB compressed-image-sized payload

print(f"vehicle: {path.total_length_m / 1e3:.1f} km at "
      f"{path.speed_m_s:.0f} m/s, closest approach 150 m")
print(f"image: {len(image) // 1024} kB over SF8/BW500\n")

result = simulate_mobile_transfer(deployment, path, image, rng)
report = result.report

print(f"transfer {'FAILED' if report.failed else 'completed'} in "
      f"{report.duration_s:.0f} s")
print(f"  fragments delivered: {report.packets_delivered}")
print(f"  retransmissions:     {report.retransmissions}")

# Show the RSSI profile in 10 slices of the session.
trace = result.rssi_trace
print("\nlink profile across the session:")
slices = np.array_split(np.array([r for _, r in trace]), 10)
for index, chunk in enumerate(slices):
    if chunk.size == 0:
        continue
    mean_rssi = float(np.mean(chunk))
    bar = "#" * max(0, int((mean_rssi + 130) / 2))
    print(f"  {index * 10:3d}% {mean_rssi:7.1f} dBm  {bar}")
