"""Trace an OTA campaign: export the simulation ledger, audit the bill.

Runs the access point's sequential 20-node reprogramming campaign, then
uses the `repro.sim` timeline that every layer (MAC, updater, flash,
MCU, FPGA) recorded onto:

* exports the ledger as Chrome ``trace_event`` JSON — open it in
  chrome://tracing or https://ui.perfetto.dev to see per-component
  swimlanes of the whole campaign — and as JSONL for scripted analysis;
* recomputes the fleet energy bill from raw events and checks it equals
  the report's figure bit-for-bit (reports are replay views over the
  same ledger, so this can never drift).

Run:  python examples/trace_campaign.py  (takes ~10 s)
"""

import pathlib
import tempfile

import numpy as np

from repro.fpga.bitstream import generate_bitstream
from repro.ota.ap import AccessPoint
from repro.ota.updater import node_energy_from_timeline
from repro.sim.trace import from_jsonl, write_chrome_trace, write_jsonl
from repro.testbed.deployment import campus_deployment

deployment = campus_deployment(max_radius_m=700.0, seed=3)
image = generate_bitstream(utilization=0.03, seed=43)
print(f"reprogramming {len(deployment.nodes)} nodes with a "
      f"{len(image) / 1024:.0f} kB bitstream...\n")

campaign = AccessPoint(deployment, image).run_campaign(
    np.random.default_rng(9))

ledger = campaign.timeline
print(f"campaign: {campaign.success_count}/{len(campaign.sessions)} nodes "
      f"in {campaign.total_time_s:.0f} s, {campaign.retries} retries")
print(f"ledger:   {len(ledger)} events across components "
      f"{', '.join(ledger.components())}")

# Export the ledger: Chrome trace for eyeballs, JSONL for scripts.
out_dir = pathlib.Path(tempfile.mkdtemp(prefix="tinysdr_trace_"))
chrome_path = write_chrome_trace(ledger, out_dir / "campaign_trace.json")
jsonl_path = write_jsonl(ledger, out_dir / "campaign_trace.jsonl")
print(f"\nwrote {chrome_path}  (open in chrome://tracing)")
print(f"wrote {jsonl_path}")

# The JSONL round-trip is lossless: clock and every event survive.
restored = from_jsonl(jsonl_path.read_text(encoding="utf-8"))
assert restored.events == ledger.events
assert restored.now_s == ledger.now_s

# Reports are views over the ledger, so the fleet energy bill can be
# re-derived from raw events — and matches bit-for-bit, not just close.
rederived_j = sum(node_energy_from_timeline(session.report.timeline)
                  for session in campaign.sessions if session.report)
reported_j = campaign.total_node_energy_j()
assert rederived_j == reported_j, "ledger and report books diverged!"
print(f"\nfleet energy, from reports: {reported_j:.6f} J")
print(f"fleet energy, from ledger:  {rederived_j:.6f} J  (bit-identical)")

# A sample audit only the event log can answer: where did the air time go?
per_component = ledger.time_by_component()
for component, busy_s in sorted(per_component.items(),
                                key=lambda item: -item[1]):
    print(f"  {component:<12s} {busy_s:10.2f} s busy")
