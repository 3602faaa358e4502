"""Fleet-scale OTA campaign: 100,000 nodes through one vectorized pass.

The timeline-backed campaign walks one node at a time and tops out
around ten thousand ledger events per second; the fleet engine keeps
every node's ARQ counters, retry budgets, flash banks and energy
accumulators in struct-of-arrays NumPy buffers and advances the whole
cohort one protocol round per step.  Because each node's randomness is
keyed by ``(seed, node_id, draw_index)``, the same campaign split
across any number of shards lands on bit-identical results — this
script proves it by re-running sharded and comparing energy exactly.

The full per-node report then streams to JSONL through the
bounded-memory writer, so nothing fleet-sized ever sits in RAM twice;
the sharded report's spill must match it byte for byte.

Run:  python examples/fleet_campaign.py  (takes a few seconds)
"""

import hashlib
import pathlib
import tempfile
import time

import numpy as np

from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
    run_fleet_campaign_sharded,
    simulate_node_timeline,
    write_fleet_spill,
)

config = FleetCampaignConfig(
    num_nodes=100_000,
    image_bytes=1800,
    seed=2020,
    loss=FleetBurstLoss(),       # bursty downlink, Gilbert-Elliott style
    verify_failure_prob=0.01)    # 1% of images fail CRC and roll back

print(f"pushing a {config.image_bytes} B image "
      f"({config.num_fragments} fragments) to {config.num_nodes:,} "
      "nodes...\n")

start = time.perf_counter()
report = run_fleet_campaign(config)
elapsed = time.perf_counter() - start

print(f"{'outcome':12s} {'nodes':>8s}")
for label, count in report.outcome_counts().items():
    print(f"{label:12s} {count:>8,d}")
print(f"\n{report.total_events:,} ledger events in {elapsed:.2f} s "
      f"({report.total_events / elapsed:,.0f} events/s)")
print(f"fleet energy {report.total_energy_j:,.1f} J")

# The hierarchical rollup answers ledger queries without a ledger.
rollup = report.rollup
print(f"data packets received: {rollup.count('packet.rx'):,} "
      f"({rollup.count('packet.timeout'):,} timeouts, "
      f"{rollup.count('fault.loss'):,} burst losses)")

# Sharding is a pure partition of the node-id space: same seed, any
# shard count, bit-identical results.
sharded = run_fleet_campaign_sharded(config, shards=8)
assert sharded.total_energy_j == report.total_energy_j
assert np.array_equal(sharded.outcome_codes, report.outcome_codes)
print("\n8-way sharded re-run is bit-identical (energy and outcomes)")

# Any single node's full event timeline can be reconstructed on demand
# instead of storing 100k ledgers.
node = int(np.argmax(report.timeouts))
timeline = simulate_node_timeline(config, node)
print(f"worst node #{node}: {report.timeouts[node]} timeouts, "
      f"{len(timeline)} events replayed on demand")

# Stream the report to disk through the bounded-memory writer; the
# 8-way sharded report spills to the very same bytes.
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "fleet_campaign.jsonl"
    stats = write_fleet_spill(report, path)
    size_kb = path.stat().st_size // 1024
    print(f"spilled {stats['rows_written']:,} rows ({size_kb:,} KiB) with "
          f"only {stats['max_buffered']} rows ever resident")
    sharded_path = pathlib.Path(tmp) / "fleet_campaign_8_shards.jsonl"
    write_fleet_spill(sharded, sharded_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashlib.sha256(sharded_path.read_bytes()).hexdigest() == digest
    print(f"8-way sharded spill is byte-identical (sha256 {digest[:16]})")
