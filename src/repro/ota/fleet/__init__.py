"""Fleet-scale OTA campaigns: vectorized cohorts, shards, rollups.

The paper's OTA story (section 3.4) is evaluated on a 20-node campus
testbed; an over-the-air *testbed platform* has to reason about fleets
far past what the per-event simulation in :mod:`repro.ota.ap` can
step.  This package is the fleet-scale hot path:

* :mod:`~repro.ota.fleet.rng` — counter-based per-node random streams,
  the property that makes shard count irrelevant to results.
* :mod:`~repro.ota.fleet.config` — the frozen campaign description.
* :mod:`~repro.ota.fleet.link` — full-fleet placement/RSSI/PER tables.
* :mod:`~repro.ota.fleet.engine` — the vectorized cohort stepper, its
  bit-exact scalar ``*_reference`` twin, per-node timeline drill-down
  and the bounded-memory JSONL spill.
* :mod:`~repro.ota.fleet.shard` — deterministic partitioning across a
  process pool.
"""

from repro.ota.fleet.config import FleetBurstLoss, FleetCampaignConfig
from repro.ota.fleet.engine import (
    FleetReport,
    OUTCOME_LABELS,
    finalize_fleet,
    run_fleet_campaign,
    run_fleet_campaign_reference,
    simulate_node_timeline,
    write_fleet_spill,
)
from repro.ota.fleet.link import (
    FleetLinkPlan,
    fleet_packet_error_probability,
    prepare_links,
)
from repro.ota.fleet.shard import (
    run_fleet_campaign_sharded,
    shard_ranges,
)

__all__ = [
    "FleetBurstLoss",
    "FleetCampaignConfig",
    "FleetLinkPlan",
    "FleetReport",
    "OUTCOME_LABELS",
    "finalize_fleet",
    "fleet_packet_error_probability",
    "prepare_links",
    "run_fleet_campaign",
    "run_fleet_campaign_reference",
    "run_fleet_campaign_sharded",
    "shard_ranges",
    "simulate_node_timeline",
    "write_fleet_spill",
]
