"""Testbed-as-a-service: the multi-tenant campaign service end to end.

A real over-the-air testbed serves researchers who do not own the
nodes: jobs arrive from several tenants, get admitted under quotas and
token-bucket rate limits, wait in a priority queue, and — because every
engine here is a pure function of ``(kind, config, seed)`` — identical
seeded jobs are served straight from a content-addressed result cache
with zero engine recompute.  The whole service runs on *virtual* time
(one seeded simulation timeline, no wall clock), so a session like this
one is bit-replayable.

This script walks that pipeline: two tenants submit a burst of jobs
(sweeps, a campus OTA campaign, an ADR study, and one duplicate), the
scheduler drains them in priority order, and the service's ledger and
stats show the admission decisions, the cache hit and the per-kind
engine invocation counts.

Run:  python examples/campaign_service.py   (about a second)
"""

from repro.service import (
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    CampaignService,
    JobSpec,
    TenantConfig,
)

service = CampaignService(
    seed=2020,
    tenants=(TenantConfig(name="phy-lab", max_pending=8,
                          bucket_capacity=4.0, refill_per_s=2.0),))

# A burst of work from two tenants.  Note the duplicate sweep (same
# kind, config and seed): its content address matches job 1, so the
# service will answer it from the result cache without re-running the
# engine.
specs = (
    JobSpec(kind="sweep-ble", config={"packets": 4, "stop_dbm": -86.0},
            seed=7),
    JobSpec(kind="campaign", config={"image": "ble", "nodes": 5},
            seed=7, tenant="phy-lab"),
    JobSpec(kind="sweep-lora",
            config={"symbols": 20, "stop_dbm": -116.0, "step_db": 6.0},
            seed=7, priority=PRIORITY_HIGH),
    JobSpec(kind="sweep-ble", config={"packets": 4, "stop_dbm": -86.0},
            seed=7),
    JobSpec(kind="adr", seed=7, tenant="phy-lab",
            priority=PRIORITY_BATCH),
)
jobs = [service.submit(spec) for spec in specs]
finished = service.run_until_idle()

print(f"{'job':>4s} {'kind':12s} {'tenant':8s} {'state':10s} "
      f"{'cache':6s} {'virtual span':>14s}")
for job in jobs:
    span = (f"{job.completed_at_s - job.started_at_s:10.3f} s"
            if job.completed_at_s is not None else "-")
    print(f"{job.job_id:4d} {job.spec.kind:12s} {job.spec.tenant:8s} "
          f"{job.state:10s} {'hit' if job.cache_hit else '-':6s} "
          f"{span:>14s}")

# The high-priority LoRa sweep jumped the queue even though it was
# submitted third; the duplicate BLE sweep completed without touching
# the engine.
duplicate = jobs[3]
assert duplicate.cache_hit
assert duplicate.result.fingerprint() == jobs[0].result.fingerprint()
print(f"\njob {duplicate.job_id} deduped against job {jobs[0].job_id}: "
      f"address {duplicate.spec.content_address[:16]}..., "
      f"payloads bit-identical")

# Every decision is journaled as service.* events on the virtual
# timeline; one job's stream reads like a lifecycle log.
print(f"\njob {duplicate.job_id} event stream:")
for event in service.job_events(duplicate.job_id):
    print(f"  t={event.t_start_s:8.4f} s  {event.kind:16s} {event.label}")

stats = service.stats()
print(f"\nservice stats: {stats.submitted} submitted, "
      f"{stats.admitted} admitted, {stats.completed} completed, "
      f"{stats.cache_hits} cache hit(s) "
      f"(hit ratio {stats.cache_hit_ratio:.2f})")
print(f"engine invocations: {stats.invocations}")
print(f"virtual clock at {stats.virtual_now_s:.3f} s "
      f"({len(service.timeline)} ledger events, zero wall-clock reads)")
