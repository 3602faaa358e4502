"""Chaos campaign: reprogram a testbed while everything goes wrong.

Runs the hardened OTA pipeline (resumable transfers, dual-bank flash
with a golden fallback, CRC-verify-before-boot, watchdog) against a
fully seeded fault plan - bursty packet loss, in-flight corruption,
flash page failures and stuck bits, node brownouts, AP outage windows
and MCU hangs, all at once - and prints how each node coped.  The run
is bit-reproducible: rerun it and every injected fault lands on the
same packet.

Run:  python examples/chaos_campaign.py  (takes a few seconds)
"""

import numpy as np

from repro.faults.models import (
    ApOutageModel,
    BrownoutModel,
    CorruptionModel,
    FlashFaultModel,
    GilbertElliott,
    HangModel,
)
from repro.faults.plan import FaultPlan
from repro.ota.ap import AccessPoint
from repro.retry import RetryPolicy
from repro.sim.events import FAULT_KINDS
from repro.testbed.deployment import campus_deployment

SEED = 2026

plan = FaultPlan(
    seed=SEED,
    burst_loss=GilbertElliott(seed=SEED, p_enter_bad=0.08,
                              p_exit_bad=0.35, loss_bad=0.8),
    corruption=CorruptionModel(seed=SEED, per_packet_prob=0.02),
    flash=FlashFaultModel(seed=SEED, page_failure_prob=0.002,
                          stuck_bit_prob=0.002),
    brownout=BrownoutModel(seed=SEED, prob_per_fragment=0.005,
                           reboot_time_s=2.0),
    ap_outage=ApOutageModel(seed=SEED, mean_interval_s=600.0,
                            mean_duration_s=20.0),
    hang=HangModel(seed=SEED, hang_prob=0.1))

policy = RetryPolicy(backoff="exponential", base_delay_s=0.25,
                     max_delay_s=4.0, jitter_fraction=0.1, seed=SEED)

deployment = campus_deployment(num_nodes=6, max_radius_m=400.0, seed=7)
image = np.random.default_rng(11).integers(
    0, 256, 8192, dtype=np.uint8).tobytes()

print(f"pushing {len(image) // 1024} kB to {len(deployment.nodes)} nodes "
      "through a hostile world...\n")
ap = AccessPoint(deployment, image, max_attempts_per_node=3)
campaign = ap.run_campaign(np.random.default_rng(SEED),
                           faults=plan, policy=policy)

print(f"{'node':>4s} {'outcome':>12s} {'attempts':>8s} {'resumes':>7s} "
      f"{'rollbk':>6s} {'wdog':>5s}")
for session in campaign.sessions:
    print(f"{session.node_id:4d} {session.outcome:>12s} "
          f"{session.attempts:8d} {session.resumes:7d} "
          f"{session.rollbacks:6d} {session.watchdog_resets:5d}")
    for error in session.errors:
        print(f"       - {error}")

injected = {kind: campaign.timeline.count(kinds={kind})
            for kind in sorted(FAULT_KINDS)}
print("\ninjected faults on the ledger:")
for kind, count in injected.items():
    if count:
        print(f"  {kind:16s} {count:5d}")
print(f"\noutcomes: {campaign.outcome_counts()}")
print(f"campaign wall clock: {campaign.total_time_s / 60:.1f} min "
      f"({campaign.retries} retry waits)")
