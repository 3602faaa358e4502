"""Pinned determinism digests, computed in fresh interpreters.

Nondeterminism in a ledger, a journal or a fleet report does not show
up in one run: it shows up as a run under another ``PYTHONHASHSEED``,
shard count or process disagreeing with the committed result.  This
module holds the scripted scenarios behind every pinned digest (the
campaign service, the resilient service, its journal bytes, every
ledger writer and the fleet engine) and :func:`pinned_digests`, which
computes all of them once per hash seed in :data:`HASH_SEEDS`, each in
a fresh interpreter.  ``tests/test_determinism_pins.py`` compares every
digest under every hash seed with its committed value, so a set or dict
whose iteration order leaks into an output, a wall-clock or
process-identity read, or per-process state fails there whatever hash
seed the test process itself runs under.  The fleet campaign runs at
every shard count in :data:`FLEET_SHARDS` as well, which its
``(seed, node_id, draw_index)`` contract promises away.

The chaos suite and the examples reuse the scenario functions: the
resilient session is the crash-recovery parity oracle.  Each scenario
imports the engines it drives inside its own body, so a caller that
needs one helper here loads no engine it does not run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.ota.fleet.engine import FleetReport

#: PYTHONHASHSEED values every pinned digest is computed under: the
#: first four.  A set iterates in an order each hash seed picks afresh,
#: so a two-way order leak keeps the pinned order under all four with
#: odds of about one in sixteen, and a longer set's far less often.
HASH_SEEDS: tuple[str, ...] = tuple(str(seed) for seed in range(4))

#: Shard counts the pinned fleet campaign runs at in every interpreter.
FLEET_SHARDS: tuple[int, ...] = (1, 3)

#: Seconds an interpreter may take before the run is abandoned (one
#: takes about 2 s of CPU).
CHILD_TIMEOUT_S = 300


def fleet_fingerprint(report: "FleetReport") -> str:
    """Deterministic digest of everything a campaign produced.

    Hashes every per-node result array (name, dtype, shape, raw bytes)
    in field order plus the rollup's sorted spill rows, so any
    divergence anywhere in the report changes the digest.
    """
    import numpy as np

    digest = hashlib.sha256()
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if not isinstance(value, np.ndarray):
            continue
        digest.update(field.name.encode())
        digest.update(value.dtype.str.encode())
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    rows = json.dumps(report.rollup.to_rows(), sort_keys=True)
    digest.update(rows.encode())
    return digest.hexdigest()


def pinned_fleet_fingerprint(shards: int) -> str:
    """Fingerprint of the fleet example's campaign at 2,048 nodes."""
    from repro.ota.fleet import FleetBurstLoss, FleetCampaignConfig
    from repro.ota.fleet.shard import run_fleet_campaign_sharded

    config = FleetCampaignConfig(
        num_nodes=2048, image_bytes=1800, seed=2020,
        loss=FleetBurstLoss(), verify_failure_prob=0.01)
    return fleet_fingerprint(
        run_fleet_campaign_sharded(config, shards=shards))


# -- scripted service sessions ----------------------------------------------

def service_session_fingerprint(seed: int) -> str:
    """Run a scripted multi-tenant service session and digest it all.

    The session exercises every decision path the scheduler has:
    priorities out of submission order, a second tenant with tight
    limits, a duplicate seeded spec (a cache hit), and enough
    submissions to trip the tight tenant's quota.  The digest covers
    each job's lifecycle and result fingerprint, every ledger row
    (kind, label, bit-exact timestamps) and the final stats, so *any*
    divergence anywhere in the service changes it.
    """
    from repro.service import (
        PRIORITY_BATCH,
        PRIORITY_HIGH,
        CampaignService,
        JobSpec,
        TenantConfig,
    )

    service = CampaignService(
        seed=seed,
        tenants=(TenantConfig(name="lab", max_pending=2,
                              bucket_capacity=2.0, refill_per_s=1.0),))
    specs = (
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed),
        JobSpec(kind="sweep-lora",
                config={"symbols": 10, "stop_dbm": -116.0,
                        "step_db": 6.0},
                seed=seed, priority=PRIORITY_HIGH),
        JobSpec(kind="campaign", config={"nodes": 3}, seed=seed,
                tenant="lab"),
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed),
        JobSpec(kind="adr", seed=seed, tenant="lab",
                priority=PRIORITY_BATCH),
        JobSpec(kind="info", seed=seed, priority=PRIORITY_BATCH),
        JobSpec(kind="power", seed=seed, tenant="lab"),
    )
    for spec in specs:
        service.submit(spec)
    service.run_until_idle()

    return service_digest(service)


def service_digest(service) -> str:
    """Deterministic digest of everything a service session produced.

    Covers each job's lifecycle (state, attempts, cache verdict,
    detail) and result fingerprint, every ledger row with bit-exact
    float timestamps, and the full stats snapshot.  Any divergence
    anywhere in admission, scheduling, supervision, caching or event
    journaling changes the digest — which is exactly what makes it the
    crash-recovery parity oracle: a recovered session must reproduce
    the uninterrupted session's digest bit-for-bit.
    """
    digest = hashlib.sha256()
    for job in service.jobs():
        digest.update(
            f"{job.job_id}|{job.state}|{int(job.cache_hit)}|"
            f"{job.attempts}|{job.detail}".encode())
        if job.result is not None:
            digest.update(job.result.fingerprint().encode())
    for event in service.timeline:
        digest.update(
            f"{event.kind}|{event.label}|{event.t_start_s.hex()}|"
            f"{event.duration_s.hex()}".encode())
    stats = service.stats()
    digest.update(json.dumps(
        {"submitted": stats.submitted, "admitted": stats.admitted,
         "rejected": stats.rejected, "completed": stats.completed,
         "failed": stats.failed, "quarantined": stats.quarantined,
         "shed": stats.shed, "cache_hits": stats.cache_hits,
         "virtual_now_s": stats.virtual_now_s.hex(),
         "invocations": stats.invocations, "tenants": stats.tenants},
        sort_keys=True).encode())
    return digest.hexdigest()


def resilient_session_tenants(seed: int):
    """The extra tenants the scripted resilient session registers.

    Exposed separately because a crash-recovery driver must re-add any
    tenant whose journal record the crash ate (tenant *configuration*
    is the operator's input, not derivable service state).
    """
    from repro.service import TenantConfig

    return (TenantConfig(name="lab", max_pending=4,
                         bucket_capacity=8.0, refill_per_s=8.0),)


def resilient_session_service(seed: int, journal=None):
    """A service with the full resilience stack armed, keyed by seed.

    Supervised retries with jittered backoff, a hair-trigger circuit
    breaker, queue-depth load shedding and seeded worker-crash /
    workload-hang chaos — every degradation path the scheduler has, so
    the session fingerprint covers all of them.
    """
    from repro.faults.service import (
        ServiceFaultPlan,
        WorkerCrashModel,
        WorkloadHangModel,
    )
    from repro.retry import RetryPolicy
    from repro.service import (
        BreakerConfig,
        CampaignService,
        SheddingPolicy,
        SupervisorConfig,
    )

    return CampaignService(
        seed=seed,
        journal=journal,
        tenants=resilient_session_tenants(seed),
        supervisor=SupervisorConfig(
            policy=RetryPolicy(max_attempts=3, backoff="exponential",
                               base_delay_s=0.5, jitter_fraction=0.1,
                               seed=seed + 1)),
        breakers=BreakerConfig(seed=seed + 2, failure_threshold=2,
                               open_duration_s=30.0),
        shedding=SheddingPolicy(queue_high_water=6),
        faults=ServiceFaultPlan(
            seed=seed + 3,
            worker_crash=WorkerCrashModel(seed=seed + 3, crash_prob=0.25),
            workload_hang=WorkloadHangModel(seed=seed + 3,
                                            hang_prob=0.2)))


def resilient_session_specs(seed: int):
    """The scripted resilient session's submissions, keyed by seed.

    Exercises every terminal state: cheap completions across two
    tenants, an exact duplicate (a cache hit), an always-failing spec
    whose two admitted copies fail and trip the ``sweep-lora`` breaker,
    and enough submissions that the last three (the failing spec's
    third copy among them) arrive at the queue's high-water mark and
    are shed.  Worker crashes and workload hangs add retries and, at
    some seeds, quarantines.
    """
    from repro.service import PRIORITY_HIGH, JobSpec

    poison = JobSpec(kind="sweep-lora",
                     config={"spreading_factor": 99}, seed=seed)
    return (
        JobSpec(kind="info", seed=seed),
        JobSpec(kind="power", seed=seed, tenant="lab"),
        poison,
        JobSpec(kind="sweep-ble",
                config={"packets": 2, "stop_dbm": -86.0}, seed=seed,
                priority=PRIORITY_HIGH),
        poison,
        JobSpec(kind="info", seed=seed),
        poison,
        JobSpec(kind="power", seed=seed + 1, tenant="lab"),
        JobSpec(kind="info", seed=seed + 1, tenant="lab"),
    )


def resilient_session_fingerprint(seed: int) -> str:
    """Digest of the scripted resilient session (no journal attached).

    The chaos suite's parity oracle: the same session journaled,
    crashed at an arbitrary record boundary and recovered must
    reproduce this exact digest.
    """
    service = resilient_session_service(seed)
    for spec in resilient_session_specs(seed):
        service.submit(spec)
    service.run_until_idle()
    return service_digest(service)


def ledger_fingerprint(seed: int) -> str:
    """Digest of every ledger a fixed scenario set writes, keyed by seed.

    The scenarios reach every module that records onto a
    :class:`~repro.sim.timeline.Timeline`: a classic and a hardened (fully
    faulted) three-node AP campaign, a broadcast campaign, one fleet
    node's reconstructed ledger, a tinySDR node's LoRa transmit and
    sleep (radio, MCU, FPGA and energy-meter ledgers) and the resilient
    service session.  Each ledger is hashed as its
    :func:`~repro.sim.trace.to_jsonl` text, so every field of every row
    counts — component and power included, which
    :func:`service_digest` leaves out.
    """
    import numpy as np

    from repro.core.tinysdr import TinySdr
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
    from repro.ota.broadcast import simulate_broadcast_campaign
    from repro.ota.fleet import FleetBurstLoss, FleetCampaignConfig
    from repro.ota.fleet.engine import simulate_node_timeline
    from repro.phy.lora import LoRaParams
    from repro.retry import RetryPolicy
    from repro.sim.timeline import Timeline
    from repro.sim.trace import to_jsonl
    from repro.testbed.deployment import campus_deployment

    deployment = campus_deployment(num_nodes=3, max_radius_m=400.0,
                                   seed=seed)
    image = np.random.default_rng(seed).integers(
        0, 256, 2048, dtype=np.uint8).tobytes()
    classic = AccessPoint(deployment, image, max_attempts_per_node=1
                          ).run_campaign(np.random.default_rng(seed))
    faults = FaultPlan(
        seed=seed,
        burst_loss=GilbertElliott(seed=seed, p_enter_bad=0.08,
                                  p_exit_bad=0.35, loss_bad=0.8),
        corruption=CorruptionModel(seed=seed, per_packet_prob=0.02),
        flash=FlashFaultModel(seed=seed, page_failure_prob=0.01,
                              stuck_bit_prob=0.01),
        brownout=BrownoutModel(seed=seed, prob_per_fragment=0.01,
                               reboot_time_s=2.0),
        ap_outage=ApOutageModel(seed=seed, mean_interval_s=600.0,
                                mean_duration_s=20.0),
        hang=HangModel(seed=seed, hang_prob=0.3))
    policy = RetryPolicy(backoff="exponential", base_delay_s=0.25,
                         max_delay_s=4.0, jitter_fraction=0.1, seed=seed)
    hardened = AccessPoint(deployment, image, max_attempts_per_node=3
                           ).run_campaign(np.random.default_rng(seed),
                                          faults=faults, policy=policy)
    broadcast = Timeline()
    simulate_broadcast_campaign(deployment, image,
                                np.random.default_rng(seed),
                                timeline=broadcast)
    fleet_node = simulate_node_timeline(
        FleetCampaignConfig(num_nodes=4, image_bytes=600, seed=seed,
                            loss=FleetBurstLoss()), 1)
    node = TinySdr(node_id=1)
    node.load_firmware("lora_modem")
    node.configure_lora(LoRaParams(spreading_factor=7, bandwidth_hz=125e3))
    node.transmit_lora(b"ledger")
    node.sleep()
    node.record_sleep(1.0)
    service = resilient_session_service(seed)
    for spec in resilient_session_specs(seed):
        service.submit(spec)
    service.run_until_idle()
    ledgers = (classic.timeline, hardened.timeline, broadcast, fleet_node,
               node.radio.timeline, node.mcu.timeline,
               node.configurator.timeline, node.meter.timeline,
               service.timeline)
    digest = hashlib.sha256()
    for ledger in ledgers:
        digest.update(to_jsonl(ledger).encode())
    return digest.hexdigest()


def resilient_journal_digest(seed: int) -> str:
    """``"<bytes> <sha256>"`` of the resilient session's journal file."""
    from repro.service import JobJournal

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.jsonl"
        journal = JobJournal(str(path))
        service = resilient_session_service(seed, journal=journal)
        for spec in resilient_session_specs(seed):
            service.submit(spec)
        service.run_until_idle()
        journal.close()
        raw = path.read_bytes()
    return f"{len(raw)} {hashlib.sha256(raw).hexdigest()}"


def pinned_scenarios() -> dict[str, str]:
    """Every pinned digest, computed in this interpreter, by name."""
    digests = {"service-2020": service_session_fingerprint(2020)}
    for seed in (0, 1, 7):
        digests[f"resilient-{seed}"] = resilient_session_fingerprint(seed)
    digests["journal-0"] = resilient_journal_digest(0)
    digests["ledgers-0"] = ledger_fingerprint(0)
    for shards in FLEET_SHARDS:
        digests[f"fleet-shards-{shards}"] = pinned_fleet_fingerprint(shards)
    return digests


def pinned_digests(
        hashseeds: Sequence[str] = HASH_SEEDS) -> dict[str, dict[str, str]]:
    """:func:`pinned_scenarios` in one fresh interpreter per hash seed.

    The interpreters run concurrently.  Returns hash seed -> digests.

    Raises:
        ReproError: when an interpreter fails.
        subprocess.TimeoutExpired: when one outlives
            :data:`CHILD_TIMEOUT_S`.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    children = {}
    for hashseed in hashseeds:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        children[hashseed] = subprocess.Popen(
            [sys.executable, "-c",
             "import json; from repro.analysis.determinism import "
             "pinned_scenarios; print(json.dumps(pinned_scenarios()))"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
    digests = {}
    try:
        for hashseed, child in children.items():
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
            if child.returncode != 0:
                raise ReproError(
                    f"pinned run under PYTHONHASHSEED={hashseed} failed: "
                    f"{stderr.strip()[-500:]}")
            digests[hashseed] = json.loads(stdout)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.communicate()
    return digests
