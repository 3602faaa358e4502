"""Double-run determinism diffing (``REPRO_DETERMINISM=1``, tier-1).

Nondeterminism in a ledger, a plan-cache key or a fleet report does
not show up in one run; it shows up as two runs of the same experiment
disagreeing.  This module runs the same workload **twice in separate
interpreters** under different ``PYTHONHASHSEED`` values, fingerprints
everything each run produced, and raises :class:`SanitizerError`
unless the hashes are bit-identical.  A hash-seed difference flushes
out surviving dict/set iteration-order dependence; separate processes
flush out wall-clock and process-identity reads.  A fleet campaign's
two runs (:func:`double_run_check`) also differ in shard count,
flushing out per-process accumulated state — the two runtime failure
modes the fleet engine's ``(seed, node_id, draw_index)`` contract
promises away.  The scripted sessions (:func:`session_double_run_check`:
the service, the resilient service, and every ledger writer in
:func:`ledger_fingerprint`) vary the hash seed only.

Every child runs :func:`_fingerprint_main`, configured by one JSON
environment value, :data:`ENV_RUN` = ``{"check", "arg"}``: a fleet
child gets the whole :class:`~repro.ota.fleet.config.FleetCampaignConfig`
in its :func:`~repro.service.resilience.codec.encode_config` form plus
its shard count, so it runs exactly the campaign it was given; a
session child gets its seed.  ``examples/fleet_campaign.py``,
``examples/campaign_service.py`` and ``examples/resilient_service.py``
re-prove the contract when ``REPRO_DETERMINISM=1`` is exported;
``tests/test_analysis_determinism.py`` runs every check in tier-1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.ota.fleet.config import FleetCampaignConfig
    from repro.ota.fleet.engine import FleetReport

#: Opt-in flag for the double-run determinism check.
DETERMINISM_ENV_VAR = "REPRO_DETERMINISM"

#: The subprocess entry point's one knob: ``{"check", "arg"}`` JSON.
ENV_RUN = "REPRO_DET_RUN"

#: (PYTHONHASHSEED, shard count) pairs for the two fleet runs.
#: Different hash seeds vary dict/set iteration order; different shard
#: counts vary the node partition.  Bit-exactness must survive both.
DEFAULT_RUNS: tuple[tuple[str, int], ...] = (("101", 1), ("202", 3))

#: PYTHONHASHSEED values for the two session runs.  A session has no
#: shard axis; hash-seed variation alone flushes out iteration-order
#: dependence in admission, scheduling, caching and event journaling.
SESSION_RUNS: tuple[str, ...] = ("101", "202")

#: Node-count cap for the fleet double run — enough nodes to exercise every
#: outcome path while keeping the check a sub-second affair per run.
DEFAULT_MAX_NODES = 2048


class SanitizerError(ReproError):
    """A runtime invariant check failed (a double run diverged)."""


def determinism_enabled(environ: dict[str, str] | None = None) -> bool:
    """Whether ``REPRO_DETERMINISM=1`` asks for double-run diffing."""
    env = os.environ if environ is None else environ
    return env.get(DETERMINISM_ENV_VAR, "") == "1"


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


def _sharded_fleet_fingerprint(arg: Mapping) -> str:
    """A fleet child's run: the encoded campaign at its shard count."""
    from repro.ota.fleet.config import FleetCampaignConfig
    from repro.ota.fleet.shard import run_fleet_campaign_sharded
    from repro.service.resilience.codec import decode_config

    config = decode_config(FleetCampaignConfig, arg["config"])
    return fleet_fingerprint(
        run_fleet_campaign_sharded(config, shards=arg["shards"]))


def _fingerprint_main() -> None:
    """Subprocess entry: run the check named in the env, print its digest."""
    run = json.loads(os.environ[ENV_RUN])
    # The env *is* the configuration channel here: the parent serialized
    # the run through it precisely so this run is replayable.
    print(_FINGERPRINTS[run["check"]](run["arg"]))


def _double_run(what: str, check: str,
                runs: Sequence[tuple[str, object, str]]) -> str:
    """Run ``check`` in a fresh interpreter per run and diff the digests.

    ``runs`` holds one ``(label, arg, hashseed)`` per child; each child's
    environment is the parent's plus :data:`ENV_RUN`
    (naming ``check`` and its ``arg``) and ``PYTHONHASHSEED``.  Returns
    the common fingerprint.

    Raises:
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    fingerprints: list[tuple[str, str]] = []
    for label, arg, hashseed in runs:
        env = dict(os.environ)
        env[ENV_RUN] = json.dumps({"check": check, "arg": arg})
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.analysis.determinism import _fingerprint_main; "
             "_fingerprint_main()"],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SanitizerError(
                f"{what} determinism run ({label}) failed: "
                f"{proc.stderr.strip()[-500:]}")
        fingerprints.append((label, proc.stdout.strip()))
    if len({fp for _, fp in fingerprints}) != 1:
        detail = ", ".join(f"{label} -> {fp[:16]}"
                           for label, fp in fingerprints)
        raise SanitizerError(
            f"{what} is not run-deterministic: {detail}; some value "
            f"depends on hash-seed iteration order or per-process state")
    return fingerprints[0][1]


def double_run_check(config: "FleetCampaignConfig",
                     runs: Sequence[tuple[str, int]] = DEFAULT_RUNS,
                     max_nodes: int = DEFAULT_MAX_NODES) -> str:
    """Run the campaign once per ``(hashseed, shards)`` pair and diff.

    Returns the common fingerprint.

    Raises:
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    from repro.service.resilience.codec import encode_config

    if config.num_nodes > max_nodes:
        config = dataclasses.replace(config, num_nodes=max_nodes)
    return _double_run(
        "fleet campaign", "fleet",
        [(f"hashseed={hashseed}, shards={shards}",
          {"config": encode_config(config), "shards": shards}, hashseed)
         for hashseed, shards in runs])


def check_from_env(config: "FleetCampaignConfig",
                   environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`double_run_check` when ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return double_run_check(config)


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
    from repro.ota.mac import RetryPolicy
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
    :class:`~repro.sim.Timeline`: a classic and a hardened (fully
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
    from repro.faults import (
        ApOutageModel,
        BrownoutModel,
        CorruptionModel,
        FaultPlan,
        FlashFaultModel,
        GilbertElliott,
        HangModel,
    )
    from repro.ota.ap import AccessPoint
    from repro.ota.broadcast import simulate_broadcast_campaign
    from repro.ota.fleet import FleetBurstLoss, FleetCampaignConfig
    from repro.ota.fleet.engine import simulate_node_timeline
    from repro.ota.mac import RetryPolicy
    from repro.phy.lora import LoRaParams
    from repro.sim import Timeline
    from repro.sim.trace import to_jsonl
    from repro.testbed import campus_deployment

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


#: The scripted sessions :func:`session_double_run_check` can diff.
_SESSIONS = {"service": service_session_fingerprint,
             "resilient": resilient_session_fingerprint,
             "ledgers": ledger_fingerprint}

#: What a double-run child can fingerprint, by its ``check`` name.
_FINGERPRINTS = {"fleet": _sharded_fleet_fingerprint, **_SESSIONS}


def session_double_run_check(
        name: str, seed: int = 0,
        hashseeds: Sequence[str] = SESSION_RUNS) -> str:
    """Run the scripted session ``name`` once per hash seed and diff.

    ``name`` is ``"service"`` (:func:`service_session_fingerprint`),
    ``"resilient"`` (:func:`resilient_session_fingerprint`) or
    ``"ledgers"`` (:func:`ledger_fingerprint`).  Returns the common
    fingerprint.

    Raises:
        ConfigurationError: for an unknown session name.
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    if name not in _SESSIONS:
        raise ConfigurationError(
            f"unknown session {name!r}; known: {', '.join(_SESSIONS)}")
    return _double_run(
        f"{name} session", name,
        [(f"hashseed={hashseed}", seed, hashseed) for hashseed in hashseeds])


def session_check_from_env(
        name: str, seed: int = 0,
        environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`session_double_run_check` when ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return session_double_run_check(name, seed)
