"""``REPRO_DETERMINISM=1``: double-run determinism diffing.

The static taint pass (REPRO011) and shard-safety rule (REPRO013) catch
nondeterminism the AST can see; this module catches the rest by
construction.  It runs the same fleet campaign **twice in separate
interpreters** under different ``PYTHONHASHSEED`` values and different
shard counts, fingerprints everything each run produced (every per-node
result array plus the hierarchical rollup), and raises
:class:`SanitizerError` unless the hashes are
bit-identical.  A hash-seed difference flushes out any surviving
dict/set iteration-order dependence; a shard-count difference flushes
out any per-process accumulated state — the two runtime failure modes
the fleet engine's ``(seed, node_id, draw_index)`` contract promises
away.

Each child rebuilds the campaign from one JSON environment value: the
whole :class:`~repro.ota.fleet.config.FleetCampaignConfig` in its
:func:`~repro.service.resilience.codec.encode_config` form plus the
shard count, so the children run exactly the campaign they were given.

The check is wired into ``examples/fleet_campaign.py``: exporting
``REPRO_DETERMINISM=1`` makes the example re-prove the contract on a
scaled-down copy of its own campaign before reporting success.
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

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.ota.fleet.config import FleetCampaignConfig
    from repro.ota.fleet.engine import FleetReport

#: Opt-in flag for the double-run determinism check.
DETERMINISM_ENV_VAR = "REPRO_DETERMINISM"

#: The subprocess entry point's one knob: ``{"config", "shards"}`` JSON.
ENV_CAMPAIGN = "REPRO_DET_CAMPAIGN"

#: (PYTHONHASHSEED, shard count) pairs for the two runs.  Different
#: hash seeds vary dict/set iteration order; different shard counts
#: vary the node partition.  Bit-exactness must survive both.
DEFAULT_RUNS: tuple[tuple[str, int], ...] = (("101", 1), ("202", 3))

#: Node-count cap for the double run — enough nodes to exercise every
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


def _fingerprint_main() -> None:
    """Subprocess entry: run the campaign from env, print the digest."""
    from repro.ota.fleet.config import FleetCampaignConfig
    from repro.ota.fleet.shard import run_fleet_campaign_sharded
    from repro.service.resilience.codec import decode_config

    campaign = json.loads(os.environ[ENV_CAMPAIGN])
    config = decode_config(FleetCampaignConfig, campaign["config"])
    # The env *is* the configuration channel here: the parent serialized
    # the campaign through it precisely so this run is replayable.
    report = run_fleet_campaign_sharded(config, shards=campaign["shards"])  # reprolint: disable=REPRO011
    print(fleet_fingerprint(report))


def _double_run(what: str, entry: str,
                runs: Sequence[tuple[str, Mapping[str, str]]]) -> str:
    """Run ``entry`` once per ``(label, env)`` in a fresh interpreter and diff.

    ``entry`` names a function of this module that prints one
    fingerprint; each run's environment is the parent's plus ``env``
    (which sets ``PYTHONHASHSEED`` and the entry's knobs).  Returns the
    common fingerprint.

    Raises:
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    fingerprints: list[tuple[str, str]] = []
    for label, overrides in runs:
        env = dict(os.environ)
        env.update(overrides)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"from repro.analysis.determinism import {entry}; {entry}()"],
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
        "campaign", "_fingerprint_main",
        [(f"hashseed={hashseed}, shards={shards}",
          {ENV_CAMPAIGN: json.dumps({"config": encode_config(config),
                                     "shards": shards}),
           "PYTHONHASHSEED": hashseed})
         for hashseed, shards in runs])


def check_from_env(config: "FleetCampaignConfig",
                   environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`double_run_check` when ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return double_run_check(config)


# -- campaign-service double run ------------------------------------------

ENV_SERVICE_SEED = "REPRO_DET_SERVICE_SEED"

#: PYTHONHASHSEED values for the two service runs.  The service has no
#: shard axis; hash-seed variation alone flushes out iteration-order
#: dependence in admission, scheduling, caching and event journaling.
SERVICE_RUNS: tuple[str, ...] = ("101", "202")


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


def _service_fingerprint_main() -> None:
    """Subprocess entry: run the scripted session, print the digest."""
    # The env *is* the configuration channel here: the parent serialized
    # the session seed through it precisely so this run is replayable.
    seed = int(os.environ[ENV_SERVICE_SEED])
    print(service_session_fingerprint(seed))  # reprolint: disable=REPRO011


def service_double_run_check(
        seed: int = 0,
        hashseeds: Sequence[str] = SERVICE_RUNS) -> str:
    """Run the service session once per hash seed and diff the digests.

    Returns the common fingerprint.

    Raises:
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    return _double_run(
        "campaign service", "_service_fingerprint_main",
        [(f"hashseed={hashseed}",
          {ENV_SERVICE_SEED: str(seed), "PYTHONHASHSEED": hashseed})
         for hashseed in hashseeds])


def service_check_from_env(
        seed: int = 0,
        environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`service_double_run_check` when ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return service_double_run_check(seed)


# -- resilient-service double run ------------------------------------------

ENV_RESILIENCE_SEED = "REPRO_DET_RESILIENCE_SEED"


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
    tenants, an exact duplicate (a cache hit), a twice-submitted
    always-failing spec (two strikes trip the ``sweep-lora`` breaker,
    so a third identical submission is rejected at dispatch with the
    breaker open), and enough submissions to make shedding reachable.
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


def _resilient_fingerprint_main() -> None:
    """Subprocess entry: run the resilient session, print the digest."""
    # The env *is* the configuration channel here: the parent serialized
    # the session seed through it precisely so this run is replayable.
    seed = int(os.environ[ENV_RESILIENCE_SEED])
    print(resilient_session_fingerprint(seed))  # reprolint: disable=REPRO011


def resilience_double_run_check(
        seed: int = 0,
        hashseeds: Sequence[str] = SERVICE_RUNS) -> str:
    """Run the resilient session once per hash seed and diff digests.

    Returns the common fingerprint.

    Raises:
        SanitizerError: when any run's fingerprint diverges, or a run
            fails outright.
    """
    return _double_run(
        "resilient service", "_resilient_fingerprint_main",
        [(f"hashseed={hashseed}",
          {ENV_RESILIENCE_SEED: str(seed), "PYTHONHASHSEED": hashseed})
         for hashseed in hashseeds])


def resilience_check_from_env(
        seed: int = 0,
        environ: Mapping[str, str] | None = None) -> str | None:
    """Run :func:`resilience_double_run_check` under ``REPRO_DETERMINISM=1``.

    Returns the fingerprint when the check ran, ``None`` otherwise.
    """
    if not determinism_enabled(environ):
        return None
    return resilience_double_run_check(seed)
