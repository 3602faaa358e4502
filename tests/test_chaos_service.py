"""Service-layer chaos suite: crash, hang and torn-write injection.

Each of the 25 seeds derives a distinct resilient session (supervised
retries, circuit breakers, load shedding, 25% worker-crash / 20%
workload-hang mix) and exercises three runs:

* the **golden** run, unjournaled, whose :func:`service_digest` is the
  reference fingerprint;
* a **journaled** run that must match the golden bit-for-bit (the
  journal is pure bookkeeping, invisible to the virtual timeline);
* a **crashed** run killed mid-session at a seed-derived journal record
  boundary (with a 50% torn final write), recovered via
  :meth:`CampaignService.recover`, and driven to completion.

Whatever the fault plan throws at the service, every seed must end with
all jobs in a terminal state and the recovered session's digest equal to
the golden run's.  ``make chaos-service`` runs this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.determinism import (
    resilient_session_fingerprint,
    resilient_session_service,
    resilient_session_specs,
    resilient_session_tenants,
    service_digest,
)
from repro.errors import SimulatedCrashError
from repro.faults.service import JournalTornWriteModel
from repro.service import (
    TERMINAL_STATES,
    CampaignService,
    CrashPlan,
    JobJournal,
    read_journal,
)

CHAOS_SEEDS = list(range(25))

_STREAM_BOUNDARY = 0x0C0B
"""Stream tag deriving each seed's crash boundary from the record count."""


def _golden(seed: int, path) -> str:
    """The journaled golden run; returns its digest."""
    service = resilient_session_service(seed, journal=JobJournal(str(path)))
    for spec in resilient_session_specs(seed):
        service.submit(spec)
    service.run_until_idle()
    return service_digest(service)


def _crash_boundary(seed: int, total_records: int) -> int:
    rng = np.random.default_rng([seed, _STREAM_BOUNDARY])
    return int(rng.integers(1, total_records))


def _crashed_then_recovered(seed: int, boundary: int,
                            path) -> CampaignService:
    torn = JournalTornWriteModel(seed=seed + 17, torn_prob=0.5)
    journal = JobJournal(str(path), crash_plan=CrashPlan(
        after_records=boundary, torn_write=torn))
    try:
        service = resilient_session_service(seed, journal=journal)
        for spec in resilient_session_specs(seed):
            service.submit(spec)
        service.run_until_idle()
        raise AssertionError(
            f"crash plan at boundary {boundary} never fired")
    except SimulatedCrashError:
        pass
    recovered = CampaignService.recover(str(path))
    for config in resilient_session_tenants(seed):
        if config.name not in recovered.stats().tenants:
            recovered.add_tenant(config)
    specs = resilient_session_specs(seed)
    for spec in specs[len(recovered.jobs()):]:
        recovered.submit(spec)
    recovered.run_until_idle()
    return recovered


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_seed_survives_crash_and_recovers_bit_identical(
        seed, tmp_path):
    golden = resilient_session_fingerprint(seed)

    journaled_path = tmp_path / "golden.jsonl"
    assert _golden(seed, journaled_path) == golden, (
        "journaling perturbed the session")

    total = len(read_journal(str(journaled_path)).records)
    boundary = _crash_boundary(seed, total)
    crash_path = tmp_path / "crashed.jsonl"
    service = _crashed_then_recovered(seed, boundary, crash_path)

    jobs = service.jobs()
    assert jobs, "recovered session lost every job"
    assert all(job.state in TERMINAL_STATES for job in jobs), (
        f"seed {seed}: non-terminal jobs after recovery")
    assert service_digest(service) == golden, (
        f"seed {seed}: crash after record {boundary}/{total} "
        "broke recovery fingerprint parity")


def test_fingerprints_differ_across_seeds():
    fingerprints = {resilient_session_fingerprint(seed)
                    for seed in CHAOS_SEEDS[:8]}
    assert len(fingerprints) == 8
