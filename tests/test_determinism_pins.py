"""Pinned determinism fingerprints of the service, ledgers and fleet.

The chaos and parity suites compare the code only with itself, so a
reordered ledger row or journal record would pass them all.  These pins
hold the session digests, one journal's exact bytes, the bytes of every
ledger the ledger double run hashes, and the fleet fingerprint to fixed
values: a refactor that claims identity must keep every one of them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.determinism import (
    fleet_fingerprint,
    ledger_fingerprint,
    resilient_session_fingerprint,
    resilient_session_service,
    resilient_session_specs,
    service_session_fingerprint,
)
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
)
from repro.service import JobJournal


def test_scripted_service_session_fingerprint_is_pinned():
    assert service_session_fingerprint(2020) == (
        "346d76747fc1261e9c5ae2c365b2d040ae02bad47028b8c0a459fd6d1c9c9f20")


@pytest.mark.parametrize("seed, expected", [
    (0, "d0b0b54c62c1c3099df92066e681d118fb6be38e9e95629c844286b0c750264d"),
    (1, "8a2b6926ab1eb28953d1992487606834e1ff008f332e3567a6b7d55487a34cee"),
    (7, "1c87ca4719ae298f7e294930bc6d63f6d8c30f0cf19f7633073279d112a822c5"),
])
def test_resilient_session_fingerprint_is_pinned(seed, expected):
    assert resilient_session_fingerprint(seed) == expected


def test_resilient_session_journal_bytes_are_pinned(tmp_path):
    path = tmp_path / "session.jsonl"
    journal = JobJournal(str(path))
    service = resilient_session_service(0, journal=journal)
    for spec in resilient_session_specs(0):
        service.submit(spec)
    service.run_until_idle()
    journal.close()
    raw = path.read_bytes()
    assert len(raw) == 9472
    assert hashlib.sha256(raw).hexdigest() == (
        "ce71f03c80169d8bd4485f9531ed409524fadb0b6483d1be6826e21e9c3f0500")


def test_ledger_fingerprint_is_pinned():
    # The JSONL bytes of the OTA (classic, hardened, broadcast, fleet
    # node), tinySDR node and resilient-service ledgers, seed 0.
    assert ledger_fingerprint(0) == (
        "44b8a010f5406e80ba4934941244a9188910b92d57d0597336f64fe16af86964")


def test_fleet_smoke_fingerprint_is_pinned():
    # The fleet-smoke example's campaign at the double run's node cap.
    config = FleetCampaignConfig(
        num_nodes=2048, image_bytes=1800, seed=2020,
        loss=FleetBurstLoss(), verify_failure_prob=0.01)
    assert fleet_fingerprint(run_fleet_campaign(config)) == (
        "0e844f54e7f002f7b8277edde48f966ab5062c6fe8001b09badc2fab0b4f0013")
