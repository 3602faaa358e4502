"""Pinned determinism digests of the service, ledgers and fleet.

The chaos and parity suites compare the code only with itself, so a
reordered ledger row or journal record would pass them all.  These pins
hold the session digests, one journal's exact bytes, the bytes of every
ledger the ledger scenarios write, and the fleet fingerprint and spill
bytes to fixed values: a refactor that claims identity must keep every
one of them.

Every digest is computed once per hash seed in
:data:`~repro.analysis.determinism.HASH_SEEDS`, each in a fresh
interpreter (the fleet at every shard count in ``FLEET_SHARDS`` too),
and each must equal its pin under all of them.  A set or dict whose
iteration order reaches an output therefore fails here on every run,
whatever hash seed pytest itself was given.
"""

from __future__ import annotations

import pytest

from repro.analysis.determinism import (
    FLEET_SHARDS,
    HASH_SEEDS,
    pinned_digests,
)
from repro.errors import ReproError


@pytest.fixture(scope="module")
def digests():
    return pinned_digests()


def _assert_pinned(digests, name: str, pin: str) -> None:
    drifted = {hashseed: run[name][:16] for hashseed, run in digests.items()
               if run[name] != pin}
    assert not drifted, (
        f"{name} left its pin {pin[:16]} under PYTHONHASHSEED "
        f"(hash seed -> digest) {drifted}")


def test_every_hash_seed_ran(digests):
    assert tuple(digests) == HASH_SEEDS


def test_scripted_service_session_fingerprint_is_pinned(digests):
    _assert_pinned(digests, "service-2020",
                   "346d76747fc1261e9c5ae2c365b2d040"
                   "ae02bad47028b8c0a459fd6d1c9c9f20")


@pytest.mark.parametrize("seed, expected", [
    (0, "d0b0b54c62c1c3099df92066e681d118fb6be38e9e95629c844286b0c750264d"),
    (1, "8a2b6926ab1eb28953d1992487606834e1ff008f332e3567a6b7d55487a34cee"),
    (7, "1c87ca4719ae298f7e294930bc6d63f6d8c30f0cf19f7633073279d112a822c5"),
])
def test_resilient_session_fingerprint_is_pinned(digests, seed, expected):
    _assert_pinned(digests, f"resilient-{seed}", expected)


def test_resilient_session_journal_bytes_are_pinned(digests):
    # "<file size in bytes> <sha256>" of the seed-0 session's journal.
    _assert_pinned(digests, "journal-0",
                   "9472 ce71f03c80169d8bd4485f9531ed4095"
                   "24fadb0b6483d1be6826e21e9c3f0500")


def test_ledger_fingerprint_is_pinned(digests):
    # The JSONL bytes of the OTA (classic, hardened, broadcast, fleet
    # node), tinySDR node and resilient-service ledgers, seed 0.
    _assert_pinned(digests, "ledgers-0",
                   "44b8a010f5406e80ba4934941244a918"
                   "8910b92d57d0597336f64fe16af86964")


def test_fleet_smoke_fingerprint_is_pinned(digests):
    # The fleet example's campaign at 2,048 nodes, at every shard count.
    for shards in FLEET_SHARDS:
        _assert_pinned(digests, f"fleet-shards-{shards}",
                       "0e844f54e7f002f7b8277edde48f966a"
                       "b5062c6fe8001b09badc2fab0b4f0013")


def test_fleet_spill_bytes_are_pinned(digests):
    # "<file size in bytes> <sha256>" of the same campaign's JSONL spill,
    # at every shard count.
    for shards in FLEET_SHARDS:
        _assert_pinned(digests, f"fleet-spill-shards-{shards}",
                       "415155 568f10b374421380c4081869fbe2405f"
                       "8adc18d2398a23bc08a374ebe2eb106b")


def test_pinned_run_raises_when_a_child_fails():
    with pytest.raises(ReproError, match="PYTHONHASHSEED=not-a-seed"):
        pinned_digests(hashseeds=("not-a-seed",))
