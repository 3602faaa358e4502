"""What the pinned digests of ``repro.analysis.determinism`` cover.

``tests/test_determinism_pins.py`` holds the digests to fixed values
under several hash seeds.  A pin only guards what its digest hashes,
so these check that the fleet fingerprint hashes the campaign and that
the ledger scenarios reach every module that writes a ledger.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import repro
from repro.analysis.determinism import fleet_fingerprint, ledger_fingerprint
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
)
from repro.sim import Timeline

CONFIG = FleetCampaignConfig(
    num_nodes=96, image_bytes=600, seed=7,
    loss=FleetBurstLoss(), verify_failure_prob=0.05)


def test_fingerprint_is_sensitive_to_the_campaign():
    base = fleet_fingerprint(run_fleet_campaign(CONFIG))
    reseeded = dataclasses.replace(CONFIG, seed=8)
    assert fleet_fingerprint(run_fleet_campaign(reseeded)) != base


def _ledger_writers() -> set[str]:
    """Every ``repro`` module that calls ``.record(``."""
    package = Path(repro.__file__).resolve().parent
    return {
        ".".join(("repro",) + path.relative_to(package).with_suffix("").parts)
        for path in package.rglob("*.py")
        if ".record(" in path.read_text(encoding="utf-8")}


def test_ledger_double_run_reaches_every_ledger_writer(monkeypatch):
    on_stack: set[str] = set()
    record = Timeline.record

    def spy(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            on_stack.add(frame.f_globals.get("__name__", ""))
            frame = frame.f_back
        return record(self, *args, **kwargs)

    monkeypatch.setattr(Timeline, "record", spy)
    ledger_fingerprint(0)
    assert _ledger_writers() - on_stack == set()
