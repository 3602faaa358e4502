"""REPRO_DETERMINISM=1 double-run diffing (repro.analysis.determinism)."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.determinism import (
    DETERMINISM_ENV_VAR,
    SanitizerError,
    check_from_env,
    double_run_check,
    fleet_fingerprint,
    ledger_fingerprint,
    service_session_fingerprint,
    session_double_run_check,
)
from repro.errors import ConfigurationError
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    run_fleet_campaign,
)
from repro.sim import Timeline

CONFIG = FleetCampaignConfig(
    num_nodes=96, image_bytes=600, seed=7,
    loss=FleetBurstLoss(), verify_failure_prob=0.05)


def test_fingerprint_is_stable_across_runs():
    first = fleet_fingerprint(run_fleet_campaign(CONFIG))
    second = fleet_fingerprint(run_fleet_campaign(CONFIG))
    assert first == second


def test_fingerprint_is_sensitive_to_the_campaign():
    base = fleet_fingerprint(run_fleet_campaign(CONFIG))
    reseeded = dataclasses.replace(CONFIG, seed=8)
    assert fleet_fingerprint(run_fleet_campaign(reseeded)) != base


def test_double_run_check_runs_the_campaign_it_is_given():
    # Each config differs from CONFIG only in a field the children must
    # receive; one run per config keeps the subprocess count small.
    for config in (dataclasses.replace(CONFIG, payload_bytes=30),
                   dataclasses.replace(CONFIG, is_fpga_image=False),
                   dataclasses.replace(
                       CONFIG, loss=FleetBurstLoss(p_enter_bad=0.3))):
        in_process = fleet_fingerprint(run_fleet_campaign(config))
        assert double_run_check(config, runs=(("101", 2),)) == in_process


def test_double_run_check_passes_on_a_deterministic_campaign():
    fingerprint = double_run_check(CONFIG)
    assert len(fingerprint) == 64
    # The subprocess runs agree with an in-process run of the same
    # campaign — the diffing really does hash the campaign results.
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(CONFIG))


def test_double_run_check_caps_the_node_count():
    huge = dataclasses.replace(CONFIG, num_nodes=50_000)
    capped = dataclasses.replace(huge, num_nodes=64)
    fingerprint = double_run_check(huge, max_nodes=64)
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(capped))


def test_double_run_check_raises_when_a_child_fails():
    with pytest.raises(SanitizerError, match="failed"):
        double_run_check(CONFIG, runs=(("101", 1), ("202", 0)))


def test_check_from_env_is_gated_on_the_env_var():
    assert check_from_env(CONFIG, environ={}) is None
    fingerprint = check_from_env(CONFIG, environ={DETERMINISM_ENV_VAR: "1"})
    assert fingerprint == fleet_fingerprint(run_fleet_campaign(CONFIG))


def test_session_double_run_check_runs_the_named_session():
    assert (session_double_run_check("service", seed=5)
            == service_session_fingerprint(5))
    # The fleet check takes a campaign, not a session seed.
    with pytest.raises(ConfigurationError, match="unknown session"):
        session_double_run_check("fleet", seed=5)


def _ledger_writers() -> set[str]:
    """Every ``repro`` module (the linter aside) that calls ``.record(``."""
    package = Path(repro.__file__).resolve().parent
    return {
        ".".join(("repro",) + path.relative_to(package).with_suffix("").parts)
        for path in package.rglob("*.py")
        if path.relative_to(package).parts[0] != "analysis"
        and ".record(" in path.read_text(encoding="utf-8")}


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
    in_process = ledger_fingerprint(0)
    monkeypatch.undo()
    assert _ledger_writers() - on_stack == set()
    # Two interpreters under different hash seeds write the same bytes.
    assert session_double_run_check("ledgers", seed=0) == in_process
