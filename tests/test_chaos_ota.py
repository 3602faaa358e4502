"""Chaos suite: seeded campaigns under randomized fault plans.

Each seed derives a different :class:`FaultPlan` (burst loss, corruption,
flash faults, brownouts, AP outages, hangs - all at once) and runs a
small hardened campaign under it.  Whatever the plan throws at the
pipeline, the invariants must hold:

* the campaign completes and classifies every node - abandoned nodes are
  *reported*, never raised;
* no node ever boots an image that fails CRC verification;
* a resumed transfer never re-sends a fragment the node already
  acknowledged (checkpointed);
* the merged campaign ledger stays monotonic in time;
* the whole run is bit-reproducible from its seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    OtaError,
    ReproError,
)
from repro.faults.models import (
    ApOutageModel,
    BrownoutModel,
    CorruptionModel,
    FlashFaultModel,
    GilbertElliott,
    HangModel,
)
from repro.faults.plan import FaultPlan
from repro.ota.ap import GOLDEN_IMAGE, GOLDEN_IMAGE_ID, AccessPoint
from repro.ota.bank import FirmwareBanks
from repro.ota.flash import Mx25R6435F
from repro.ota.hardened import HardenedOtaSession
from repro.ota.mac import (
    OUTCOME_ABANDONED,
    OUTCOME_RESUMED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SUCCEEDED,
    OtaLink,
)
from repro.retry import RetryPolicy
from repro.sim.events import OTA_RESUME, PACKET_DELIVERED
from repro.sim.timeline import Timeline
from repro.testbed.deployment import campus_deployment

CHAOS_SEEDS = list(range(25))

OUTCOMES = {OUTCOME_SUCCEEDED, OUTCOME_RESUMED,
            OUTCOME_ROLLED_BACK, OUTCOME_ABANDONED}

IMAGE = np.random.default_rng(99).integers(
    0, 256, 2000, dtype=np.uint8).tobytes()
"""Incompressible, so every transfer spans dozens of fragments."""


def chaos_plan(seed: int) -> FaultPlan:
    """A randomized-but-seeded everything-at-once fault plan."""
    rng = np.random.default_rng([seed, 0xC4A05])

    def u(low: float, high: float) -> float:
        return float(rng.uniform(low, high))

    return FaultPlan(
        seed=seed,
        burst_loss=GilbertElliott(seed=seed,
                                  p_enter_bad=u(0.01, 0.15),
                                  p_exit_bad=u(0.2, 0.6),
                                  loss_bad=u(0.3, 0.9)),
        corruption=CorruptionModel(seed=seed,
                                   per_packet_prob=u(0.0, 0.05)),
        flash=FlashFaultModel(seed=seed,
                              page_failure_prob=u(0.0, 0.003),
                              stuck_bit_prob=u(0.0, 0.003)),
        brownout=BrownoutModel(seed=seed,
                               prob_per_fragment=u(0.0, 0.02),
                               reboot_time_s=u(0.5, 5.0)),
        ap_outage=ApOutageModel(seed=seed,
                                mean_interval_s=u(200.0, 900.0),
                                mean_duration_s=u(5.0, 40.0)),
        hang=HangModel(seed=seed, hang_prob=u(0.0, 0.2)))


def chaos_policy(seed: int) -> RetryPolicy:
    return RetryPolicy(max_attempts=40, backoff="exponential",
                       base_delay_s=0.25, max_delay_s=2.0,
                       jitter_fraction=0.1, seed=seed)


def run_campaign(seed: int):
    deployment = campus_deployment(num_nodes=3, max_radius_m=300.0,
                                   seed=seed, shadowing_sigma_db=2.0)
    ap = AccessPoint(deployment, IMAGE, max_attempts_per_node=3)
    return ap.run_campaign(np.random.default_rng(seed),
                           faults=chaos_plan(seed),
                           policy=chaos_policy(seed))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_campaign_survives_and_classifies_every_node(seed):
    campaign = run_campaign(seed)  # completing at all = nothing raised
    counts = campaign.outcome_counts()
    assert set(counts) <= OUTCOMES
    assert sum(counts.values()) == 3
    for session in campaign.sessions:
        assert session.outcome in OUTCOMES
        if session.outcome in (OUTCOME_SUCCEEDED, OUTCOME_RESUMED):
            assert session.report is not None
            assert session.report.applied
            assert not session.report.rolled_back
        if session.outcome == OUTCOME_RESUMED:
            assert session.resumes > 0
        if session.outcome == OUTCOME_ROLLED_BACK:
            # A terminal rollback means every retry booted golden.
            assert session.report is not None
            assert session.report.boot.bank == "golden"
            assert session.report.boot.image_id == GOLDEN_IMAGE_ID
        if session.outcome == OUTCOME_ABANDONED:
            assert session.errors  # reported, with the reasons attached
    assert len(campaign.abandoned) == counts.get(OUTCOME_ABANDONED, 0)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_campaign_ledger_is_time_monotonic(seed):
    campaign = run_campaign(seed)
    cursor = 0.0
    for event in campaign.timeline.events:
        if event.advanced:
            assert event.t_start_s >= cursor
            cursor = event.t_start_s
        assert event.duration_s >= 0.0


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_single_session_invariants(seed):
    """Per-node invariants, with direct access to the node's banks."""
    plan = chaos_plan(seed)
    banks = FirmwareBanks(Mx25R6435F())
    banks.install_golden(GOLDEN_IMAGE, GOLDEN_IMAGE_ID)
    session = HardenedOtaSession(
        IMAGE, OtaLink(downlink_rssi_dbm=-104.0), banks,
        policy=chaos_policy(seed), faults=plan.bind(seed))
    timeline = Timeline()
    try:
        report = session.run(np.random.default_rng(seed),
                             timeline=timeline)
    except ReproError:
        report = None  # typed failures are allowed; untyped are not
    # Whatever happened, the node only ever runs a verified image.
    assert banks.verify(banks.active_bank)
    if report is not None and not report.rolled_back:
        assert banks.read_image(report.boot.bank) == IMAGE
    # Within one session, a checkpointed fragment is never re-sent:
    # every delivered sequence number shows up exactly once even across
    # brownout resumes.
    delivered = [e.label for e in timeline.events
                 if e.kind == PACKET_DELIVERED]
    assert len(delivered) == len(set(delivered))
    if report is not None:
        assert report.resumes == timeline.count(kinds={OTA_RESUME})


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_chaos_runs_are_bit_reproducible(seed):
    first = run_campaign(seed)
    second = run_campaign(seed)
    assert first.outcome_counts() == second.outcome_counts()
    assert first.total_time_s.hex() == second.total_time_s.hex()
    events_a = [(e.kind, e.component, e.label, e.t_start_s, e.duration_s)
                for e in first.timeline.events]
    events_b = [(e.kind, e.component, e.label, e.t_start_s, e.duration_s)
                for e in second.timeline.events]
    assert events_a == events_b


def test_faults_off_changes_nothing():
    """A plan with no models injects nothing and draws nothing."""
    deployment = campus_deployment(num_nodes=2, max_radius_m=300.0,
                                   seed=1, shadowing_sigma_db=2.0)
    ap = AccessPoint(deployment, IMAGE)
    hardened = ap.run_campaign(np.random.default_rng(5),
                               policy=RetryPolicy())
    assert hardened.outcome_counts() == {OUTCOME_SUCCEEDED: 2}
    with pytest.raises(TypeError):
        # The plan seed is required - chaos is never accidentally
        # unseeded (tests/test_faults.py checks every constructor).
        FaultPlan()  # noqa  (deliberate: must not construct)


def test_abandonment_is_reported_not_raised():
    """A hopeless link abandons every node without raising OtaError."""
    plan = FaultPlan(seed=13, burst_loss=GilbertElliott(
        seed=13, loss_good=1.0, loss_bad=1.0))
    deployment = campus_deployment(num_nodes=2, max_radius_m=300.0,
                                   seed=2, shadowing_sigma_db=2.0)
    ap = AccessPoint(deployment, IMAGE, max_attempts_per_node=2)
    policy = RetryPolicy(max_attempts=4)
    try:
        campaign = ap.run_campaign(np.random.default_rng(3),
                                   faults=plan, policy=policy)
    except OtaError as exc:  # pragma: no cover - the invariant itself
        pytest.fail(f"campaign raised instead of reporting: {exc}")
    assert campaign.outcome_counts() == {OUTCOME_ABANDONED: 2}
    for session in campaign.sessions:
        assert session.report is None
        assert len(session.errors) == 3  # 2 attempts + the abandonment
