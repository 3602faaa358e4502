"""Access-point-side OTA orchestration (paper section 3.4).

The node-side protocol lives in :mod:`repro.ota.mac`; this module is the
AP's view of a whole campaign: "the AP sends a programming request as a
LoRa packet with specific device IDs indicating the nodes to be
programmed along with the time they should wake up to receive the
update" - then works through the nodes sequentially, retrying nodes
whose sessions fail, against each node's periodic listen window.

The AP runs its schedule inline on the campaign ledger, so campaign
timelines are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    FlashError,
    OtaError,
    RollbackError,
    TransferAbandonedError,
    WatchdogTimeoutError,
)
from repro.faults import FaultPlan, NodeFaults
from repro.ota.bank import FirmwareBanks
from repro.ota.hardened import (
    IMAGE_ID,
    OUTCOME_ABANDONED,
    OUTCOME_RESUMED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SUCCEEDED,
    HardenedOtaSession,
)
from repro.ota.flash import FaultyFlash, Mx25R6435F
from repro.ota.mac import LISTEN_PERIOD_S, OtaLink, ProgrammingRequest
from repro.ota.updater import OtaUpdater, UpdateReport
from repro.power import profiles
from repro.retry import RetryPolicy
from repro.sim import OTA_REQUEST, OTA_RETRY_WAIT, OTA_SESSION, Timeline
from repro.testbed.deployment import Deployment, NodePlacement

AP_RADIO = "ap_radio"
"""Timeline component name for the access point's LoRa radio."""

LISTEN_WINDOW_S = 2.0
"""How long each listen window stays open."""

SCHEDULE_GUARD_S = 5.0
"""Slack the schedule leaves after each node's estimated session."""

GOLDEN_IMAGE = bytes(range(256)) * 4
"""Factory fallback firmware provisioned on every hardened node: 1 kB
placeholder standing in for the minimal listen-for-updates image."""

GOLDEN_IMAGE_ID = 0
"""Trailer id of the factory image (campaign images start at 1)."""

ATTEMPT_ERRORS = (OtaError, WatchdogTimeoutError, FlashError,
                  FaultInjectionError)
"""What a failed attempt raises: the classic session only ``OtaError``,
the hardened one also the injected hang, flash and fault failures."""


@dataclass
class NodeSession:
    """One node's scheduled programming slot and its outcome.

    Attributes:
        node_id: testbed identifier.
        wake_time_s: when the node was told to wake for its update.
        attempts: sessions tried (first + retries).
        report: the last installed session's report, if any.
        outcome: terminal classification, one of the ``OUTCOME_*``
            constants (set once the campaign is done with the node).
        downlink_rssi_dbm: realized downlink RSSI of the last attempt.
        resumes: transfers continued from a flash checkpoint.
        rollbacks: boots that fell back to the golden image.
        watchdog_resets: hangs the watchdog cleared.
        errors: stringified per-attempt failures, in attempt order.
    """

    node_id: int
    wake_time_s: float
    attempts: int = 0
    report: UpdateReport | None = None
    outcome: str = ""
    downlink_rssi_dbm: float | None = None
    resumes: int = 0
    rollbacks: int = 0
    watchdog_resets: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """Whether the node is running the new image."""
        return self.outcome in (OUTCOME_SUCCEEDED, OUTCOME_RESUMED)


@dataclass(frozen=True)
class CampaignTimeline:
    """Full AP-side campaign outcome.

    The scalar fields are views replayed from the ``timeline`` ledger,
    which carries the campaign announcement, every per-node session's
    packet-level detail (merged in at the session's start time), the
    retry waits, and one ``ota.session`` span per programmed node.

    Attributes:
        sessions: per-node scheduling and results.
        request_time_s: airtime spent announcing the campaign.
        total_time_s: campaign wall-clock from request to last session.
        retries: failed sessions that were re-attempted.
        timeline: the campaign-wide event ledger.
    """

    sessions: tuple[NodeSession, ...]
    request_time_s: float
    total_time_s: float
    retries: int
    timeline: Timeline | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def success_count(self) -> int:
        """Nodes programmed."""
        return sum(1 for s in self.sessions if s.succeeded)

    def outcome_counts(self) -> dict[str, int]:
        """Terminal classification per node."""
        counts: dict[str, int] = {}
        for session in self.sessions:
            counts[session.outcome] = counts.get(session.outcome, 0) + 1
        return counts

    @property
    def abandoned(self) -> tuple[NodeSession, ...]:
        """Nodes the campaign gave up on (reported, never raised)."""
        return tuple(s for s in self.sessions
                     if s.outcome == OUTCOME_ABANDONED)

    def durations_s(self) -> np.ndarray:
        """Programming time of every programmed node, in session order."""
        return np.asarray([s.report.total_time_s for s in self.sessions
                           if s.succeeded], dtype=np.float64)

    def mean_duration_s(self) -> float:
        """Average programming time over the programmed nodes.

        Raises:
            OtaError: if no node was programmed.
        """
        durations = self.durations_s()
        if durations.size == 0:
            raise OtaError("no node was programmed successfully")
        return float(np.mean(durations))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF points ``(sorted durations, probabilities)``.

        Probabilities are over every node, so the curve tops out at the
        programmed fraction (paper Fig. 14).
        """
        durations = np.sort(self.durations_s())
        probabilities = np.arange(1, durations.size + 1) / len(self.sessions)
        return durations, probabilities

    def total_node_energy_j(self) -> float:
        """Campaign-wide node-side energy, in session order."""
        return sum(s.report.node_energy_j
                   for s in self.sessions if s.report)


class AccessPoint:
    """The testbed's programming AP.

    Args:
        deployment: node placements and channel.
        image: the firmware image to distribute.
        max_attempts_per_node: sessions to try before giving up on a
            node (each retry waits for the node's next listen window).
    """

    def __init__(self, deployment: Deployment, image: bytes,
                 max_attempts_per_node: int = 3) -> None:
        if not image:
            raise ConfigurationError("cannot distribute an empty image")
        if max_attempts_per_node < 1:
            raise ConfigurationError(
                "need at least one attempt per node, got "
                f"{max_attempts_per_node}")
        self.deployment = deployment
        self.image = image
        self.max_attempts = max_attempts_per_node

    def build_request(self, wake_times: dict[int, float]
                      ) -> ProgrammingRequest:
        """The campaign announcement packet.

        Raises:
            ConfigurationError: for an empty schedule.
        """
        if not wake_times:
            raise ConfigurationError("schedule at least one node")
        device_ids = tuple(sorted(wake_times))
        return ProgrammingRequest(
            device_ids=device_ids,
            wake_times_s=tuple(wake_times[d] for d in device_ids),
            image_id=IMAGE_ID)

    def schedule(self, estimated_session_s: float) -> dict[int, float]:
        """Assign staggered wake times: node k wakes after k sessions.

        Each node's wake time is rounded up to its next listen window
        (nodes only hear the announcement while listening).
        """
        wake_times: dict[int, float] = {}
        cursor = LISTEN_WINDOW_S
        for node in self.deployment.nodes:
            aligned = np.ceil(cursor / LISTEN_PERIOD_S) * LISTEN_PERIOD_S \
                if cursor > LISTEN_WINDOW_S else cursor
            wake_times[node.node_id] = float(aligned)
            cursor = float(aligned) + estimated_session_s + SCHEDULE_GUARD_S
        return wake_times

    def run_campaign(self, rng: np.random.Generator,
                     is_fpga_image: bool = True,
                     timeline: Timeline | None = None,
                     faults: FaultPlan | None = None,
                     policy: RetryPolicy | None = None) -> CampaignTimeline:
        """Announce, then program every node at its slot, with retries.

        All campaign activity lands on ``timeline`` (a fresh one when
        not supplied): the announcement airtime, each attempt's
        packet-level events (recorded on a per-session sub-timeline and
        merged in at the attempt's start), ``ota.retry`` waits for
        failed attempts, and an ``ota.session`` span per success.  The
        returned :class:`CampaignTimeline` scalars are replayed views
        over that ledger.  Every node ends in a terminal ``outcome``
        class - succeeded, resumed, rolled back, or abandoned - and a
        failed node is reported, never raised.

        Each attempt draws the node's downlink and then uplink RSSI from
        ``rng``, then runs one session.  By default that is the classic
        :class:`~repro.ota.updater.OtaUpdater` (the paper's single-bank
        install, Fig. 14).  Passing ``faults`` and/or ``policy`` runs
        :class:`~repro.ota.hardened.HardenedOtaSession` instead: nodes
        get dual-bank flash with a golden image, resumable transfers
        and watchdog protection.
        """
        request = self.build_request(self.schedule(150.0))
        link = OtaLink()
        timeline = timeline if timeline is not None else Timeline()
        since = timeline.checkpoint()
        timeline.record(
            OTA_REQUEST, AP_RADIO,
            label=f"announce {len(request.device_ids)} nodes",
            duration_s=link.airtime_s(request.wire_bytes),
            power_w=profiles.BACKBONE_TX_14DBM_W)
        sessions = tuple(
            self._program_node(node, rng, timeline, is_fpga_image, faults,
                               policy)
            for node in self.deployment.nodes)
        return CampaignTimeline(
            sessions=sessions,
            request_time_s=timeline.time_s(kinds={OTA_REQUEST},
                                           since=since),
            total_time_s=timeline.time_s(since=since, advancing_only=True),
            retries=timeline.count(kinds={OTA_RETRY_WAIT}, since=since),
            timeline=timeline)

    def _provision_banks(self, injector: NodeFaults | None) -> FirmwareBanks:
        """A node's dual-bank flash with the golden image pre-installed.

        Provisioning happens with injection off - the factory programs
        the golden image on the bench, not over a flaky field link.
        """
        if injector is not None and injector.plan.flash is not None:
            flash = FaultyFlash(injector)
            flash.inject = False
            banks = FirmwareBanks(flash)
            banks.install_golden(GOLDEN_IMAGE, GOLDEN_IMAGE_ID)
            flash.inject = True
            return banks
        banks = FirmwareBanks(Mx25R6435F())
        banks.install_golden(GOLDEN_IMAGE, GOLDEN_IMAGE_ID)
        return banks

    def _session_runner(self, node_id: int, is_fpga_image: bool,
                        faults: FaultPlan | None,
                        policy: RetryPolicy | None
                        ) -> Callable[..., UpdateReport]:
        """How each of one node's attempts runs a session.

        The returned callable takes ``(link, rng, sub-timeline, campaign
        start time)`` and returns the attempt's report or raises one of
        :data:`ATTEMPT_ERRORS`.

        The hardened node's state (flash banks, the fault injector's
        chains) is built once here and persists across its attempts, so
        a retry genuinely resumes from staged data and flash checkpoints
        rather than starting a fresh simulated node.
        """
        if faults is None and policy is None:
            return lambda link, rng, timeline, start_s: OtaUpdater().update(
                self.image, link, rng, is_fpga_image=is_fpga_image,
                timeline=timeline)
        injector = faults.bind(node_id) if faults is not None else None
        banks = self._provision_banks(injector)
        return lambda link, rng, timeline, start_s: HardenedOtaSession(
            self.image, link, banks, is_fpga_image=is_fpga_image,
            policy=policy, faults=injector).run(
                rng, timeline=timeline, campaign_offset_s=start_s)

    def _program_node(self, node: NodePlacement, rng: np.random.Generator,
                      timeline: Timeline, is_fpga_image: bool,
                      faults: FaultPlan | None,
                      policy: RetryPolicy | None) -> NodeSession:
        """Try one node up to ``max_attempts`` times; classify the result."""
        run_attempt = self._session_runner(node.node_id, is_fpga_image,
                                           faults, policy)
        session = NodeSession(node_id=node.node_id,
                              wake_time_s=timeline.now_s)
        for attempt in range(self.max_attempts):
            session.attempts += 1
            session.downlink_rssi_dbm = self.deployment.downlink_rssi_dbm(
                node, rng)
            node_link = OtaLink(
                downlink_rssi_dbm=session.downlink_rssi_dbm,
                uplink_rssi_dbm=self.deployment.uplink_rssi_dbm(node, rng))
            attempt_start_s = timeline.now_s
            attempt_timeline = Timeline()
            try:
                report = run_attempt(node_link, rng, attempt_timeline,
                                     attempt_start_s)
            except RollbackError as exc:
                # Both banks corrupt: unrecoverable over the air.
                timeline.merge(attempt_timeline, offset_s=attempt_start_s)
                session.errors.append(str(exc))
                session.outcome = OUTCOME_ABANDONED
                break
            except ATTEMPT_ERRORS as exc:
                # Wait for the node's next listen window, retry.
                timeline.merge(attempt_timeline, offset_s=attempt_start_s)
                session.errors.append(str(exc))
                if isinstance(exc, WatchdogTimeoutError):
                    session.watchdog_resets += 1
                timeline.record(
                    OTA_RETRY_WAIT, AP_RADIO,
                    label=f"node {node.node_id} attempt {attempt}",
                    duration_s=LISTEN_PERIOD_S)
                continue
            timeline.merge(attempt_timeline, offset_s=attempt_start_s)
            session.resumes += report.resumes
            session.report = report
            if report.rolled_back:
                session.rollbacks += 1
                session.outcome = OUTCOME_ROLLED_BACK
                timeline.record(
                    OTA_RETRY_WAIT, AP_RADIO,
                    label=f"node {node.node_id} attempt {attempt} "
                          "rolled back",
                    duration_s=LISTEN_PERIOD_S)
                continue
            timeline.record(
                OTA_SESSION, AP_RADIO,
                label=f"node {node.node_id}",
                duration_s=report.total_time_s)
            session.outcome = (OUTCOME_RESUMED if session.resumes > 0
                               else OUTCOME_SUCCEEDED)
            break
        if not session.outcome:
            # Every attempt failed without even a rollback to show:
            # report it (never raise - the campaign must finish).
            session.outcome = OUTCOME_ABANDONED
            session.errors.append(str(TransferAbandonedError(
                f"node {node.node_id} gave up after "
                f"{self.max_attempts} attempts")))
        return session
